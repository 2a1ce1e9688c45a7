import random

import pytest

from wknots.rational import rat
from wknots.arrows import LONG, ArrowVector, canonical_long, generate_relations
from wknots.expansion import TruncatedExpansion, get_quotient, wheels_reduce
from wknots.jacobi import (TrivalentDiagram, stu_eliminate, wheel_diagram,
                           wheel_to_arrows, concat, D_RIGHT, D_LEFT,
                           monomial_to_arrows, wheel_monomial_basis,
                           as_instances, ihx_instances)


def test_wheel_diagram_shape():
    for k in (1, 2, 3, 4):
        w = wheel_diagram(k)
        assert w.degree == k
        assert len(w.legs) == k
        assert len(w.verts) == k


def test_stu_preserves_degree():
    for k in (2, 3):
        v = stu_eliminate(wheel_diagram(k))
        assert v.m == k
        assert all(len(d) == k for d in v.terms)


def test_one_wheel_is_arrow_commutator():
    v = wheel_to_arrows(1)
    want = ArrowVector(LONG, 1, {canonical_long(D_LEFT): rat(1),
                                 canonical_long(D_RIGHT): rat(-1)})
    assert v == want or v == want * rat(-1)


def test_wheels_survive_quotient():
    # each wheel is nonzero in the quotient; the 1-wheel dies under the
    # rotation-number relation
    for k in (2, 3, 4):
        q = get_quotient(LONG, k, {"TC", "4T", "RI"})
        assert any(q.project(wheel_to_arrows(k)))
    q1 = get_quotient(LONG, 1, {"TC", "4T", "RI"})
    assert not any(q1.project(wheel_to_arrows(1)))


def test_monomial_basis_counts():
    # without flags: monomials in a, w1, w2, ... of total degree m
    assert [len(wheel_monomial_basis(m, frozenset())) for m in range(6)] == \
        [1, 2, 4, 7, 12, 19]
    assert [len(wheel_monomial_basis(m, {"RI"})) for m in range(6)] == \
        [1, 1, 2, 3, 5, 7]
    assert [len(wheel_monomial_basis(m, {"FI"})) for m in range(6)] == \
        [1, 0, 1, 1, 2, 2]


def test_monomial_images_are_a_basis():
    # the monomial images span a space of the quotient's dimension, and
    # wheels_reduce recovers random integer combinations of them exactly
    rng = random.Random(41)
    for flags in (frozenset(), frozenset({"RI"})):
        for m in range(5):
            q = get_quotient(LONG, m, {"TC", "4T"} | set(flags))
            monos = wheel_monomial_basis(m, flags)
            assert q.dim == len(monos)
            for _ in range(3):
                coeffs = [rat(rng.randint(-3, 3)) for _ in monos]
                z = TruncatedExpansion(LONG, m)
                for mo, c in zip(monos, coeffs):
                    z.comps[m] = z.comps[m] + monomial_to_arrows(mo) * c
                got = wheels_reduce(z, flags)[m]
                assert got == {mo: c for mo, c in zip(monos, coeffs) if c}


def test_as_relators_vanish():
    for vec in as_instances(4):
        q = get_quotient(LONG, vec.m, {"TC", "4T"})
        assert not any(q.project(vec))


def test_ihx_relators_vanish():
    vecs = ihx_instances()
    assert vecs
    for vec in vecs:
        q = get_quotient(LONG, vec.m, {"TC", "4T"})
        assert not any(q.project(vec))


def test_cc_relators_vanish():
    vecs = generate_relations(LONG, 4, {"CC"})
    assert vecs
    for vec in vecs:
        q = get_quotient(LONG, 4, {"TC", "4T"})
        assert not any(q.project(vec))


def test_diagram_edge_validation():
    # every internal edge needs exactly one source and one sink
    with pytest.raises(ValueError):
        TrivalentDiagram((), ((("e0", "e1"), "e2"),))


def test_concat_shifts_slots():
    u = ArrowVector(LONG, 1, {canonical_long(D_RIGHT): rat(1)})
    v = ArrowVector(LONG, 1, {canonical_long(D_LEFT): rat(1)})
    w = concat(u, v)
    assert w.m == 2
    assert list(w.terms) == [canonical_long(((1, 2), (4, 3)))]
