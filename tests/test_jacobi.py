import random
from functools import reduce

import pytest

from wknots.rational import Rat
from wknots.arrows import (LONG, ArrowVector, canonical_long,
                           generate_relations, strands)
from wknots.expansion import TruncatedExpansion, get_quotient, wheels_reduce
from wknots.jacobi import (TrivalentDiagram, stu_eliminate, wheel_diagram,
                           wheel_to_arrows, concat, D_RIGHT, D_LEFT,
                           monomial_to_arrows, wheel_monomial_basis,
                           as_instances, ihx_instances, generator_image,
                           cc_blocks)

from oracles import add_terms, concat_through_canonical_long


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
    want = {canonical_long(D_LEFT): Rat(1), canonical_long(D_RIGHT): Rat(-1)}
    assert v in (ArrowVector(LONG, 1, want),
                 ArrowVector(LONG, 1, {d: -c for d, c in want.items()}))


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
                coeffs = [Rat(rng.randint(-3, 3)) for _ in monos]
                terms = {}
                for mo, c in zip(monos, coeffs):
                    add_terms(terms, monomial_to_arrows(mo).terms.items(), c)
                z = TruncatedExpansion(LONG, [{} for _ in range(m)] + [terms],
                                       1)
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


def test_built_vectors_hold_ints():
    # every coefficient the library builds stays an int until a division:
    # the relators of every id (far commutation on strands(4)), wheels,
    # monomials, the AS and IHX instances, and the CC blocks
    vecs = [v for rel in ("TC", "4T", "6T", "RI", "FI", "CC")
            for m in range(5) for v in generate_relations(LONG, m, {rel})]
    vecs += generate_relations(strands(4), 2, {"TC", "4T", "6T"})
    vecs += [wheel_to_arrows(k) for k in range(1, 6)]
    vecs += [monomial_to_arrows(mono) for m in range(5)
             for mono in wheel_monomial_basis(m)]
    vecs += as_instances() + ihx_instances()
    coeffs = [c for v in vecs for c in v.terms.values()]
    coeffs += [c for block in cc_blocks() for c in block.values()]
    assert coeffs and all(type(c) is int for c in coeffs)


def test_wheel_basis_is_built_once():
    # one tuple per degree and flag set, whatever set type names the flags
    assert wheel_monomial_basis(4, {"RI"}) is wheel_monomial_basis(
        4, frozenset({"RI"}))
    assert type(wheel_monomial_basis(3)) is tuple
    with pytest.raises(ValueError, match="unknown flags"):
        wheel_monomial_basis(3, {"XX"})


def test_diagram_edge_validation():
    # every internal edge needs exactly one source and one sink
    with pytest.raises(ValueError):
        TrivalentDiagram((), ((("e0", "e1"), "e2"),))


def test_concat_shifts_slots():
    u = ArrowVector(LONG, 1, {canonical_long(D_RIGHT): Rat(1)})
    v = ArrowVector(LONG, 1, {canonical_long(D_LEFT): Rat(1)})
    w = concat(u, v)
    assert w.m == 2
    assert list(w.terms) == [canonical_long(((1, 2), (4, 3)))]


def is_canonical(d):
    # slots 1..2m once each first, so canonical_long cannot raise
    slots = sorted(x for arrow in d for x in arrow)
    return slots == list(range(1, 2 * len(d) + 1)) and d == canonical_long(d)


def through_canonical_long(vec):
    return ArrowVector(vec.skeleton, vec.m, add_terms(
        {}, ((canonical_long(d), c) for d, c in vec.terms.items())))


@pytest.mark.parametrize("flags", [(), ("RI",), ("FI",), ("RI", "FI")])
def test_built_diagrams_are_canonical(flags):
    # stu_eliminate and concat key their terms without canonical_long
    unit = ArrowVector(LONG, 0, {(): Rat(1)})
    for m in range(7):
        for mono in wheel_monomial_basis(m, flags):
            vec = monomial_to_arrows(mono)
            assert all(is_canonical(d) for d in vec.terms), mono
            assert vec == through_canonical_long(vec)
            images = [through_canonical_long(generator_image(g))
                      for g in mono]
            assert vec == reduce(concat_through_canonical_long, images, unit)


def test_concat_of_random_vectors_is_canonical():
    rng = random.Random(30)

    def diagram(m):
        slots = list(range(1, 2 * m + 1))
        rng.shuffle(slots)
        return canonical_long(zip(slots[::2], slots[1::2]))

    for _ in range(200):
        u, v = (ArrowVector(LONG, m, {diagram(m): Rat(rng.randint(-3, 3))
                                      for _ in range(rng.randint(1, 4))})
                for m in (rng.randint(0, 3), rng.randint(0, 3)))
        w = concat(u, v)
        assert all(is_canonical(d) for d in w.terms)
        assert w == concat_through_canonical_long(u, v)
