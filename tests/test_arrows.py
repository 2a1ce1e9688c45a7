import math

import pytest

from wknots.rational import rat
from wknots.arrows import (LONG, strands, canonical_long, canonical_word,
                           enumerate_diagrams, ArrowVector,
                           generate_relations, place_long)
from wknots.expansion import get_quotient as quotient
from wknots.linalg import SparseEchelon

from oracles import long_relators


def test_long_diagram_counts():
    # (2m)! / m! ways to place m directed arrows on 2m ordered slots
    for m in range(5):
        expected = math.factorial(2 * m) // math.factorial(m)
        assert len(enumerate_diagrams(LONG, m)) == expected


def test_strand_word_counts():
    assert [len(enumerate_diagrams(strands(2), m)) for m in range(5)] == \
        [1, 2, 4, 8, 16]
    assert [len(enumerate_diagrams(strands(3), m)) for m in range(4)] == \
        [1, 6, 36, 216]
    # with four strands, far-apart letters commute and words collapse
    assert [len(enumerate_diagrams(strands(4), m)) for m in range(4)] == \
        [1, 12, 132, 1444]


def test_canonical_long_is_stable():
    d = canonical_long(((3, 1), (4, 2)))
    assert canonical_long(d) == d
    assert canonical_long(((30, 10), (40, 20))) == d


def test_canonical_word_far_commutation():
    a, b = (1, 2), (3, 4)
    assert canonical_word((a, b), 4) == canonical_word((b, a), 4)
    # overlapping letters do not commute
    c = (2, 3)
    assert canonical_word((a, c), 4) != canonical_word((c, a), 4)


LONG_DIMS = {
    frozenset({"TC", "4T"}): [1, 2, 4, 7, 12, 19],
    frozenset({"TC", "4T", "RI"}): [1, 1, 2, 3, 5, 7],
    frozenset({"TC", "4T", "FI"}): [1, 0, 1, 1, 2, 2],
    frozenset({"6T"}): [1, 2, 7, 27, 139],
    frozenset({"TC", "6T"}): [1, 2, 4, 7, 12, 19],
}


@pytest.mark.parametrize("rels", sorted(LONG_DIMS, key=sorted))
def test_long_quotient_dimensions(rels):
    dims = LONG_DIMS[rels]
    got = [quotient(LONG, m, rels).dim for m in range(len(dims))]
    assert got == dims


def test_strand_quotient_dimensions():
    got = [quotient(strands(3), m, {"TC", "4T"}).dim for m in range(5)]
    assert got == [1, 6, 27, 108, 405]
    got2 = [quotient(strands(3), m, {"TC", "6T"}).dim for m in range(4)]
    assert got2 == [1, 6, 27, 108]


def test_projection_kills_relators():
    for skel in (LONG, strands(3)):
        for m in range(1, 4):
            q = quotient(skel, m, {"TC", "4T"})
            for vec in generate_relations(skel, m, {"TC", "4T"}):
                assert not any(q.project(vec))


def test_projection_fixes_basis():
    q = quotient(LONG, 2, {"TC", "4T"})
    for i, d in enumerate(q.basis):
        v = ArrowVector(LONG, 2, {d: rat(1)})
        coords = q.project(v)
        assert coords[i] == 1
        assert sum(1 for c in coords if c) == 1


def test_vector_arithmetic():
    d1 = canonical_long(((1, 2),))
    d2 = canonical_long(((2, 1),))
    v = ArrowVector(LONG, 1, {d1: rat(1)})
    w = ArrowVector(LONG, 1, {d2: rat(2)})
    assert (v + w) - v == w
    assert (v * rat(3)).terms[d1] == 3
    assert (v - v).is_zero()


def test_flags_only_on_long_strand():
    with pytest.raises(ValueError):
        generate_relations(strands(2), 2, {"TC", "RI"})


def test_place_long_shared_gap_and_shared_point():
    # points 0 and 1 both in gap 1 of the arrow (1, 2): 0 comes first
    assert place_long(((1, 2),), (1, 1), ((0, 1),)) == ((1, 4), (2, 3))
    assert place_long(((1, 2),), (1, 1), ((1, 0),)) == ((1, 4), (3, 2))
    # gap 0 lies before slot 1, gap 2 after slot 2
    assert place_long(((1, 2),), (0, 2), ((0, 1),)) == ((1, 4), (2, 3))
    # two tails at point 0 keep the order of the arrows
    assert place_long((), (0, 0, 0), ((0, 1), (0, 2))) == ((1, 3), (2, 4))
    assert place_long((), (0, 0, 0), ((0, 2), (0, 1))) == ((1, 4), (2, 3))


RELATOR_COUNTS = {
    (LONG, "TC"): [0, 0, 3, 60, 1260, 30240],
    (LONG, "4T"): [0, 0, 6, 120, 2520],
    (LONG, "6T"): [0, 0, 6, 120, 2520],
    (LONG, "RI"): [0, 1, 6, 60, 840],
    (LONG, "FI"): [0, 2, 8, 80, 1104],
    (strands(3), "TC"): [0, 0, 3, 36],
    (strands(3), "4T"): [0, 0, 6, 72],
    (strands(3), "6T"): [0, 0, 6, 72],
}


@pytest.mark.parametrize("skel, rel", sorted(RELATOR_COUNTS))
def test_relator_counts(skel, rel):
    # TC is generated once per pair of heads, not once with each sign
    got = [len(generate_relations(skel, m, {rel}))
           for m in range(len(RELATOR_COUNTS[skel, rel]))]
    assert got == RELATOR_COUNTS[skel, rel]


def up_to_sign(v):
    items = sorted(v.terms.items())
    sign = 1 if items[0][1] > 0 else -1
    return tuple((d, sign * c) for d, c in items)


def long_rref(m, relators):
    index = {d: i for i, d in enumerate(enumerate_diagrams(LONG, m))}
    ech = SparseEchelon()
    for v in relators:
        ech.add({index[d]: c for d, c in v.terms.items()})
    return ech.rows


@pytest.mark.parametrize("rel", ["TC", "4T", "6T", "RI", "FI"])
def test_long_relators_match_oracle(rel):
    # the table-driven relators are the oracle's, each once up to sign, so
    # they span the same space; the echelon forms are compared where the
    # elimination is quick (4T alone at m = 4 takes seconds, 6T minutes)
    for m in range(5):
        new = generate_relations(LONG, m, {rel})
        old = long_relators(m, {rel})
        new_set = {up_to_sign(v) for v in new}
        assert new_set == {up_to_sign(v) for v in old}
        if rel == "TC":  # one relator per pair of heads, not one per sign
            assert len(new_set) == len(new)
        if m < 4 or rel not in ("4T", "6T"):
            assert long_rref(m, new) == long_rref(m, old)
