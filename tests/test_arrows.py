import math
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from wknots.rational import Rat, rat
from wknots.arrows import (LONG, strands, canonical_long, canonical_word,
                           enumerate_diagrams, ArrowVector, QuotientSpace,
                           _relators, generate_relations, place_long,
                           tc_canonical)
from wknots.expansion import get_quotient as quotient
from wknots.linalg import SparseEchelon

from oracles import (DictFoldQuotient, long_relators, per_product_place_long,
                     per_product_two_arrow_relators)


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


def test_canonical_word_on_three_strands_is_the_word():
    # on at most three strands no two letters are disjoint
    for n in (2, 3):
        letters = [(p, q) for p in range(1, n + 1) for q in range(1, n + 1)
                   if p != q]
        for w in [(l,) for l in letters] + [(a, b, c) for a in letters
                                             for b in letters
                                             for c in letters]:
            assert canonical_word(w, n) == w
    with pytest.raises(ValueError):
        canonical_word(((1, 4),), 3)


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


@pytest.mark.slow
@pytest.mark.parametrize("rels, dim", [({"TC", "4T", "RI"}, 11),
                                       ({"TC", "4T", "FI"}, 4)],
                         ids=["TC+4T+RI", "TC+4T+FI"])
def test_long_quotient_dimensions_degree_6(rels, dim):
    # the wheels theorem one degree further: p(6) and p(6) - p(5)
    assert QuotientSpace(LONG, 6, rels).dim == dim


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


@pytest.mark.parametrize("skel, rels, mmax", [
    (LONG, {"TC", "4T"}, 4), (LONG, {"TC", "4T", "RI"}, 4),
    (LONG, {"TC", "4T", "FI"}, 4), (LONG, {"TC", "4T", "CC"}, 4),
    (strands(3), {"TC", "6T"}, 3)])
def test_projections_are_rat(skel, rels, mmax):
    # the quotient is built in integer arithmetic; project hands back Rat
    for m in range(mmax + 1):
        q = quotient(skel, m, rels)
        for d in enumerate_diagrams(skel, m)[:300]:
            assert all(type(c) is Rat for c in q.project_diagram(d))


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


@cache
def _long_diagrams(m):
    return enumerate_diagrams(LONG, m)


@st.composite
def long_placements(draw):
    """A canonical context, gaps for 2-5 points (sorted or not, often
    shared) and 1-4 arrows between distinct points."""
    m = draw(st.integers(0, 3))
    ctx = draw(st.sampled_from(enumerate_diagrams(LONG, m)))
    npoints = draw(st.integers(2, 5))
    gaps = draw(st.lists(st.integers(0, 2 * len(ctx)), min_size=npoints,
                         max_size=npoints))
    if draw(st.booleans()):
        gaps.sort()
    arrow = st.tuples(st.integers(0, npoints - 1), st.integers(0, npoints - 1))
    arrows = draw(st.lists(arrow.filter(lambda a: a[0] != a[1]),
                           min_size=1, max_size=4))
    return ctx, tuple(gaps), arrows


@settings(max_examples=300, deadline=None)
@given(long_placements())
def test_place_long_matches_per_product_oracle(case):
    ctx, gaps, arrows = case
    if list(gaps) == sorted(gaps):
        assert (place_long(ctx, gaps, arrows)
                == per_product_place_long(ctx, gaps, arrows))
    else:
        with pytest.raises(ValueError):
            place_long(ctx, gaps, arrows)


@pytest.mark.parametrize("skel, mmax", [(LONG, 4), (strands(3), 3)])
@pytest.mark.parametrize("rels", ["TC", "4T", "6T", "TC 4T", "TC 6T"])
def test_relators_match_per_product_oracle(skel, mmax, rels):
    # lifting each context once per count vector gives the relators of
    # placing every product on its own: same order, key order and types
    def listed(relators):
        return [[(d, type(c), c) for d, c in r.items()] for r in relators]

    rels = frozenset(rels.split())
    for m in range(mmax + 1):
        assert (listed(_relators(skel, m, rels))
                == listed(per_product_two_arrow_relators(skel, m, rels)))


@st.composite
def rational_combinations(draw):
    """A quotient and a combination of its diagrams with integer and
    rational coefficients of mixed denominators."""
    skel, rels, m = draw(st.sampled_from(
        [(LONG, {"TC", "4T", "RI"}, m) for m in range(5)]
        + [(strands(3), {"TC", "4T"}, m) for m in range(4)]))
    q = quotient(skel, m, rels)
    diagrams = q._diagrams
    coeffs = st.integers(-6, 6) | st.builds(
        rat, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6, 9, 120)))
    terms = draw(st.lists(st.tuples(st.sampled_from(diagrams), coeffs),
                          max_size=8))
    return q, terms


@settings(max_examples=150, deadline=None)
@given(rational_combinations())
def test_project_is_linear(case):
    q, terms = case
    v = ArrowVector(q.skeleton, q.m, terms)
    want = [rat(0)] * q.dim
    for d, c in terms:
        want = [w + c * x for w, x in zip(want, q.project_diagram(d))]
    got = q.project(v)
    assert got == want
    assert all(type(c) is Rat for c in got)
    # the read path: an int row over one int denominator, divided last
    row, den = q._scaled_row(v)
    assert type(den) is int and all(type(c) is int for c in row.values())
    coords, den = q.scaled_coordinates(v)
    assert all(type(c) is Rat for c in coords.values())
    assert [coords.get(i, rat(0)) / den for i in range(q.dim)] == got


def test_project_rejects_foreign_diagrams():
    q = quotient(LONG, 2, {"TC", "4T"})
    with pytest.raises(ValueError, match=r"\(\(1, 2\),\) is not"):
        q.project_diagram(((1, 2),))
    with pytest.raises(ValueError, match=r"\(5, 9\)"):
        q.project(ArrowVector(LONG, 2, {((1, 2), (5, 9)): rat(1)}))
    with pytest.raises(ValueError, match="degree-1"):
        quotient(strands(3), 1, {"TC", "4T"}).project_diagram(((1, 2), (2, 3)))


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
    relators = [generate_relations(skel, m, {rel})
                for m in range(len(RELATOR_COUNTS[skel, rel]))]
    assert [len(vecs) for vecs in relators] == RELATOR_COUNTS[skel, rel]
    assert all(type(c) is Rat
               for vecs in relators for v in vecs for c in v.terms.values())


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


def _tail_swaps(d):
    """The diagrams one TC move away: two arrows with tails at adjacent
    slots s, s+1 trade heads."""
    out = []
    for k in range(len(d) - 1):
        (t1, h1), (t2, h2) = d[k], d[k + 1]
        if t2 == t1 + 1:
            out.append(d[:k] + ((t1, h2), (t2, h1)) + d[k + 2:])
    return out


@pytest.mark.parametrize("m", range(5))
def test_tc_canonical_is_least_of_its_class(m):
    classes = {}
    for d in _long_diagrams(m):
        c = tc_canonical(d)
        classes.setdefault(c, []).append(d)
        assert all(tc_canonical(e) == c for e in _tail_swaps(d))
    assert all(c == min(ds) for c, ds in classes.items())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda m: st.tuples(
    st.sampled_from(_long_diagrams(m)),
    st.lists(st.integers(0, 2 * m), max_size=12))))
def test_tc_canonical_under_random_tail_swaps(case):
    d, moves = case
    c = tc_canonical(d)
    assert tc_canonical(c) == c and c <= d
    for k in moves:
        swaps = _tail_swaps(d)
        if swaps:
            d = swaps[k % len(swaps)]
        assert tc_canonical(d) == c and c <= d


@pytest.mark.parametrize("m", range(6))
def test_tc_class_counts(m):
    # TC classes: (m+1)^m; with RI as well: m^m (1 at m = 0)
    assert len(set(map(tc_canonical, _long_diagrams(m)))) == (m + 1) ** m
    assert QuotientSpace(LONG, m, {"TC"}).dim == (m + 1) ** m
    assert QuotientSpace(LONG, m, {"TC", "RI"}).dim == m ** m


FOLD_CASES = (
    [(LONG, rels, m) for rels in LONG_DIMS for m in range(5)
     if (rels, m) != ({"6T"}, 4)]
    + [pytest.param(LONG, frozenset({"6T"}), 4, marks=pytest.mark.slow)]
    + [(LONG, frozenset(rels), 5) for rels in ({"TC", "4T"},
                                               {"TC", "4T", "RI"})]
    + [(strands(n), frozenset(rels), m) for n in (2, 3, 4)
       for rels in ({"TC", "4T"}, {"TC", "6T"}) for m in range(4)])


def _case_id(v):
    if isinstance(v, tuple):
        return "long" if v == LONG else "strands%d" % v[1]
    return "+".join(sorted(v)) if isinstance(v, frozenset) else None


@pytest.mark.parametrize("skel, rels, m", FOLD_CASES, ids=_case_id)
def test_fold_matches_dict_oracle(skel, rels, m):
    # TC as canonical forms, RI read off the diagrams and the longer rows
    # packed give the relator-dict build's basis, rows and projections
    q, old = quotient(skel, m, rels), DictFoldQuotient(skel, m, rels)
    assert q.basis == old.basis
    assert q._ech.rows == old._ech.rows
    assert all(q.project_diagram(d) == old.project_diagram(d)
               for d in q._diagrams)
