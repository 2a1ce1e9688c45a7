import hashlib
import math
from functools import cache
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from wknots import arrows
from wknots.rational import Rat, rat
from wknots.arrows import (LONG, strands, canonical_long,
                           enumerate_diagrams, ArrowVector, QuotientSpace,
                           _class_isolated_rows, _class_products,
                           _class_ranks, _class_relators,
                           _isolated_arrow_relators, _place,
                           _plan, _relators, _tc_classes, diagram_count,
                           generate_relations, tc_rank)
from wknots.expansion import get_quotient as quotient
from wknots.linalg import SparseEchelon, integral

from oracles import (DictFoldQuotient, cc_arrow_relators, commutation_classes,
                     long_relators, per_product_place_long,
                     per_product_two_arrow_relators, raw_word_dim,
                     tc_canonical)


def test_long_diagram_counts():
    # (2m)! / m! ways to place m directed arrows on 2m ordered slots
    for m in range(5):
        expected = math.factorial(2 * m) // math.factorial(m)
        assert len(enumerate_diagrams(LONG, m)) == expected


def test_long_diagrams_share_one_arrow_table():
    # every diagram from the matchings of the 2m slots, each arrow taken
    # in both directions; the enumeration reuses one tuple per arrow
    for m in range(5):
        slots = range(1, 2 * m + 1)
        want = set()
        for perm in permutations(slots):
            pairs = [perm[i:i + 2] for i in range(0, 2 * m, 2)]
            if all(a < b for a, b in pairs):
                for flips in product((False, True), repeat=m):
                    want.add(tuple(sorted((b, a) if f else (a, b)
                                          for (a, b), f in zip(pairs, flips))))
        got = enumerate_diagrams(LONG, m)
        assert got == sorted(want)
        assert len({id(a) for d in got for a in d}) == 2 * m * (2 * m - 1)


def test_strand_word_counts():
    # one column per raw word: far commutation is a relation, not a format
    counts = {2: [1, 2, 4, 8, 16], 3: [1, 6, 36, 216], 4: [1, 12, 144, 1728]}
    for n, want in counts.items():
        degrees = range(len(want))
        got = [len(enumerate_diagrams(strands(n), m)) for m in degrees]
        assert got == want
        assert got == [diagram_count(strands(n), m, set()) for m in degrees]
    words = enumerate_diagrams(strands(4), 2)
    assert words == sorted(words)


def test_canonical_long_is_stable():
    d = canonical_long(((3, 1), (4, 2)))
    assert canonical_long(d) == d
    assert canonical_long(((30, 10), (40, 20))) == d


# with no relations, a strand quotient is the span of the commutation
# classes of words, and each word projects onto its canonical word, the
# least word of its class

def test_canonical_word_far_commutation():
    q = quotient(strands(4), 2, set())
    a, b = (1, 2), (3, 4)
    assert q.project_diagram((a, b)) == q.project_diagram((b, a))
    # overlapping letters do not commute
    c = (2, 3)
    assert q.project_diagram((a, c)) != q.project_diagram((c, a))
    # the commutation classes on four strands
    assert [quotient(strands(4), m, set()).dim for m in range(4)] == \
        [1, 12, 132, 1440]


def test_canonical_word_on_three_strands_is_the_word():
    # on at most three strands no two letters are disjoint
    for n in (2, 3):
        for m in range(4):
            q = quotient(strands(n), m, set())
            assert q.basis == enumerate_diagrams(strands(n), m)
    with pytest.raises(ValueError):
        quotient(strands(3), 1, set()).project_diagram(((1, 4),))


def test_canonical_word_is_lex_least_not_descent_free():
    # (2,3) moves past (1,4) to the front; no adjacent swap lowers the
    # word, yet the class holds a smaller one
    q = quotient(strands(4), 3, set())
    w = ((4, 1), (1, 4), (2, 3))
    least = ((2, 3), (4, 1), (1, 4))
    assert least in q.basis
    assert q.project_diagram(w) == q.project_diagram(least)
    assert q.project_diagram(((4, 1), (2, 3), (1, 4))) == \
        q.project_diagram(least)


@pytest.mark.parametrize("n, m", [(4, 2), (4, 3), (4, 4), (5, 2), (5, 3)])
def test_canonical_word_is_least_of_its_class(n, m):
    # every class of adjacent disjoint swaps has one basis word, its least
    q = quotient(strands(n), m, set())
    assert q.basis == sorted(min(cls) for cls in commutation_classes(n, m))


# {TC,4T} and {TC,6T} dimensions on four and five strands, each checked
# against the raw-word oracle
STRAND_DIMS = {(4, 2): 96, (4, 3): 640, (4, 4): 3840, (5, 3): 2500,
               (5, 4): 21875}
# (5, 4) takes the oracle about 5 s per relation set
ORACLE_CASES = [(n, m) if (n, m) != (5, 4)
                else pytest.param(n, m, marks=pytest.mark.slow)
                for n, m in sorted(STRAND_DIMS)]


@pytest.mark.parametrize("n, m", sorted(STRAND_DIMS))
def test_strand_dimensions(n, m):
    for rels in ({"TC", "4T"}, {"TC", "6T"}):
        assert QuotientSpace(strands(n), m, rels).dim == STRAND_DIMS[n, m]


@pytest.mark.parametrize("n, m", ORACLE_CASES)
def test_strand_dimensions_match_raw_word_oracle(n, m):
    for rels in ({"TC", "4T"}, {"TC", "6T"}):
        assert raw_word_dim(n, m, frozenset(rels)) == STRAND_DIMS[n, m]


@pytest.mark.slow
def test_strand_dimension_four_strands_degree_5():
    # the raw-word oracle takes minutes and gigabytes here
    assert QuotientSpace(strands(4), 5, {"TC", "4T"}).dim == 21504


@pytest.mark.parametrize("n, m", [(2, 6), (3, 5), (4, 3), (5, 3), (6, 3)])
@pytest.mark.parametrize("rels", ["TC 4T", "TC 6T"])
def test_strand_dimensions_match_series(n, m, rels):
    # a cross-check, not a proof: every size measured so far is the x^m
    # coefficient of 1/(1 - nx)^(n-1), which is 1/P(-x) for the Poincare
    # polynomial P(t) = (1 + nt)^(n-1) of the cohomology of the pure
    # basis-conjugating group (Jensen-McCammond-Meier 2006)
    want = math.comb(m + n - 2, n - 2) * n ** m
    assert QuotientSpace(strands(n), m, set(rels.split())).dim == want


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
@pytest.mark.parametrize("rels, dim, digest", [
    ({"TC", "4T"}, 30,
     "a733363e00b08e3b1c47c230be33dee6c7c559be3759cb738f941f3310dafd9d"),
    ({"TC", "4T", "RI"}, 11,
     "fc8ad6e60c7beda7315a326e78ce5284f9b160a44b3b1e67716b363d0cbb11c7"),
    ({"TC", "4T", "FI"}, 4,
     "f5c941c0f9b8f532cc1e9f7c83eebe27a8d2e45ee413a2455c0d8b46ab003cfd")],
    ids=["TC+4T", "TC+4T+RI", "TC+4T+FI"])
def test_long_quotient_dimensions_degree_6(rels, dim, digest):
    # the wheels theorem one degree further: the wheels count, p(6) and
    # p(6) - p(5), with the bases and echelon rows of quotient_digest
    q = QuotientSpace(LONG, 6, rels)
    assert q.dim == dim
    assert quotient_digest(q) == digest


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


def place(context, gaps, arrows):
    """One product placed into a context at nondecreasing gaps."""
    return next(_place(context, gaps, [_plan(tuple(arrows))]))


def test_place_shared_gap_and_shared_point():
    # points 0 and 1 both in gap 1 of the arrow (1, 2): 0 comes first
    assert place(((1, 2),), (1, 1), ((0, 1),)) == ((1, 4), (2, 3))
    assert place(((1, 2),), (1, 1), ((1, 0),)) == ((1, 4), (3, 2))
    # gap 0 lies before slot 1, gap 2 after slot 2
    assert place(((1, 2),), (0, 2), ((0, 1),)) == ((1, 4), (2, 3))
    # two tails at point 0 keep the order of the arrows
    assert place((), (0, 0, 0), ((0, 1), (0, 2))) == ((1, 3), (2, 4))
    assert place((), (0, 0, 0), ((0, 2), (0, 1))) == ((1, 4), (2, 3))


@cache
def _diagrams(skel, m):
    return enumerate_diagrams(skel, m)


def _long_diagrams(m):
    return _diagrams(LONG, m)


@st.composite
def long_placements(draw):
    """A canonical context, nondecreasing gaps for 2-5 points (often
    shared) and 1-4 arrows between distinct points."""
    m = draw(st.integers(0, 3))
    ctx = draw(st.sampled_from(enumerate_diagrams(LONG, m)))
    npoints = draw(st.integers(2, 5))
    gaps = sorted(draw(st.lists(st.integers(0, 2 * len(ctx)),
                                min_size=npoints, max_size=npoints)))
    arrow = st.tuples(st.integers(0, npoints - 1), st.integers(0, npoints - 1))
    arrows = draw(st.lists(arrow.filter(lambda a: a[0] != a[1]),
                           min_size=1, max_size=4))
    return ctx, tuple(gaps), arrows


@settings(max_examples=300, deadline=None)
@given(long_placements())
def test_place_matches_per_product_oracle(case):
    ctx, gaps, arrows = case
    assert place(ctx, gaps, arrows) == per_product_place_long(ctx, gaps,
                                                              arrows)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_cc_relators_match_oracle(m):
    # placed by _place with the TC/4T/6T products, CC gives the relators
    # of slotting each block term into every context on its own, in order.
    # The oracle builds each of the 9 blocks twice (block a's legs at P and
    # at the complement of P): the last 9 of every 18 repeat the first 9
    new = generate_relations(LONG, m, {"CC"})
    full = cc_arrow_relators(m)
    keys = [tuple(sorted(v.terms.items())) for v in full]
    for k in range(0, len(full), 18):
        assert set(keys[k:k + 9]) == set(keys[k + 9:k + 18])
    old = [v for i, v in enumerate(full) if i % 18 < 9]
    assert len(new) == {4: 9, 5: 54, 6: 540}[m]
    assert [list(v.terms.items()) for v in new] == \
        [list(v.terms.items()) for v in old]


# sha256 of the {TC,4T,CC} bases and echelon rows at degrees 4 and 5,
# each row and its columns written as diagrams and its values with str:
# any correct change keeps them, whatever numbers the columns get
CC_QUOTIENT_DIGESTS = {
    4: "beee51d32e08efb09f8adb34d1426ab5a9cb5053aa4f890b69235dc01d733c34",
    5: "a5925caadacd98a1a6b1f0ed2f3715c750f5b782d129b4246d845ef5e7a95787",
}


def quotient_digest(q):
    d = q._diagrams
    rows = [(d[p], [(d[c], str(v)) for c, v in sorted(row.items())])
            for p, row in sorted(q._ech.rows.items())]
    return hashlib.sha256(repr((q.basis, rows)).encode()).hexdigest()


@pytest.mark.parametrize("m", [4, 5])
def test_cc_quotient_unchanged(m):
    q = quotient(LONG, m, {"TC", "4T", "CC"})
    assert quotient_digest(q) == CC_QUOTIENT_DIGESTS[m]


# the same digest of {6T} at degree 4 (where many rows enter the echelon
# with a pivot entry other than ±1) and of {TC,4T,RI} at degree 5.  The
# rows were first pinned when the echelon divided such pivots out in Rat,
# and these digests taken from the integer rows that matched them: every
# row is integral with pivot entry 1.  The {TC,4T,FI} and {TC,6T,RI}
# digests, and the degree-6 ones, were taken before the class build
# skipped the placements that RI or FI repeat (``arrows._cuts``)
ROW_DIGESTS = {
    (frozenset({"6T"}), 4):
        "13db025b955c02a35c69b0d2393dbbda14f40822165c8cc4122689d672ac5506",
    (frozenset({"TC", "4T", "RI"}), 5):
        "4698eb537c315dafe8ddabd552928992381bf9be1466e3faa72520b163b5a2da",
    (frozenset({"TC", "4T", "FI"}), 5):
        "ebf15202f3338b2ed18ac523a57adae51d047d250c5e9f9355517d6cb29457c7",
    (frozenset({"TC", "6T", "RI"}), 5):
        "2776f4c3b2ed2250a4f28877d50a4a2d5a7bf20eb0fb85f06bdf096090e2561f",
}


@pytest.mark.parametrize("rels, m", ROW_DIGESTS, ids=lambda v: (
    "+".join(sorted(v)) if isinstance(v, frozenset) else None))
def test_echelon_rows_unchanged(rels, m):
    q = quotient(LONG, m, rels)
    assert quotient_digest(q) == ROW_DIGESTS[rels, m]
    assert all(type(v) is int and row[p] == 1
               for p, row in q._ech.rows.items() for v in row.values())


@pytest.mark.parametrize("skel, rels", [(LONG, {"TC", "4T"}),
                                        (strands(3), {"TC", "6T"})],
                         ids=["long-TC+4T", "strands3-TC+6T"])
def test_holders_index_after_build(skel, rels):
    # rows enter highest pivot first, so most never update a holder; the
    # column index must still list pivot q under column c exactly when c
    # is off the pivot of row q
    ech = QuotientSpace(skel, 4, rels)._ech
    held = {(c, q) for c, qs in ech.holders.items() for q in qs}
    assert held == {(c, q) for q, r in ech.rows.items() for c in r if c != q}


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


COMBINATION_CASES = ([(LONG, {"TC", "4T", "RI"}, m) for m in range(5)]
                     + [(strands(3), {"TC", "4T"}, m) for m in range(4)])

# the quotients with pivot classes, classes merged on a TC class column
# or a strand word, and (FI) dead classes
READ_CASES = ([(LONG, rels, m) for m in range(5)
               for rels in ({"TC", "4T"}, {"TC", "4T", "RI"},
                            {"TC", "4T", "FI"})]
              + [(strands(n), {"TC", "4T"}, m) for n in (3, 4)
                 for m in range(4)])


@st.composite
def rational_combinations(draw, cases=COMBINATION_CASES):
    """A quotient and a combination of its diagrams with integer and
    rational coefficients of mixed denominators."""
    skel, rels, m = draw(st.sampled_from(cases))
    q = quotient(skel, m, rels)
    diagrams = _diagrams(skel, m)
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
    # the read path: int images over one int denominator, divided last
    nums, den = q.numerators(v)
    assert type(den) is int and all(type(x) is int for x in nums)
    assert type(q._den) is int and all(
        type(image) is tuple
        and all(type(p) is int and type(x) is int for p, x in image)
        for image in q._images.values())


@settings(max_examples=200, deadline=None)
@given(rational_combinations(READ_CASES), st.integers(1, 5040))
def test_images_match_the_reduction(case, den):
    # adding up per-column images reads what folding v onto the classes
    # and reducing it against the stored rows reads
    q, terms = case
    v = ArrowVector(q.skeleton, q.m, terms)
    assert q.project(v, den) == DictFoldQuotient.project(q, v, den)


def test_images_over_a_denominator_above_one(monkeypatch):
    # the library's quotients have every pivot entry 1 and every weight
    # +1, so a strands(2) build at degree 3 is handed relators made for
    # the other cases: w1 = -w0, w2 dead, 2·w3 = w4, 3·w1 + w5 = 4·w6 (3·w0 =
    # w5 - 4·w6 once folded) and 5·w2 + w7 = 0 (w7 = 0 once folded)
    words = enumerate_diagrams(strands(2), 3)
    made = [{0: 1, 1: 1}, {2: 1}, {3: 2, 4: -1}, {1: 3, 5: 1, 6: -4},
            {7: 1, 2: 5}]
    monkeypatch.setattr(
        arrows, "_relators", lambda skeleton, m, relset, diagrams: (
            {words[i]: c for i, c in row.items()} for row in made))
    q = QuotientSpace(strands(2), 3, set())
    assert q.basis == words[4:7]
    assert q._den == 6 and q._weight[1] == -1
    third = rat(1, 3)
    want = [[0, third, -4 * third], [0, -third, 4 * third], [0, 0, 0],
            [rat(1, 2), 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]
    for w, coords in zip(words, want):
        v = ArrowVector(strands(2), 3, {w: 1})
        assert q.project_diagram(w) == coords
        assert q.project(v, 7) == [rat(c, 7) for c in coords]
        assert q.project(v) == DictFoldQuotient.project(q, v)
    v = ArrowVector(strands(2), 3, {w: rat(i + 1, 6 - i)
                                    for i, w in enumerate(words[:6])})
    nums, den = q.numerators(v, 5)
    assert all(type(x) is int for x in nums)
    assert den == 60 * 5 * 6
    assert q.project(v, 5) == DictFoldQuotient.project(q, v, 5)


@settings(max_examples=150, deadline=None)
@given(rational_combinations(), st.integers(1, 5040), st.booleans())
def test_project_over_a_denominator(case, den, ints):
    # project(v, den) reads v / den; with ints, v holds plain int values,
    # as Z keeps its numerators over den = d!
    q, terms = case
    v = ArrowVector(q.skeleton, q.m, terms)
    if ints:  # every denominator the strategy draws divides 360
        v.terms = {d: int(c * 360) for d, c in v.terms.items()}
        assert all(type(c) is int for c in v.terms.values())
    got = q.project(v, den)
    assert got == q.project(v * rat(1, den))
    assert all(type(c) is Rat for c in got)


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
        ech.add(integral({index[d]: c for d, c in v.terms.items()})[0])
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


@pytest.mark.parametrize("m", range(6))
def test_class_rank_names_the_tc_canonical_column(m):
    # the arithmetic rank of each diagram picks the column whose least
    # diagram is the diagram's TC-canonical form
    least, column = _tc_classes(m)
    assert least == sorted(set(map(tc_canonical, _long_diagrams(m))))
    assert sorted(column) == list(range((m + 1) ** m))
    assert all(least[column[tc_rank(d)]] == tc_canonical(d)
               for d in _long_diagrams(m))


@pytest.mark.parametrize("rel", ["4T", "6T"])
@pytest.mark.parametrize("m", range(2, 5))
def test_placed_ranks_match_placed_diagrams(rel, m):
    # the summed rank of every product at every context and gaps is the
    # rank of the diagram _place builds there
    names = frozenset({rel})
    plans = _class_products(names)[0]
    for ctx, ranks in _class_ranks(m, names):
        for gaps in combinations_with_replacement(range(2 * len(ctx) + 1), 3):
            assert list(ranks(gaps)) == [tc_rank(d) for d in
                                         _place(ctx, gaps, plans)]


@pytest.mark.parametrize("rels", ["4T", "6T", "TC 4T CC"])
@pytest.mark.parametrize("m", range(2, 5))
def test_class_rows_are_the_diagram_rows(rels, m):
    # the rows of the class build are the diagram relators with each
    # diagram written as its class, which keeps apart two diagrams of one
    # class: the same rows, so the same ones are two-term ±1 rows
    rels = frozenset(rels.split())
    column = _tc_classes(m)[1]
    got = {tuple(sorted(r)) for r in _class_relators(m, rels, column)}
    want = {tuple(sorted((column[tc_rank(d)], c) for d, c in r.items()))
            for r in _relators(LONG, m, rels - {"TC"})}
    assert got == want


@pytest.mark.parametrize("m", range(6))
def test_class_isolated_rows_match_the_diagrams(m):
    # RI and FI read off the classes give the class pairs and the dead
    # classes that the rules give on all diagrams, each once
    column = _tc_classes(m)[1]
    for rels in ({"RI"}, {"FI"}):
        got = list(_class_isolated_rows(m, rels, column))
        want = {tuple((column[tc_rank(d)], c) for d, c in r.items())
                for r in _isolated_arrow_relators(_long_diagrams(m), rels)}
        assert len(got) == len(want) and set(map(tuple, got)) == want


def test_column_counts():
    # the columns a build indexes, which the command line bounds
    for m in range(5):
        assert diagram_count(LONG, m, {"TC", "4T"}) == (m + 1) ** m
        assert diagram_count(LONG, m, {"6T"}) == len(_long_diagrams(m))
        assert len(QuotientSpace(LONG, m, {"TC"})._diagrams) == (m + 1) ** m
    assert diagram_count(strands(3), 3, {"TC", "4T"}) == 6 ** 3


FOLD_CASES = (
    [(LONG, rels, m) for rels in LONG_DIMS for m in range(5)
     if (rels, m) != ({"6T"}, 4)]
    + [pytest.param(LONG, frozenset({"6T"}), 4, marks=pytest.mark.slow)]
    + [(LONG, frozenset(rels), m) for rels in ({"TC", "6T", "RI"},
                                               {"TC", "6T", "FI"},
                                               {"TC", "4T", "RI", "FI"})
       for m in range(5)]
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
    # packed give the relator-dict build's basis, rows and projections;
    # rows are compared with their columns written as diagrams
    assert_fold_matches(quotient(skel, m, rels),
                        DictFoldQuotient(skel, m, rels))


def assert_fold_matches(q, old):
    assert q.basis == old.basis
    assert diagram_rows(q) == diagram_rows(old)
    assert all(q.project_diagram(d) == old.project_diagram(d)
               for d in old._diagrams)


def diagram_rows(q):
    d = q._diagrams
    return {d[p]: {d[c]: v for c, v in row.items()}
            for p, row in q._ech.rows.items()}


ISOLATED_SETS = [frozenset(rels) for rels in (
    {"TC", "4T", "RI"}, {"TC", "4T", "FI"}, {"TC", "6T", "RI"},
    {"TC", "6T", "FI"}, {"TC", "4T", "RI", "FI"})]


@pytest.mark.parametrize("rels", ISOLATED_SETS, ids=_case_id)
@pytest.mark.parametrize("m", range(3, 6))
def test_isolated_arrow_cuts_only_drop_rows(monkeypatch, rels, m):
    # the cuts that RI and FI add keep a subset of the rows that the
    # descent cut alone keeps, and a strict one
    column = _tc_classes(m)[1]

    def rows():
        return {tuple(r) for r in _class_relators(m, rels, column)}

    cut = rows()
    cuts = arrows._cuts
    monkeypatch.setattr(arrows, "_cuts",
                        lambda ctx, relset: cuts(ctx, frozenset()))
    assert cut < rows()


@pytest.mark.parametrize("rels, m", [(ISOLATED_SETS[0], 3),
                                     (ISOLATED_SETS[0], 4),
                                     (ISOLATED_SETS[2], 3)], ids=_case_id)
def test_skipping_reverse_isolated_contexts_is_caught(monkeypatch, rels, m):
    # forced failure: a cut that drops every placement on a context with a
    # reverse isolated arrow, cut or not, loses rows that no kept context
    # repeats, and the dict-fold oracle sees it ({TC,4T,RI} reads dim 7
    # at m = 3, not 3).  The {TC,6T,RI} build at m = 4 comes out unchanged
    cuts = arrows._cuts
    # four gaps, more than the three sites: no placement is kept
    monkeypatch.setattr(arrows, "_cuts", lambda ctx, relset: (
        [0, 1, 2, 3] if any(t == h + 1 for t, h in ctx)
        else cuts(ctx, relset)))
    with pytest.raises(AssertionError):
        assert_fold_matches(QuotientSpace(LONG, m, rels),
                            DictFoldQuotient(LONG, m, rels))
