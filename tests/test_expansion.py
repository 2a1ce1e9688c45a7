import hashlib
import random

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from wknots.rational import Rat, rat
from wknots.wbraid import (SIGMA, VIRT, BraidWord, braid_action,
                           braid_delete_strand, braid_from_text,
                           braid_skeleton, crossings, relation_table, word)
from wknots.gauss import GaussDiagram, braid_closure, apply_move, pd_to_gauss
from wknots.alexander import knot_inventory
from wknots.arrows import LONG
from wknots.expansion import (TruncatedExpansion, expansion_exp, zed_braid,
                              zed_knot, project_expansion, wheels_reduce,
                              predicted_from_alexander, _support_shapes,
                              _support_terms)

from oracles import (arrow_side_prediction, close_word, closure_order,
                     delete_strand_from_expansion, expansion_on_exponential,
                     magnus_expansion, support_shapes_by_combinations,
                     support_terms_flat, zed_braid_fractions,
                     zed_knot_recursive)

# w-braids whose closures have non-palindromic Alexander polynomials
W_BRAIDS = (
    "n=4\nS3 v2 S2 s1 s2",
    "n=3\nv2 v1 S1 s2 s1 s1 S1 v1 S1 s2",
    "n=4\ns3 v3 v2 v2 s1 v2 S3 s1 v2 v3 s2 v1 s2 s2 S1",
    "n=3\ns1 S2 S2 v1 v2 s1 S1 S1 s2 v2 S1 S1",
)


def values(z, m):
    """Component m of an expansion as {diagram: Rat}: each numerator over
    the expansion's denominator."""
    return {w: Rat(c) / z.den for w, c in z.comps[m].terms.items()}


def test_crossing_is_exponential():
    z = zed_braid(word(2, "s1"), 3)
    # degree k coefficient of the single letter a_(1,2) is 1/k!
    letter = (1, 2)
    for k in range(4):
        assert values(z, k) == {(letter,) * k: rat(Fraction(
            1, [1, 1, 2, 6][k]))}


def test_inverse_crossing_signs():
    z = zed_braid(word(2, "S1"), 2)
    # the inverse crossing has strand 2 passing over strand 1
    assert values(z, 1) == {((2, 1),): rat(-1)}
    assert values(z, 2) == {((2, 1), (2, 1)): rat(Fraction(1, 2))}


def relabelled(z, top):
    """``z`` with strand p renamed top[p-1] in each of its arrows."""
    out = TruncatedExpansion(z.skeleton, z.d, z.den)
    for m, comp in z.comps.items():
        out.comps[m].terms = {tuple((top[p - 1], top[q - 1]) for p, q in w): c
                              for w, c in comp.terms.items()}
    return out


def assert_multiplicative(a, b, d):
    # Z(b) names b's strands by their positions at its bottom, that is at
    # a's top, where position p holds strand crossings(a)[1][p - 1] of ab
    za, zab = zed_braid(a, d), zed_braid(a * b, d)
    zb = relabelled(zed_braid(b, d), crossings(a)[1])
    assert (za * zb).den == zab.den ** 2
    for m in range(d + 1):
        assert values(za * zb, m) == values(zab, m)


def test_zed_braid_multiplicative():
    rng = random.Random(31)
    from wknots.checks import random_braid
    for _ in range(10):
        assert_multiplicative(random_braid(rng, 3, 3), random_braid(rng, 3, 3),
                              3)
    # a skeleton that is a 3-cycle: its inverse is another permutation
    a = word(3, "s1 s2")
    assert braid_skeleton(a) == (3, 1, 2) and crossings(a)[1] == (2, 3, 1)
    assert_multiplicative(a, word(3, "s1"), 2)


def test_closed_zed_braid_is_zed_of_the_closure():
    # close(Z(b)) = Z(closure(b)) term for term, as int numerators over 4!
    from wknots.checks import random_braid
    rng, done = random.Random(37), 0
    while done < 300:
        b = random_braid(rng, rng.randrange(2, 5), rng.randrange(0, 9))
        try:
            g = braid_closure(b)
        except ValueError:
            continue
        want, got = zed_knot(g, 4), close_word(
            zed_braid(b, 4), closure_order(crossings(b)[1]))
        assert want.den == got.den == factorial(4)
        for m in range(5):
            assert got.comps[m].terms == want.comps[m].terms, b
        done += 1


def test_zed_braid_respects_relations_small():
    for name, lhs, rhs in relation_table(3):
        zl = project_expansion(zed_braid(lhs, 3))
        zr = project_expansion(zed_braid(rhs, 3))
        assert zl == zr, name


def test_zed_braid_rejects_flips():
    with pytest.raises(ValueError):
        zed_braid(word(2, "f1", extended=True), 2)


@pytest.mark.parametrize("b", [
    BraidWord(2, (("f", 1, 1), ("s", 1, 1)), True),
    word(2, "f2", extended=True),
    word(3, "s1 v2 f3 S2", extended=True),
])
def test_rational_oracle_refuses_flips_like_zed_braid(b):
    # the oracle once read a flip as a swap of positions
    for z in (zed_braid, zed_braid_fractions):
        with pytest.raises(ValueError, match="^flip letters have no "
                           "arrow-valued expansion$"):
            z(b, 2)


def test_zed_knot_unknot():
    z = zed_knot(GaussDiagram(()), 3)
    assert values(z, 0) == {(): rat(1)}
    assert all(z.comps[m].is_zero() for m in (1, 2, 3))


def test_zed_knot_kink_normalization():
    kink = GaussDiagram(((1, 2, 1),))
    z = zed_knot(kink, 3, normalize=True)
    coords = project_expansion(z, flags={"RI"})
    unit = project_expansion(zed_knot(GaussDiagram(()), 3), flags={"RI"})
    assert coords == unit


def test_zed_invariant_under_moves_small():
    rng = random.Random(32)
    from wknots.checks import random_knot_diagram, _legal_moves
    for _ in range(15):
        g = random_knot_diagram(rng, length=rng.randrange(2, 6))
        if not g.arrows:
            # a crossingless closure has no move: give it a kink
            g = GaussDiagram(((1, 2, 1),))
        moves = _legal_moves(g)
        mv = moves[rng.randrange(len(moves))]
        g2 = apply_move(g, mv[0], *mv[1:])
        assert project_expansion(zed_knot(g, 3), flags={"RI"}) == \
            project_expansion(zed_knot(g2, 3), flags={"RI"})


def test_trefoil_wheel_coordinates():
    g = braid_closure(word(2, "s1 s1 s1"))
    coords = wheels_reduce(zed_knot(g, 4))
    a, w2 = ("a",), (("w", 2),)
    assert coords[0] == {(): rat(1)}
    assert coords[1] == {(a * 1): rat(3)}
    assert coords[2] == {("a", "a"): rat(Fraction(9, 2)), (("w", 2),): rat(1)}
    assert coords[4][(("w", 4),)] == rat(Fraction(-5, 12))


def test_alexander_bridge_trefoil():
    g = braid_closure(word(2, "s1 s1 s1"))
    assert wheels_reduce(zed_knot(g, 4)) == predicted_from_alexander(g, 4)


def test_alexander_bridge_figure_eight():
    g = braid_closure(word(3, "s1 S2 s1 S2"))
    assert wheels_reduce(zed_knot(g, 4)) == predicted_from_alexander(g, 4)


def test_expansion_exp_inverts_nothing_low_degree():
    e = TruncatedExpansion(LONG, 2)
    e.comps[1].add_term(((1, 2),), rat(1))
    z = expansion_exp(e)
    assert z.comps[0].terms == {(): rat(1)}
    assert z.comps[1].terms == {((1, 2),): rat(1)}
    assert z.comps[2].terms == {((1, 2), (3, 4)): rat(Fraction(1, 2))}


def bridge_knots():
    """The 14 bundled knots, the unknot, the four w-braid closures and 20
    seeded random long knots."""
    from wknots.checks import random_knot_diagram
    knots = [pd_to_gauss(pd) for pd in knot_inventory().values()]
    knots.append(GaussDiagram(()))
    knots += [braid_closure(braid_from_text(t)) for t in W_BRAIDS]
    rng = random.Random(33)
    knots += [random_knot_diagram(rng, length=rng.randrange(3, 9))
              for _ in range(20)]
    return knots


def test_prediction_without_flags_matches_zed():
    # without RI or FI the 1-wheel survives; Z carries it as −c_1
    for g in bridge_knots():
        for d in range(5):
            got = predicted_from_alexander(g, d, frozenset())
            want = wheels_reduce(zed_knot(g, d), frozenset())
            assert got == want
            assert [list(c) for c in got] == [list(c) for c in want]


def test_prediction_matches_arrow_side_oracle():
    # the wheel-algebra exponential equals the exponential taken among
    # arrow diagrams and reduced to wheel coordinates, key order included
    knots = bridge_knots()
    for flags in (frozenset({"RI"}), frozenset(), frozenset({"FI"})):
        for g in knots:
            for d in range(5):
                got = predicted_from_alexander(g, d, flags)
                want = arrow_side_prediction(g, d, flags)
                assert got == want
                assert [list(c) for c in got] == [list(c) for c in want]


def test_wheel_coordinates_are_rat():
    # the quotients are built in integer arithmetic; their coordinates are
    # handed back as Rat all the same
    for pd in knot_inventory().values():
        g = pd_to_gauss(pd)
        for coords in (wheels_reduce(zed_knot(g, 5)),
                       predicted_from_alexander(g, 5)):
            assert all(type(c) is Rat for comp in coords
                       for c in comp.values())


# --------------------------------------------------------------------------
# the integer kernels of zed_knot and zed_braid against the rational oracles
# --------------------------------------------------------------------------

def assert_same_terms(z, oracle, numerator=int):
    # the same values, exactly: the library's numerators over its den = d!
    # against the oracle's Rat terms over 1.  The key order may differ
    # where terms cancel, and neither ArrowVector.__eq__ nor project reads
    # it.  Z keeps int numerators; normalizing multiplies them by Rat terms
    assert (z.skeleton, z.d) == (oracle.skeleton, oracle.d)
    assert (z.den, oracle.den) == (factorial(z.d), 1)
    assert z.comps.keys() == oracle.comps.keys()
    for m, v in z.comps.items():
        assert values(z, m) == oracle.comps[m].terms
        assert all(type(c) is numerator for c in v.terms.values())


@st.composite
def gauss_diagrams(draw):
    """Up to five arrows on random slots with random signs; half of them
    get a parallel R2 pair of opposite signs, whose terms cancel."""
    k = draw(st.integers(0, 5))
    slots = draw(st.permutations(range(1, 2 * k + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
    g = GaussDiagram([(slots[2 * i], slots[2 * i + 1], s)
                      for i, s in enumerate(signs)])
    if k and draw(st.booleans()):
        gaps = draw(st.lists(st.integers(0, 2 * k), min_size=2, max_size=2,
                             unique=True))
        g = apply_move(g, "r2", *gaps, draw(st.sampled_from((1, -1))), False)
    return g


@settings(max_examples=80, deadline=None)
@given(gauss_diagrams(), st.integers(0, 6), st.booleans())
def test_zed_knot_matches_recursive_oracle(g, d, normalize):
    assert_same_terms(zed_knot(g, d, normalize),
                      zed_knot_recursive(g, d, normalize),
                      Rat if normalize else int)


@settings(max_examples=80, deadline=None)
@given(gauss_diagrams(), st.integers(0, 6))
def test_support_walk_matches_combinations(g, d):
    arrows = g.canonical()
    flat = {(order, neg): n
            for order, negs in _support_shapes(arrows, d).items()
            for neg, n in negs.items()}
    assert flat == support_shapes_by_combinations(arrows, d)


@settings(max_examples=60, deadline=None)
@given(gauss_diagrams(), st.integers(0, 6))
def test_support_terms_grouped_by_odd_mask(g, d):
    # each order of a random diagram's supports: one group per odd mask,
    # holding the flat layout's terms with that mask
    for order in _support_shapes(g.canonical(), d):
        groups = _support_terms(order, d)
        masks = [odd for odd, _ in groups]
        assert len(set(masks)) == len(masks)
        flat = [(m, diagram, num, odd) for odd, terms in groups
                for m, diagram, num in terms]
        assert sorted(flat) == sorted(support_terms_flat(order, d))


def signed_sums(g, d):
    """Σ_neg ±count for each (order, odd mask) that ``zed_knot`` meets."""
    return [sum(-n if (odd & neg).bit_count() & 1 else n
                for neg, n in negs.items())
            for order, negs in _support_shapes(g.canonical(), d).items()
            for odd, _ in _support_terms(order, d)]


@pytest.mark.parametrize("d", [7, 8])
def test_zed_knot_matches_recursive_oracle_at_high_degree(d):
    # three or four arrows of mixed signs and an opposite-sign R2 pair,
    # whose supports cancel: some signed sums are 0 and their terms skipped
    rng = random.Random(7000 + d)
    zero_sums = 0
    for _ in range(6):
        k = rng.randint(3, 4)
        slots = rng.sample(range(1, 2 * k + 1), 2 * k)
        signs = [1, -1] + [rng.choice((1, -1)) for _ in range(k - 2)]
        g = GaussDiagram([(slots[2 * i], slots[2 * i + 1], s)
                          for i, s in enumerate(signs)])
        gaps = rng.sample(range(2 * k + 1), 2)
        g = apply_move(g, "r2", *gaps, rng.choice((1, -1)), rng.random() < .5)
        z = zed_knot(g, d)
        assert_same_terms(z, zed_knot_recursive(g, d))
        assert all(c for comp in z.comps.values() for c in comp.terms.values())
        zero_sums += signed_sums(g, d).count(0)
    assert zero_sums


@settings(max_examples=40, deadline=None)
@given(gauss_diagrams(), st.integers(0, 6))
def test_zed_knot_same_with_cold_and_warm_shapes(g, d):
    # a cached support shape must come back unchanged after use
    _support_terms.cache_clear()
    cold = zed_knot(g, d)
    warm = zed_knot(g, d)
    assert warm.den == cold.den == factorial(d)
    for m in range(d + 1):
        assert warm.comps[m].terms == cold.comps[m].terms
        assert all(type(c) is int for c in warm.comps[m].terms.values())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 4), st.integers(0, 8),
       st.integers(0, 5))
def test_zed_braid_matches_rational_oracle(seed, n, length, d):
    from wknots.checks import random_braid
    b = random_braid(random.Random(seed), n, length)
    assert_same_terms(zed_braid(b, d), zed_braid_fractions(b, d))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 4), st.integers(0, 8),
       st.sampled_from((3, 4)))
def test_zed_braid_commutes_with_strand_deletion(seed, n, length, d):
    from wknots.checks import random_braid
    b = random_braid(random.Random(seed), n, length)
    z = zed_braid(b, d)
    for k in range(1, n + 1):
        got = zed_braid(braid_delete_strand(b, k), d)
        want = delete_strand_from_expansion(z, k)
        assert (got.skeleton, got.den) == (want.skeleton, want.den)
        assert [got.comps[m].terms for m in range(d + 1)] == \
            [want.comps[m].terms for m in range(d + 1)]


def test_zed_matches_oracles_on_bundled_knots():
    knots = [pd_to_gauss(pd) for pd in knot_inventory().values()]
    for text in W_BRAIDS:
        b = braid_from_text(text)
        assert_same_terms(zed_braid(b, 5), zed_braid_fractions(b, 5))
        knots.append(braid_closure(b))
    assert len(knots) == 18
    for g in knots:
        assert_same_terms(zed_knot(g, 5), zed_knot_recursive(g, 5))


# --------------------------------------------------------------------------
# Z on pure w-braids against the action on the free group
# --------------------------------------------------------------------------

@st.composite
def pure_w_braids(draw):
    """One to six letters, virtual ones included, on two to four strands,
    then the virtual letters that bring every strand back to its start."""
    n = draw(st.integers(2, 4))
    letters = draw(st.lists(st.one_of(
        st.builds(lambda i: (VIRT, i, 1), st.integers(1, n - 1)),
        st.tuples(st.just(SIGMA), st.integers(1, n - 1),
                  st.sampled_from((1, -1)))), min_size=1, max_size=6))
    pos = list(range(1, n + 1))
    for _, i, _ in letters:
        pos[i - 1], pos[i] = pos[i], pos[i - 1]
    for _ in range(n):  # bubble sort, by virtual letters
        for i in range(1, n):
            if pos[i - 1] > pos[i]:
                pos[i - 1], pos[i] = pos[i], pos[i - 1]
                letters.append((VIRT, i, 1))
    return BraidWord(n, tuple(letters))


def acts_as_braid_action(b, d, sign=1, first_letter_first=True):
    """Z(b) applied to each e^{X_j} is the Magnus expansion of x_j's image
    under ``braid_action``, through X-degree d + 1."""
    z, images = zed_braid(b, d), braid_action(b).images
    return all(expansion_on_exponential(z, j, sign, first_letter_first)
               == magnus_expansion(images[j - 1], d + 1)
               for j in range(1, b.n + 1))


@settings(max_examples=60, deadline=None)
@given(pure_w_braids(), st.sampled_from((3, 4)))
def test_zed_braid_matches_free_group_action(b, d):
    assert braid_skeleton(b) == tuple(range(1, b.n + 1))
    assert acts_as_braid_action(b, d)


def test_free_group_action_convention():
    # a letter (p, q) acts as X_q -> [X_q, X_p], the first letter of a
    # word first; on the full twist s1 s1 each of the other three
    # conventions disagrees with braid_action
    b = word(2, "s1 s1")
    assert acts_as_braid_action(b, 3)
    for sign, first in ((-1, True), (1, False), (-1, False)):
        assert not acts_as_braid_action(b, 3, sign, first)


# sha256 of the degree-5 projected Z ({TC,4T,RI}) and of its wheel
# coordinates on the 14 bundled knots and the 4 w-braid closures, values
# written with str so that the digest does not depend on the rational
# backend.  RREF is canonical, so any correct change keeps these digests.
PROJECTED_DIGEST = (
    "2c204e13ace6fcded36a806722b68040c6b35626e2845f84b2e539383bce69ff")
WHEELS_DIGEST = (
    "df50886c6100b6432100fe1801e6e5734c962688646ad8a164a69b1aa346db36")


def test_projected_z_digest():
    knots = [pd_to_gauss(pd) for pd in knot_inventory().values()]
    knots += [braid_closure(braid_from_text(t)) for t in W_BRAIDS]
    proj, wheels = hashlib.sha256(), hashlib.sha256()
    for g in knots:
        z = zed_knot(g, 5)
        proj.update(repr([[str(c) for c in comp] for comp in
                          project_expansion(z, {"RI"})]).encode())
        wheels.update(repr([[(mono, str(c)) for mono, c in comp.items()]
                            for comp in wheels_reduce(z)]).encode())
    assert proj.hexdigest() == PROJECTED_DIGEST
    assert wheels.hexdigest() == WHEELS_DIGEST
