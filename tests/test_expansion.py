import hashlib
import random

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wknots.rational import Rat, rat
from wknots.wbraid import word, braid_from_text, relation_table
from wknots.gauss import GaussDiagram, braid_closure, apply_move, pd_to_gauss
from wknots.alexander import knot_inventory
from wknots.arrows import LONG
from wknots.expansion import (TruncatedExpansion, expansion_exp, zed_braid,
                              zed_knot, project_expansion, wheels_reduce,
                              predicted_from_alexander, _support_terms)

from oracles import (arrow_side_prediction, zed_braid_fractions,
                     zed_knot_recursive)

# w-braids whose closures have non-palindromic Alexander polynomials
W_BRAIDS = (
    "n=4\nS3 v2 S2 s1 s2",
    "n=3\nv2 v1 S1 s2 s1 s1 S1 v1 S1 s2",
    "n=4\ns3 v3 v2 v2 s1 v2 S3 s1 v2 v3 s2 v1 s2 s2 S1",
    "n=3\ns1 S2 S2 v1 v2 s1 S1 S1 s2 v2 S1 S1",
)


def test_crossing_is_exponential():
    z = zed_braid(word(2, "s1"), 3)
    # degree k coefficient of the single letter a_(1,2) is 1/k!
    letter = (1, 2)
    for k in range(4):
        assert z.comps[k].terms.get((letter,) * k) == rat(Fraction(
            1, [1, 1, 2, 6][k]))


def test_inverse_crossing_signs():
    z = zed_braid(word(2, "S1"), 2)
    # the inverse crossing has strand 2 passing over strand 1
    assert z.comps[1].terms[((2, 1),)] == -1
    assert z.comps[2].terms[((2, 1), (2, 1))] == rat(Fraction(1, 2))


def test_zed_braid_multiplicative():
    rng = random.Random(31)
    from wknots.checks import random_braid
    for _ in range(10):
        a = random_braid(rng, 3, 3)
        b = random_braid(rng, 3, 3)
        from wknots.wbraid import braid_skeleton
        za = zed_braid(a, 3)
        zb = zed_braid(b, 3, start=braid_skeleton(a))
        assert (za * zb).comps == zed_braid(a * b, 3).comps


def test_zed_braid_respects_relations_small():
    for name, lhs, rhs in relation_table(3):
        zl = project_expansion(zed_braid(lhs, 3))
        zr = project_expansion(zed_braid(rhs, 3))
        assert zl == zr, name


def test_zed_braid_rejects_flips():
    with pytest.raises(ValueError):
        zed_braid(word(2, "f1", extended=True), 2)


def test_zed_knot_unknot():
    z = zed_knot(GaussDiagram(()), 3)
    assert z.comps[0].terms == {(): rat(1)}
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

def assert_same_terms(z, oracle):
    # equal terms with Rat values; the key order may differ where terms
    # cancel, and neither ArrowVector.__eq__ nor project reads it
    assert (z.skeleton, z.d) == (oracle.skeleton, oracle.d)
    assert z.comps.keys() == oracle.comps.keys()
    for m, v in z.comps.items():
        assert v.terms == oracle.comps[m].terms
        assert all(type(c) is Rat for c in v.terms.values())


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
                      zed_knot_recursive(g, d, normalize))


@settings(max_examples=40, deadline=None)
@given(gauss_diagrams(), st.integers(0, 6))
def test_zed_knot_same_with_cold_and_warm_shapes(g, d):
    # a cached support shape must come back unchanged after use
    _support_terms.cache_clear()
    cold = zed_knot(g, d)
    assert_same_terms(zed_knot(g, d), cold)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 4), st.integers(0, 8),
       st.integers(0, 5))
def test_zed_braid_matches_rational_oracle(seed, n, length, d):
    from wknots.checks import random_braid
    b = random_braid(random.Random(seed), n, length)
    assert_same_terms(zed_braid(b, d), zed_braid_fractions(b, d))


def test_zed_matches_oracles_on_bundled_knots():
    knots = [pd_to_gauss(pd) for pd in knot_inventory().values()]
    for text in W_BRAIDS:
        b = braid_from_text(text)
        assert_same_terms(zed_braid(b, 5), zed_braid_fractions(b, 5))
        knots.append(braid_closure(b))
    assert len(knots) == 18
    for g in knots:
        assert_same_terms(zed_knot(g, 5), zed_knot_recursive(g, 5))


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
