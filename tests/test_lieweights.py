import functools
import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from wknots.rational import Rat
from wknots.alexander import alexander_det, knot_inventory
from wknots.arrows import (LONG, strands, ArrowVector, canonical_long,
                           enumerate_diagrams, generate_relations)
from wknots.expansion import zed_knot
from wknots.gauss import braid_closure, pd_to_gauss
from wknots.jacobi import concat, wheel_to_arrows
from wknots.lieweights import (LieData, lie_validate,
                               lie_abelian, lie_nonabelian2, lie_sl2,
                               pbw_mul, weight_system)
from wknots.rings import LaurentPoly, laurent_at_exp
from wknots.wbraid import braid_from_text

from oracles import (add_terms, index_vector_weight_system, series_mul,
                     stack_pbw_mul, stack_pbw_normalize)
from test_expansion import W_BRAIDS


def test_fixtures_validate():
    for L in (lie_abelian(1), lie_abelian(3), lie_nonabelian2(), lie_sl2()):
        assert lie_validate(L)


def test_lie_data_from_constants():
    # sl2 on (h, e, f), with zero constants that the constructor drops
    L = LieData(3, {(1, 2): {2: 2}, (2, 1): {2: -2}, (1, 3): {3: -2, 1: 0},
                    (3, 1): {3: 2}, (2, 3): {1: 1}, (3, 2): {1: -1},
                    (1, 1): {2: 0}})
    assert L.r == 3
    assert L.bracket(1, 2) == {2: Rat(2)}
    assert L.bracket(1, 3) == {3: Rat(-2)}
    assert L.bracket(2, 3) == {1: Rat(1)}
    assert L.bracket(1, 1) == {} and L.c == lie_sl2().c
    assert lie_validate(L)


def test_invalid_constants_rejected():
    # missing antisymmetric partner
    L = LieData(2, {(1, 2): {2: 1}})
    assert not lie_validate(L)
    # a nonzero [x_j, x_j]
    L = LieData(2, {(2, 2): {1: 1}})
    assert not lie_validate(L)
    # Jacobi violation
    L = LieData(3, {(1, 2): {3: 1}, (2, 1): {3: -1},
                    (2, 3): {2: 1}, (3, 2): {2: -1},
                    (1, 3): {1: 1}, (3, 1): {1: -1}})
    assert not lie_validate(L)


def test_out_of_range_index_rejected():
    with pytest.raises(ValueError, match="index 3 outside 1..2"):
        LieData(2, {(1, 3): {1: 1}, (3, 1): {1: -1}})
    for c in ({(0, 1): {1: 1}}, {(1, 2): {5: 1}}):
        with pytest.raises(ValueError, match="outside 1..2"):
            LieData(2, c)
    with pytest.raises(ValueError, match="negative"):
        LieData(-2, {})


def test_pbw_straightening_sl2():
    L = lie_sl2()
    # x2 x1 = x1 x2 - [x1, x2] = x1 x2 - 2 x2
    out = pbw_mul({(): 1}, {(("x", 2), ("x", 1)): Rat(1)}, L)
    assert out == {(("x", 1), ("x", 2)): Rat(1), (("x", 2),): Rat(-2)}


def test_integral_straightening_stays_int():
    # int constants and int inputs: no coefficient becomes a Rat, and the
    # terms that cancel are dropped
    L = lie_sl2()
    x1, x2, x3 = (("x", i) for i in (1, 2, 3))
    out = pbw_mul({(): 1}, {(x3, x2): 1, (x2, x3): -1, (x1,): 3}, L)
    assert out == {(x1,): 2}
    assert all(type(c) is int for c in out.values())
    out = pbw_mul(out, {(x3, x2, x1): 3}, L)
    assert out and all(type(c) is int for c in out.values())
    assert pbw_mul({(): 1}, {(x2, x1): 1, (x1, x2): -1, (x2,): 2}, L) == {}


def test_pbw_straightening_semidirect():
    L = lie_nonabelian2()  # [x1, x2] = x2
    # x1 phi^2 = phi^2 x1 + [x1, phi^2] = phi^2 x1 - phi^2
    out = pbw_mul({(): 1}, {(("x", 1), ("p", 2)): Rat(1)}, L)
    assert out == {(("p", 2), ("x", 1)): Rat(1), (("p", 2),): Rat(-1)}
    # duals commute with each other
    out = pbw_mul({(): 1}, {(("p", 2), ("p", 1)): Rat(1)}, L)
    assert out == {(("p", 1), ("p", 2)): Rat(1)}


def test_single_arrow_image():
    L = lie_abelian(2)
    v = ArrowVector(LONG, 1, {canonical_long(((1, 2),)): Rat(1)})
    out = weight_system(v, L)
    assert out == {(("p", 1), ("x", 1)): Rat(1), (("p", 2), ("x", 2)): Rat(1)}


def test_reversed_arrow_needs_straightening():
    L = lie_nonabelian2()
    v = ArrowVector(LONG, 1, {canonical_long(((2, 1),)): Rat(1)})
    out = weight_system(v, L)
    # x_i phi^i summed over i: straightening adds the coadjoint correction
    assert out[(("p", 1), ("x", 1))] == Rat(1)
    assert out[(("p", 2), ("x", 2))] == Rat(1)
    assert out.get((("p", 2),)) or out.get((("p", 1),))


def test_relators_vanish_all_fixtures():
    fixtures = ((lie_abelian(2), 3), (lie_nonabelian2(), 3), (lie_sl2(), 2))
    for L, mmax in fixtures:
        for skel in (LONG, strands(3)):
            for m in range(1, mmax + 1):
                for vec in generate_relations(skel, m, {"TC", "4T"}):
                    assert weight_system(vec, L) == {}


def test_weight_system_multiplicative():
    rng = random.Random(41)
    for L in (lie_nonabelian2(), lie_sl2()):
        for _ in range(8):
            def rnd(m):
                slots = list(range(1, 2 * m + 1))
                rng.shuffle(slots)
                return canonical_long(tuple(
                    (slots[2 * i], slots[2 * i + 1]) for i in range(m)))
            mu, mv = rng.randrange(1, 3), rng.randrange(1, 3)
            u = ArrowVector(LONG, mu, {rnd(mu): Rat(1)})
            v = ArrowVector(LONG, mv, {rnd(mv): Rat(1)})
            lhs = weight_system(concat(u, v), L)
            rhs = pbw_mul(weight_system(u, L), weight_system(v, L), L)
            assert lhs == rhs


def test_relators_sharing_diagrams_match_oracle():
    # the relators of one space reuse their diagrams, so most diagram
    # weights come from the memo; the same diagrams with other
    # coefficients give nonzero images
    rng = random.Random(5)
    for L in (lie_nonabelian2(), HALF):
        for skel, m in ((LONG, 3), (strands(3), 2)):
            for vec in generate_relations(skel, m, {"TC", "4T"})[::7]:
                other = ArrowVector(skel, m, {
                    d: Rat(rng.randint(-3, 3), rng.randint(1, 4))
                    for d in vec.terms})
                for v in (vec, other):
                    assert_same(weight_system(v, L),
                                index_vector_weight_system(v, L))
        assert L._weights.cache_info().hits


def test_one_word_on_three_skeletons():
    # ((1, 2),) is an arrow on the long strand, and from strand 1 to
    # strand 2 on strands(2) and strands(3): three weights, whichever
    # skeleton comes first
    skeletons = (LONG, strands(2), strands(3))
    for order in permutations(skeletons):
        L = lie_nonabelian2()
        for skel in order:
            v = ArrowVector(skel, 1, {((1, 2),): Rat(1)})
            assert_same(weight_system(v, L),
                        index_vector_weight_system(v, L))
        assert L._weights.cache_info().currsize == 3


def test_algebras_keep_their_own_weights():
    v = ArrowVector(LONG, 1, {canonical_long(((2, 1),)): Rat(1)})
    algebras = (lie_abelian(2), lie_nonabelian2(), lie_nonabelian2())
    images = [weight_system(v, L) for L in algebras]
    assert images[0] != images[1] == images[2]
    for L, image in zip(algebras, images):
        assert L._weights.cache_info().misses == 1
        assert_same(image, index_vector_weight_system(v, L))


def test_weight_memo_is_bounded():
    L = lie_abelian(1)
    bound = L._weights.cache_info().maxsize
    many = diagrams(LONG, 5)[:bound + 100]
    v = ArrowVector(LONG, 5, {d: Rat(1) for d in many})
    assert weight_system(v, L) == {
        (("p", 1),) * 5 + (("x", 1),) * 5: Rat(len(many))}
    info = L._weights.cache_info()
    assert info.misses == len(many) and info.currsize == bound


def test_invalid_algebra_rejected_by_weight_system():
    bad = LieData(2, {(1, 2): {2: 1}})
    v = ArrowVector(LONG, 1, {canonical_long(((1, 2),)): Rat(1)})
    with pytest.raises(ValueError):
        weight_system(v, bad)


# --------------------------------------------------------------------------
# the straightening against the rewrite-stack and index-vector oracles
# --------------------------------------------------------------------------

# Non-integral structure constants: [x1, x2] = ½·x2, and sl2 on the basis
# (h/3, e, f), which mixes integral and non-integral constants.
HALF = LieData(2, {(1, 2): {2: Rat(1, 2)}, (2, 1): {2: Rat(-1, 2)}})
SL2_THIRD = LieData(3, {(1, 2): {2: Rat(2, 3)}, (2, 1): {2: Rat(-2, 3)},
                        (1, 3): {3: Rat(-2, 3)}, (3, 1): {3: Rat(2, 3)},
                        (2, 3): {1: 3}, (3, 2): {1: -3}})
FIXTURES = (lie_abelian(2), lie_nonabelian2(), lie_sl2(), HALF, SL2_THIRD)
coeffs = st.builds(Rat, st.integers(-3, 3), st.integers(1, 4))


@functools.cache
def diagrams(skeleton, m):
    return enumerate_diagrams(skeleton, m)


@st.composite
def arrow_vectors(draw, skeletons=(LONG, strands(2), strands(3))):
    skel = draw(st.sampled_from(skeletons))
    m = draw(st.integers(0, 3))
    terms = draw(st.lists(st.tuples(st.sampled_from(diagrams(skel, m)),
                                    coeffs), min_size=1, max_size=4))
    return ArrowVector(skel, m, add_terms({}, terms))


@st.composite
def words(draw, r):
    gens = st.tuples(st.sampled_from("px"), st.integers(1, r))
    return {tuple(w): c for w, c in draw(st.lists(
        st.tuples(st.lists(gens, max_size=5), coeffs), max_size=4))}


def assert_same(a, b):
    assert a == b
    assert all(type(c) is Rat for t in (a, b) for c in t.values())


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FIXTURES), arrow_vectors())
def test_weight_system_matches_oracle(L, v):
    assert_same(weight_system(v, L), index_vector_weight_system(v, L))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FIXTURES), st.data())
def test_pbw_mul_matches_oracle(L, data):
    u = data.draw(words(L.r))
    v = data.draw(words(L.r))
    nu = pbw_mul({(): 1}, u, L)
    assert_same(nu, stack_pbw_normalize(u, L))
    assert_same(pbw_mul(nu, v, L), stack_pbw_mul(nu, v, L))
    a, b = (data.draw(arrow_vectors(skeletons=(LONG,))) for _ in range(2))
    wa, wb = weight_system(a, L), weight_system(b, L)
    assert_same(pbw_mul(wa, wb, L), stack_pbw_mul(wa, wb, L))


def test_non_integral_wheel_images():
    # HALF is lie_nonabelian2 on the basis (x1/2, x2), whose first dual
    # vector is 2φ^1: the k-wheel maps to (φ^1)^k/2 and −(φ^1)^k/2^k
    for k in range(1, 5):
        want = Rat(1, 2) if k == 1 else Rat(-1, 2 ** k)
        assert_same(weight_system(wheel_to_arrows(k), HALF),
                    {phi1(k): want})


# --------------------------------------------------------------------------
# the 2-dimensional algebra [x1, x2] = x2 sees the Alexander polynomial
# --------------------------------------------------------------------------

def phi1(k):
    return (("p", 1),) * k


def test_wheels_in_2d_algebra():
    L = lie_nonabelian2()
    assert weight_system(wheel_to_arrows(1), L) == {phi1(1): Rat(1)}
    for k in range(2, 6):
        assert weight_system(wheel_to_arrows(k), L) == {phi1(k): Rat(-1)}


def test_2d_weight_of_z_is_inverse_alexander():
    # the φ¹-only part of W(Z), graded by length, is 1/D(e^−φ), with D the
    # determinant before unit normalization (1/D(e^φ) fails already on 3_1)
    L = lie_nonabelian2()
    knots = [pd_to_gauss(pd) for pd in knot_inventory().values()]
    knots += [braid_closure(braid_from_text(t)) for t in W_BRAIDS]
    assert len(knots) == 18
    for g in knots:
        z = zed_knot(g, 4, normalize=True)
        series = [0] * 5
        for m in range(5):
            comp = ArrowVector(LONG, m, {w: Rat(c, z.den)
                                         for w, c in z.comps[m].terms.items()})
            for mono, c in weight_system(comp, L).items():
                if mono == phi1(len(mono)):
                    series[len(mono)] += c
        D = alexander_det(g)
        reflected = LaurentPoly({-e: c for e, c in D.coeffs.items()})
        assert series_mul(series, laurent_at_exp(reflected, 4).coeffs) == [
            1, 0, 0, 0, 0]
