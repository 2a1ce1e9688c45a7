import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from wknots.checks import _legal_moves, random_knot_diagram
from wknots.wbraid import FLIP, SIGMA, VIRT, BraidWord, word
from wknots.gauss import (GaussDiagram, gauss_to_text, gauss_from_text,
                          PDCode, pd_to_text, pd_from_text, pd_to_gauss,
                          gauss_to_pd, self_linking, braid_closure,
                          apply_move)
from wknots.alexander import alexander_fox, alexander_matrix

from oracles import R3_PATTERNS, braid_closure_two_pass, gauss_faces

TREFOIL_PD = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"


def test_gauss_text_round_trip():
    for d in (GaussDiagram(((1, 4, 1), (3, 6, 1), (5, 2, 1))),
              GaussDiagram(((1, 4, -1), (3, 6, 1), (5, 2, -1)))):
        assert gauss_from_text(gauss_to_text(d)) == d
    assert gauss_from_text("n=2\nt=1 h=3 s=-\nt=4 h=2 s=+\n").arrows == (
        (1, 3, -1), (4, 2, 1))


def test_pd_text_stray_commas():
    # a comma standing alone is skipped, not read as a crossing token
    pd = pd_from_text("X[1,4,2,5] , X[3,6,4,1] X[5,2,6,3] ,")
    assert pd.crossings == pd_from_text(TREFOIL_PD).crossings
    with pytest.raises(ValueError, match="under-strand"):
        pd_from_text("X[1,2,3,4] ,")


def test_pd_text_round_trip():
    pd = pd_from_text(TREFOIL_PD)
    assert pd_from_text(pd_to_text(pd)).crossings == pd.crossings


def test_pd_gauss_round_trip_trefoil():
    pd = pd_from_text(TREFOIL_PD)
    g = pd_to_gauss(pd)
    assert g.k == 3
    assert all(s == -1 for _, _, s in g.arrows)
    back = gauss_to_pd(g)
    assert pd_to_gauss(back) == g


def test_pd_gauss_round_trip_random_closures():
    rng = random.Random(21)
    from wknots.checks import random_knot_diagram
    for _ in range(40):
        g = random_knot_diagram(rng, length=rng.randrange(2, 7))
        if g.k == 1:
            # the one-crossing code does not say which way the over-strand runs
            with pytest.raises(ValueError, match="ambiguous"):
                gauss_to_pd(g)
            continue
        if g.k and gauss_faces(g) != g.k + 2:
            # a virtual closure whose curve is not planar has no PD code
            with pytest.raises(ValueError, match="not planar"):
                gauss_to_pd(g)
            continue
        assert pd_to_gauss(gauss_to_pd(g)) == g


def test_self_linking():
    assert self_linking(GaussDiagram(())) == 0
    assert self_linking(pd_to_gauss(pd_from_text(TREFOIL_PD))) == -3
    assert self_linking(GaussDiagram(((1, 2, 1), (4, 3, 1)))) == 2


def test_braid_closure_trefoil():
    g = braid_closure(word(2, "s1 s1 s1"))
    from wknots.rings import laurent_normalize
    _, poly = alexander_matrix(g, d=2)
    assert poly == alexander_fox(pd_from_text(TREFOIL_PD))


def test_braid_closure_rejects_links():
    with pytest.raises(ValueError):
        braid_closure(word(2, "s1 s1"))  # Hopf link, two components


def random_extended_word(rng):
    """Up to twelve letters on one to five strands: crossings of either
    sign, virtual crossings and ring flips."""
    n, letters = rng.randint(1, 5), []
    for _ in range(rng.randint(0, 12)):
        kind = rng.choice((SIGMA, VIRT, FLIP) if n > 1 else (FLIP,))
        i = rng.randint(1, n if kind == FLIP else n - 1)
        letters.append((kind, i, rng.choice((1, -1)) if kind == SIGMA else 1))
    return BraidWord(n, tuple(letters), extended=True)


def test_braid_closure_matches_two_pass_oracle():
    rng, knots = random.Random(41), 0
    for _ in range(2000):
        b = random_extended_word(rng)
        try:
            want = braid_closure_two_pass(b)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                braid_closure(b)
            assert str(got.value) == str(e) == \
                "braid closure is a link, not a knot"
        else:
            assert braid_closure(b) == want, b
            knots += 1
    assert 500 < knots < 1500


def test_r2_insert_delete_round_trip():
    rng = random.Random(22)
    for _ in range(40):
        g = braid_closure(word(2, "s1 s1 s1"))
        gt = rng.randrange(0, 2 * g.k + 1)
        go = rng.randrange(0, 2 * g.k + 1)
        if gt == go:
            continue
        g2 = apply_move(g, "r2", gt, go, rng.choice((1, -1)),
                        rng.random() < 0.5)
        assert g2.k == g.k + 2
        # the inserted tails are adjacent somewhere; find and delete them
        restored = None
        for i in range(1, 2 * g2.k):
            try:
                cand = apply_move(g2, "r2del", i)
            except ValueError:
                continue
            if cand == g:
                restored = cand
                break
        assert restored == g


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("nested", [False, True])
def test_r2_at_the_end_gaps(sign, nested):
    # a pair inserted before the first slot (gap 0) and after the last
    # (gap 2k), either way round, then deleted again
    g = braid_closure(word(2, "s1 s1 s1"))
    top = 2 * g.k
    shifted = [(t + 2, h + 2, s) for t, h, s in g.arrows]
    for gt, go, i, (h1, h2) in ((0, top, 1, (top + 3, top + 4)),
                                (top, 0, top + 3, (1, 2))):
        if nested:
            h1, h2 = h2, h1
        g2 = apply_move(g, "r2", gt, go, sign, nested)
        assert g2 == GaussDiagram(shifted + [(i, h1, sign),
                                             (i + 1, h2, -sign)])
        assert apply_move(g2, "r2del", i) == g


def test_r2_refuses_a_gap_out_of_range():
    g = braid_closure(word(2, "s1 s1 s1"))
    top = 2 * g.k
    for gt, go in ((-1, 2), (2, -1), (top + 1, 0), (0, top + 1)):
        with pytest.raises(ValueError, match="gap out of range"):
            apply_move(g, "r2", gt, go, 1, False)


def test_oc_swaps_adjacent_tails():
    g = GaussDiagram(((1, 3, 1), (2, 4, -1)))
    g2 = apply_move(g, "oc", 1)
    assert g2 == GaussDiagram(((2, 3, 1), (1, 4, -1)))
    with pytest.raises(ValueError):
        apply_move(g, "oc", 3)  # slots 3,4 are a head and a tail


def test_r1s_flips_isolated_arrow():
    g = GaussDiagram(((1, 2, 1), (3, 6, 1), (4, 5, -1)))
    g2 = apply_move(g, "r1s", 1)
    assert (2, 1, 1) in g2.arrows
    with pytest.raises(ValueError):
        apply_move(g, "r1s", 2)


def test_virtual_moves_are_rejected():
    # virtual and mixed moves do not change a Gauss diagram: no such move
    g = GaussDiagram(((1, 3, 1), (2, 4, -1)))
    for mv in ("vr1", "vr2", "vr3", "m"):
        with pytest.raises(ValueError, match="unknown move"):
            apply_move(g, mv)


def three_arrow_configurations():
    """All 960 diagrams of three signed arrows on the slot pairs (1,2),
    (3,4), (5,6), each with its pattern of (tail pair, tail offset, head
    pair, head offset, sign) arrows."""
    def matchings(slots):
        if not slots:
            yield []
        for i in range(1, len(slots)):
            for rest in matchings(slots[1:i] + slots[i + 1:]):
                yield [(slots[0], slots[i])] + rest
    for pairs in matchings([(p, o) for p in range(3) for o in range(2)]):
        for ends in product(*[(e, e[::-1]) for e in pairs]):
            for signs in product((1, -1), repeat=3):
                pattern = tuple(sorted(t + h + (s,) for (t, h), s
                                       in zip(ends, signs)))
                yield pattern, GaussDiagram(
                    (2 * pt + ot + 1, 2 * ph + oh + 1, s)
                    for pt, ot, ph, oh, s in pattern)


def test_slide_rule_accepts_exactly_the_table():
    accepted = set()
    configurations = list(three_arrow_configurations())
    assert len({pattern for pattern, _ in configurations}) == 960
    for pattern, g in configurations:
        try:
            moved = apply_move(g, "r3", 5, 1, 3)
        except ValueError:
            continue
        accepted.add(pattern)
        # the move flips every offset, and the flipped triangle slides back
        assert moved == GaussDiagram(
            (2 * pt + (1 - ot) + 1, 2 * ph + (1 - oh) + 1, s)
            for pt, ot, ph, oh, s in pattern)
        assert apply_move(moved, "r3", 1, 3, 5) == g
    assert accepted == R3_PATTERNS


def test_r3_legal_instance_from_braid():
    # closures of the two sides of the braid relation differ by one slide
    a = braid_closure(word(3, "s1 s2 s1 s2"))
    found = []
    slots = range(1, 2 * a.k)
    for i in slots:
        for j in slots:
            for l in slots:
                if len({i, i + 1, j, j + 1, l, l + 1}) != 6:
                    continue
                try:
                    found.append(apply_move(a, "r3", i, j, l))
                except ValueError:
                    pass
    assert found  # the triangle in the trefoil closure is slidable
    from wknots.rings import laurent_normalize
    for g2 in found:
        assert alexander_matrix(g2, d=2)[1] == alexander_matrix(a, d=2)[1]


def test_r3_rejects_incoherent_triples():
    # three arrows pairwise crossing but with all heads clustered cannot
    # form the slide-move triangle
    g = GaussDiagram(((1, 5, 1), (3, 7, 1), (2, 8, 1), (4, 6, 1)))
    with pytest.raises(ValueError):
        apply_move(g, "r3", 1, 3, 5)


def test_r2del_ignores_the_order_of_arrows():
    # one diagram listed in two orders: both give up the same R2 pair
    a = GaussDiagram([(1, 3, 1), (2, 4, -1)])
    b = GaussDiagram([(2, 4, -1), (1, 3, 1)])
    assert a == b and a.arrows == b.arrows
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert apply_move(a, "r2del", 1) == apply_move(b, "r2del", 1) == \
        GaussDiagram([])


def _outcome(g, mv):
    try:
        return apply_move(g, mv[0], *mv[1:])
    except ValueError as e:
        return str(e)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.data())
def test_moves_do_not_depend_on_arrow_order(seed, data):
    rng = random.Random(seed)
    g = random_knot_diagram(rng, length=rng.randrange(2, 7))
    shuffled = GaussDiagram(data.draw(st.permutations(g.arrows)))
    moves = _legal_moves(g)
    assert _legal_moves(shuffled) == moves
    singles = [(name, i) for name in ("r1s", "r2del", "oc")
               for i in range(1, 2 * g.k)]
    for mv in moves + singles:
        assert _outcome(shuffled, mv) == _outcome(g, mv)
    # an R2 pair: tails at i, i+1, adjacent heads, opposite signs
    pairs = {t1 for t1, h1, s1 in g.arrows for t2, h2, s2 in g.arrows
             if t2 == t1 + 1 and abs(h1 - h2) == 1 and s1 == -s2}
    assert {mv[1] for mv in moves if mv[0] == "r2del"} == pairs
