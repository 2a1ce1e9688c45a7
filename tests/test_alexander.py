import random

import pytest

from oracles import (braid_action_alexander, gauss_faces,
                     wirtinger_by_union_find)
from test_determinants import random_closure, random_knot_braid
from wknots.cli import main
from wknots.rings import LaurentPoly, laurent_normalize
from wknots.gauss import (GaussDiagram, pd_from_text, pd_to_gauss,
                          braid_closure, gauss_to_pd)
from wknots.wbraid import word
from wknots.alexander import (_wirtinger, alexander_det, alexander_matrix,
                              alexander_fox, knot_inventory)

# classical knot table, frozen from two independent evaluations
TABLE = {
    "3_1": {0: 1, 1: -1, 2: 1},
    "4_1": {0: 1, 1: -3, 2: 1},
    "5_1": {0: 1, 1: -1, 2: 1, 3: -1, 4: 1},
    "5_2": {0: 2, 1: -3, 2: 2},
    "6_1": {0: 2, 1: -5, 2: 2},
    "6_2": {0: 1, 1: -3, 2: 3, 3: -3, 4: 1},
    "6_3": {0: 1, 1: -3, 2: 5, 3: -3, 4: 1},
    "7_1": {0: 1, 1: -1, 2: 1, 3: -1, 4: 1, 5: -1, 6: 1},
    "7_2": {0: 3, 1: -5, 2: 3},
    "7_3": {0: 2, 1: -3, 2: 3, 3: -3, 4: 2},
    "7_4": {0: 4, 1: -7, 2: 4},
    "7_5": {0: 2, 1: -4, 2: 5, 3: -4, 4: 2},
    "7_6": {0: 1, 1: -5, 2: 7, 3: -5, 4: 1},
    "7_7": {0: 1, 1: -5, 2: 9, 3: -5, 4: 1},
}


def test_inventory_covers_table():
    assert set(knot_inventory()) == set(TABLE)


@pytest.mark.parametrize("name", sorted(TABLE))
def test_fox_matches_table(name):
    pd = knot_inventory()[name]
    assert alexander_fox(pd) == LaurentPoly(TABLE[name])


@pytest.mark.parametrize("name", sorted(TABLE))
def test_matrix_matches_fox(name):
    pd = knot_inventory()[name]
    _, poly = alexander_matrix(pd_to_gauss(pd), d=2)
    assert poly == alexander_fox(pd)


@pytest.mark.parametrize("name", sorted(TABLE))
def test_knot_group_properties(name):
    p = alexander_fox(knot_inventory()[name])
    assert abs(p(1)) == 1
    assert p.is_palindromic()


def test_unknot():
    _, poly = alexander_matrix(GaussDiagram(()), d=2)
    assert poly == LaurentPoly({0: 1})


def test_series_form_matches_polynomial():
    # A(e^x) recomputed by substituting into the normalized-at-1 raw
    # determinant: compare low-order coefficients with direct expansion
    g = braid_closure(word(2, "s1 s1 s1"))
    series, poly = alexander_matrix(g, d=4)
    assert series[0] == 1
    # the raw determinant satisfies A(1) = 1, so the constant term is 1
    # and the polynomial evaluated at e^x reproduces the series up to a
    # unit e^{kx}; check the Laurent polynomial itself instead
    assert poly == LaurentPoly(TABLE["3_1"])


def test_connected_sum_multiplies():
    tre = pd_to_gauss(knot_inventory()["3_1"])
    k = tre.k
    shifted = tuple((t + 2 * k, h + 2 * k, s) for t, h, s in tre.arrows)
    both = GaussDiagram(tre.arrows + shifted)
    _, poly = alexander_matrix(both, d=2)
    single = alexander_fox(knot_inventory()["3_1"])
    assert poly == laurent_normalize(single * single)


# none of these codes is one knot: the Hopf link, whose edges 1 and 3 each
# enter two passages, the trefoil with the under-strand of its first
# crossing reversed, a code whose arrow endpoints cover 1..6 once each
# though its under-strands run from edge 3 to edge 6, and a lone crossing,
# whose over-strand could run either way
NON_KNOTS = (
    ("X[1,3,2,4] X[3,1,4,2]", "do not join the edges into one knot"),
    ("X[2,5,1,4] X[3,1,4,6] X[5,3,6,2]",
     "the under-strand must run from edge 2 to edge 3"),
    ("X[3,6,6,1] X[4,1,4,2] X[5,2,5,3]",
     "the under-strand must run from edge 3 to edge 4"),
    ("X[1,2,2,1]", "one-crossing code is ambiguous"),
    # one knot, but 2 faces where a planar diagram has 4: Fox read 1 here
    ("X[3,2,4,1] X[2,4,3,1]", "the crossings are not planar"),
)


def test_fox_rejects_non_knot(capsys, tmp_path):
    # refused where the code is read, so under every method and by zed
    path = tmp_path / "bad.pd"
    for code, message in NON_KNOTS:
        with pytest.raises(ValueError, match=message):
            pd_from_text(code)
        path.write_text(code + "\n")
        for command in (["alexander", str(path), "--method", "matrix"],
                        ["alexander", str(path), "--method", "fox"],
                        ["alexander", str(path), "--method", "both"],
                        ["zed", str(path), "--degree", "3"]):
            assert main(command) == 2, command
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") \
                and message in err, command


def test_wirtinger_arcs_match_union_find():
    # the bundled knots, then 300 classical closures of 2..40 crossings
    cases = list(knot_inventory().items())
    rng = random.Random(30)
    for i in range(300):
        g = random_closure(rng, 2 + i % 39, 0)
        cases.append(("closure %d" % i, gauss_to_pd(g)))
    for name, pd in cases:
        assert _wirtinger(pd) == wirtinger_by_union_find(pd), name


def test_braid_action_jacobian_matches_closure_determinant():
    # 200 closures of 1..20 crossings with 30 % virtual letters: the Fox
    # Jacobian of the action, less I, row of position 1 and column 1
    # deleted, is the Gauss determinant up to a unit +-X^k
    rng = random.Random(32)
    for i in range(200):
        b, g = random_knot_braid(rng, 1 + i % 20, 0.3)
        assert laurent_normalize(braid_action_alexander(b)) == \
            laurent_normalize(alexander_det(g)), b.to_text()


@pytest.mark.parametrize("name", sorted(TABLE))
def test_label_shuffles_agree_or_are_refused(name):
    # a code relabelled by a random permutation of its edges, its
    # crossings in random order: one that ``PDCode`` accepts is the same
    # knot, and both methods give the knot's polynomial
    crossings = knot_inventory()[name].crossings
    m, rng, accepted = 2 * len(crossings), random.Random(31), 0
    for _ in range(3000):
        labels = rng.sample(range(1, m + 1), m)
        code = " ".join("X[%d,%d,%d,%d]" % tuple(labels[x - 1] for x in c)
                        for c in rng.sample(crossings, len(crossings)))
        try:
            pd = pd_from_text(code)
        except ValueError:
            continue
        accepted += 1
        _, poly = alexander_matrix(pd_to_gauss(pd), d=2)
        assert alexander_fox(pd) == poly == LaurentPoly(TABLE[name]), code
    if name == "3_1":
        # the 6 rotations of the edge order are 6 of 720 relabellings
        assert accepted > 0


def accepted_codes(seed, sizes):
    """300 seeded closures, half of them with virtual letters, each with
    its PD code, or None where ``PDCode`` refuses it: exactly the closures
    whose curve is not planar by ``gauss_faces``, none of them classical."""
    rng = random.Random(seed)
    out = []
    for i in range(300):
        g = random_closure(rng, 2 + i % sizes, 0.3 if i % 2 else 0)
        if gauss_faces(g) == g.k + 2:
            out.append((g, gauss_to_pd(g)))
        else:
            assert i % 2, g
            with pytest.raises(ValueError, match="not planar"):
                gauss_to_pd(g)
            out.append((g, None))
    return out


def test_fox_at_one_on_closures():
    # A(1) = ±1 on every code PDCode accepts: the argument that lets
    # alexander_fox check nothing, on closures of 2..40 crossings
    for g, pd in accepted_codes(31, 39):
        if pd is not None:
            assert abs(alexander_fox(pd)(1)) == 1, g


def test_fox_matches_matrix_on_accepted_closures():
    # dropping the last Wirtinger relation is sound on planar codes only;
    # every code PDCode accepts gives the matrix polynomial, and some of
    # the virtual closures are refused
    codes = accepted_codes(32, 12)
    for g, pd in codes:
        if pd is not None:
            _, poly = alexander_matrix(g, d=2)
            assert alexander_fox(pd) == poly, g
    assert 0 < sum(pd is None for _, pd in codes) < 150


def test_inventory_files_round_trip():
    from wknots.gauss import pd_to_text
    for name, pd in knot_inventory().items():
        assert pd_from_text(pd_to_text(pd)).crossings == pd.crossings
