"""A failing check names its first counterexample; a passing one keeps
its detail line."""

import inspect
import random
from itertools import count

import pytest

from wknots import checks, lieweights
from wknots.arrows import LONG, ArrowVector, enumerate_diagrams
from wknots.expansion import get_quotient
from wknots.gauss import GaussDiagram, apply_move, braid_closure
from wknots.rings import LaurentPoly
from wknots.wbraid import word

from oracles import isolating_slot_triples, legal_moves_by_slot_triples


def test_action_well_defined_names_first_failure(monkeypatch):
    monkeypatch.setattr(checks, "braid_action", lambda b: b.letters)
    ok, detail = checks.check_action_well_defined(nmax=2)
    assert not ok
    assert "; first: (2, '" in detail


def test_word_problem_names_first_pair(monkeypatch):
    calls = []

    def never_equal(a, b):
        calls.append((a, b))
        return False

    monkeypatch.setattr(checks, "braid_equal", never_equal)
    ok, detail = checks.check_word_problem(seed=0, trials=3)
    a, b = calls[0]
    assert not ok
    assert detail.startswith("3 equal + 3 distinct pairs, 3 failures; first: ")
    assert detail.endswith(
        repr(("should be equal", a.to_text(), b.to_text())))


def test_word_problem_names_first_pair_that_should_differ(monkeypatch):
    calls = []

    def always_equal(a, b):
        calls.append((a, b))
        return True

    monkeypatch.setattr(checks, "braid_equal", always_equal)
    ok, detail = checks.check_word_problem(seed=0, trials=3)
    a, b = calls[3]  # the first distinct pair
    assert not ok
    assert detail == "3 equal + 3 distinct pairs, 3 failures; first: %r" % (
        ("should differ", a.to_text(), b.to_text()),)


def test_basis_conjugating_names_first_braid(monkeypatch):
    monkeypatch.setattr(checks, "aut_is_basis_conjugating",
                        lambda aut: None)
    ok, detail = checks.check_basis_conjugating(seed=1, trials=4)
    assert not ok
    assert detail.startswith("4 braids, 4 failures; first: 'n=")


def test_zed_moves_names_first_diagram_and_move(monkeypatch):
    fresh = count()
    monkeypatch.setattr(checks, "project_expansion",
                        lambda z, flags=None: next(fresh))
    ok, detail = checks.check_zed_moves(seed=2, trials=2, d=1)
    assert not ok
    assert ", 2 failures; first: (GaussDiagram([" in detail


def test_zed_relations_names_first_relation(monkeypatch):
    fresh = count()
    monkeypatch.setattr(checks, "project_expansion", lambda z: next(fresh))
    ok, detail = checks.check_zed_relations(nmax=3, d=1)
    assert not ok
    assert detail == ("n=2..3 at degree 1, 14 failures; "
                      "first: (2, 'R2a[i=1]')")


# Alexander values that break one property each: a constant 1 that no
# bundled knot has, a constant 3 with A(1) = 3, and 1 - X + X^3, which has
# A(1) = 1 but is not palindromic
@pytest.mark.parametrize("fox, matrix_too, failure", [
    (LaurentPoly({0: 1}), False, "mismatch"),
    (LaurentPoly({0: 3}), True, "A(1)"),
    (LaurentPoly({0: 1, 1: -1, 3: 1}), True, "palindrome"),
], ids=["mismatch", "A(1)", "palindrome"])
def test_alexander_oracles_name_first_knot(fox, matrix_too, failure,
                                           monkeypatch):
    monkeypatch.setattr(checks, "alexander_fox", lambda pd: fox)
    if matrix_too:
        monkeypatch.setattr(checks, "alexander_matrix",
                            lambda g, d: (None, fox))
    ok, detail = checks.check_alexander_oracles()
    assert not ok
    assert detail.startswith("14 knots, failures: ['3_1:%s', '4_1:%s'" % (
        failure, failure))


def test_main_theorem_names_failing_knot(monkeypatch):
    real = checks.predicted_from_alexander
    # a wrong prediction for every knot but the unknot
    monkeypatch.setattr(checks, "predicted_from_alexander",
                        lambda g, d: real(g, d) if not g.arrows else None)
    assert checks.check_main_theorem(names=("unknot", "3_1"), d=2) == (
        False, "degree 2 on unknot/3_1, failures: ['3_1']")


def test_dimensions_name_first_wheel_count_mismatch(monkeypatch):
    monkeypatch.setattr(checks, "wheel_monomial_basis", lambda m, flags: ())
    ok, detail = checks.check_dimensions()
    assert not ok
    assert detail.startswith("m<=4, failures: ['long/plain/m=0: 1 vs 0', ")
    assert "4T" not in detail


def test_dimensions_name_first_4t_6t_mismatch(monkeypatch):
    real = checks.get_quotient

    class OneMore:
        def __init__(self, q):
            self.dim = q.dim + 1

    # every 6T quotient one dimension too large
    monkeypatch.setattr(checks, "get_quotient", lambda skel, m, rels: (
        OneMore(real(skel, m, rels)) if "6T" in rels
        else real(skel, m, rels)))
    ok, detail = checks.check_dimensions()
    assert not ok
    assert detail.startswith(
        "m<=4, failures: [\"('long',)/m=0: 4T 1 vs 6T 2\", ")


def test_jacobi_names_surviving_trivalent_relation(monkeypatch):
    # a lone arrow, which no relation kills, in place of each instance list
    arrow = [ArrowVector(LONG, 1, {((1, 2),): 1})]
    monkeypatch.setattr(checks, "as_instances", lambda m: arrow)
    monkeypatch.setattr(checks, "ihx_instances", lambda: arrow)
    assert checks.check_jacobi() == (
        False, "m<=4, failures: ['AS/m=1', 'IHX/m=1']")


def test_jacobi_names_surviving_cc_relator(monkeypatch):
    basis = get_quotient(LONG, 4, {"TC", "4T"}).basis
    monkeypatch.setattr(checks, "generate_relations", lambda skel, m, rels: [
        ArrowVector(skel, m, {basis[0]: 1})])
    assert checks.check_jacobi() == (False, "m<=4, failures: ['CC/m=4']")


def test_weight_systems_name_first_surviving_relator(monkeypatch):
    # each skeleton's first diagram alone, in place of its relators
    monkeypatch.setattr(checks, "generate_relations", lambda skel, m, rels: [
        ArrowVector(skel, m, {enumerate_diagrams(skel, m)[0]: 1})])
    ok, detail = checks.check_weight_systems()
    assert not ok
    assert detail.startswith("m<=3, failures: [\"abelian/('long',)/m=1\", "
                             "\"abelian/('long',)/m=2\", ")


def test_weight_systems_name_first_product(monkeypatch):
    monkeypatch.setattr(lieweights, "pbw_mul", lambda u, v, L: {})
    ok, detail = checks.check_weight_systems()
    assert not ok
    assert detail.startswith("m<=3, failures: ['abelian/product', ")


def test_passing_detail_lines_unchanged():
    assert checks.check_action_well_defined(nmax=3) == (
        True, "checked n=2..3, 0 failures")
    assert checks.check_word_problem(seed=0, trials=5) == (
        True, "5 equal + 5 distinct pairs, 0 failures")
    assert checks.check_basis_conjugating(seed=1, trials=5) == (
        True, "5 braids, 0 failures")
    assert checks.check_zed_relations(nmax=3, d=2) == (
        True, "n=2..3 at degree 2, 0 failures")


# The default-seed detail lines of the suites whose fast paths sample
# random braids, diagrams and moves: the move counts of
# expansion-move-invariance depend on every move list it drew from.
DEFAULT_DETAILS = {
    "action-well-defined": "checked n=2..6, 0 failures",
    "word-problem": "1000 equal + 1000 distinct pairs, 0 failures",
    "basis-conjugating": "500 braids, 0 failures",
    "expansion-move-invariance": (
        "200 cases (oc:52,r1s:36,r2:65,r2del:23,r3:24), 0 failures"),
    "weight-systems": "m<=3, failures: none",
}


# expansion-move-invariance at the seeds of the first and the fourth pass
# of a benchmark run
MOVE_DETAILS = {
    1000: "200 cases (oc:45,r1s:32,r2:76,r2del:30,r3:17), 0 failures",
    2003: "200 cases (oc:52,r1s:33,r2:66,r2del:25,r3:24), 0 failures",
}


@pytest.mark.parametrize("seed", sorted(MOVE_DETAILS))
def test_move_path_pinned_at_more_seeds(seed):
    assert checks.check_zed_moves(seed=seed) == (True, MOVE_DETAILS[seed])


def test_default_detail_lines_pinned():
    got = {name: fn() for name, fn in checks.ALL_CHECKS
           if name in DEFAULT_DETAILS}
    assert got == {name: (True, detail)
                   for name, detail in DEFAULT_DETAILS.items()}


def slide_closure(rng):
    """The closure of a random 3-strand word ending in s1 s2 s1, which
    carries a slide-move triangle."""
    while True:
        b = checks.random_braid(rng, 3, rng.randrange(3)) * word(3, "s1 s2 s1")
        try:
            return braid_closure(b)
        except ValueError:
            continue


def test_legal_moves_find_each_slide_once():
    rng = random.Random(41)
    for _ in range(40):
        g = slide_closure(rng)
        slides = [mv[1:] for mv in checks._legal_moves(g) if mv[0] == "r3"]
        assert slides
        for i, j, l in slides:
            assert i < j < l
            # the slide undoes itself at the same slot pairs
            assert apply_move(apply_move(g, "r3", i, j, l),
                              "r3", i, j, l) == g


def test_zed_moves_survive_a_crossingless_draw(monkeypatch):
    # the closure of an all-virtual braid has no arrows, hence no move
    # until the check grafts a kink on it
    monkeypatch.setattr(checks, "random_knot_diagram",
                        lambda rng, length: GaussDiagram(()))
    ok, detail = checks.check_zed_moves(seed=0, trials=20, d=2)
    assert ok, detail


def drawn_diagrams(rng, count):
    """Closures as the move check draws them, closures carrying a slide,
    and each with a kink grafted at the end and then an R2 pair put in."""
    for _ in range(count):
        for g in (checks.random_knot_diagram(rng, rng.randrange(3, 8)),
                  slide_closure(rng)):
            yield g
            kk = g.k
            g = GaussDiagram(g.arrows +
                             ((2 * kk + 1, 2 * kk + 2, rng.choice((1, -1))),))
            yield g
            gt, go = rng.sample(range(2 * g.k + 1), 2)
            yield apply_move(g, "r2", gt, go, rng.choice((1, -1)),
                             rng.random() < 0.5)


def test_legal_moves_match_every_slot_triple(monkeypatch):
    tried = []

    def recorded(g, move, *args):
        if move == "r3":
            tried.append(args)
        return apply_move(g, move, *args)

    monkeypatch.setattr(checks, "apply_move", recorded)
    slides = 0
    for g in drawn_diagrams(random.Random(43), 40):
        tried.clear()
        got = checks._legal_moves(g)
        assert got == legal_moves_by_slot_triples(g)
        # only triples that isolate three arrows reach the slide rule
        assert tried == isolating_slot_triples(g)
        slides += sum(mv[0] == "r3" for mv in got)
    assert slides


def test_seeded_suites_are_the_ones_taking_a_seed():
    assert checks.SEEDED == tuple(
        name for name, fn in checks.ALL_CHECKS
        if "seed" in inspect.signature(fn).parameters)
