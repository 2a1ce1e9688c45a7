"""A failing check names its first counterexample; a passing one keeps
its detail line."""

from itertools import count

from wknots import checks


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


def test_basis_conjugating_names_first_braid(monkeypatch):
    monkeypatch.setattr(checks, "aut_is_basis_conjugating",
                        lambda aut: (False, {}, None))
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


def test_passing_detail_lines_unchanged():
    assert checks.check_action_well_defined(nmax=3) == (
        True, "checked n=2..3, 0 failures")
    assert checks.check_word_problem(seed=0, trials=5) == (
        True, "5 equal + 5 distinct pairs, 0 failures")
    assert checks.check_basis_conjugating(seed=1, trials=5) == (
        True, "5 braids, 0 failures")
    assert checks.check_zed_relations(nmax=3, d=2) == (
        True, "n=2..3 at degree 2, 0 failures")
