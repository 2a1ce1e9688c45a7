"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as the
suites complete.
"""

import pytest

from wknots import checks
from wknots.alexander import knot_inventory


def _gate(number, name, ok, detail):
    line = "[%2d] %-28s %s  (%s)" % (number, name,
                                     "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def test_01_action_well_defined():
    ok, detail = checks.check_action_well_defined(nmax=6)
    _gate(1, "action-well-defined", ok, detail)


def test_02_word_problem():
    ok, detail = checks.check_word_problem(seed=0, trials=1000)
    _gate(2, "word-problem", ok, detail)


def test_03_basis_conjugating():
    ok, detail = checks.check_basis_conjugating(seed=1, trials=500)
    _gate(3, "basis-conjugating", ok, detail)


def test_04_expansion_braid_relations():
    ok, detail = checks.check_zed_relations(nmax=4, d=4)
    _gate(4, "expansion-braid-relations", ok, detail)


def test_05_expansion_move_invariance():
    ok, detail = checks.check_zed_moves(seed=2, trials=200, d=4)
    _gate(5, "expansion-move-invariance", ok, detail)


def test_06_alexander_dual_oracle():
    ok, detail = checks.check_alexander_oracles()
    _gate(6, "alexander-dual-oracle", ok, detail)


def test_07_alexander_wheels_bridge():
    ok, detail = checks.check_main_theorem(d=5)
    _gate(7, "alexander-wheels-bridge", ok, detail)


@pytest.mark.slow
def test_07_alexander_wheels_bridge_degree_6():
    # one degree further, on the unknot and every bundled knot
    names = ("unknot",) + tuple(sorted(knot_inventory()))
    ok, detail = checks.check_main_theorem(names, d=6)
    _gate(7, "alexander-wheels-bridge", ok, detail)


def test_08_quotient_dimensions():
    ok, detail = checks.check_dimensions(mmax=4)
    _gate(8, "quotient-dimensions", ok, detail)


def test_09_jacobi_relations():
    ok, detail = checks.check_jacobi(mmax=4)
    _gate(9, "jacobi-relations", ok, detail)


def test_10_weight_systems():
    ok, detail = checks.check_weight_systems(mmax=3, seed=3)
    _gate(10, "weight-systems", ok, detail)
