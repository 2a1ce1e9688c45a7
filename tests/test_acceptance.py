"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Each suite of ``checks.ALL_CHECKS`` runs with its default arguments, and
the gates are numbered in that order.  Run with
`pytest -v -s tests/test_acceptance.py` to see the lines as the suites
complete.
"""

import pytest

from wknots import checks
from wknots.alexander import knot_inventory

GATES = [(number, name, fn)
         for number, (name, fn) in enumerate(checks.ALL_CHECKS, 1)]


def _gate(number, name, ok, detail):
    line = "[%2d] %-28s %s  (%s)" % (number, name,
                                     "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


@pytest.mark.parametrize("number, name, fn", GATES,
                         ids=["%02d-%s" % g[:2] for g in GATES])
def test_suite(number, name, fn):
    _gate(number, name, *fn())


@pytest.mark.slow
def test_07_alexander_wheels_bridge_degree_6():
    # one degree further, on the unknot and every bundled knot
    names = ("unknot",) + tuple(sorted(knot_inventory()))
    ok, detail = checks.check_main_theorem(names, d=6)
    _gate(7, "alexander-wheels-bridge", ok, detail)
