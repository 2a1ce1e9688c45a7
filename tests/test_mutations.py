"""A mutation gate for the fast paths: each test plants one named fault in
the library, in-process, and asserts that the oracle test meant to catch
it fails.  ``monkeypatch`` undoes the fault when the test ends, and every
check runs on fixed small inputs."""

import inspect
import textwrap
from bisect import bisect_right

import pytest

import test_alexander
import test_determinants
import test_jacobi
from wknots import alexander, jacobi, linalg


def mutant(fn, old, new):
    """`fn` recompiled from its source with the one occurrence of `old`
    replaced by `new`, in `fn`'s own module namespace."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1
    namespace = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn),
                 "exec"), fn.__globals__, namespace)
    return namespace[fn.__name__]


def test_arcs_off_by_one(monkeypatch):
    monkeypatch.setattr(alexander, "bisect_left", bisect_right)
    with pytest.raises(AssertionError):
        test_alexander.test_wirtinger_arcs_match_union_find()


@pytest.mark.parametrize("check", [
    lambda: test_determinants.test_coefficient_at_the_bound((7, 1, 9), 1),
    lambda: test_determinants.test_coefficient_at_the_bound(
        (10 ** 6, 10 ** 6), -1),
    lambda: test_determinants.test_hadamard_matrix_at_the_bound(3, 1),
], ids=["at-the-bound", "at-the-bound-wide", "sylvester"])
def test_kronecker_base_below_hadamard(check, monkeypatch):
    # H² read as 1: B = 2, far below the bits the coefficients need
    monkeypatch.setattr(linalg, "prod", lambda _: 1)
    with pytest.raises(AssertionError):
        check()


def test_concat_without_the_shift(monkeypatch):
    monkeypatch.setattr(jacobi, "concat",
                        mutant(jacobi.concat, "shift = 2 * u.m", "shift = 0"))
    with pytest.raises(AssertionError):
        test_jacobi.test_built_diagrams_are_canonical(())
