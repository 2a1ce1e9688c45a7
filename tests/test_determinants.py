"""Bareiss determinants against the Laplace oracle, and the exact
divisions they rely on."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import laplace_alexander_matrix, laplace_det
from wknots.alexander import alexander_fox, alexander_matrix
from wknots.gauss import braid_closure, gauss_to_pd
from wknots.linalg import RatMatrix
from wknots.rational import rat
from wknots.rings import LaurentPoly
from wknots.wbraid import BraidWord

laurents = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3),
                           max_size=3).map(LaurentPoly)
rationals = st.builds(rat, st.integers(-2, 2), st.integers(1, 3))


def square(entries, n):
    row = st.lists(entries, min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: square(laurents, n)))
def test_bareiss_matches_laplace_over_laurent(rows):
    one = LaurentPoly.const(1)
    assert RatMatrix(rows).det(one) == laplace_det(rows, one)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: square(rationals, n)))
def test_bareiss_matches_laplace_over_rationals(rows):
    assert RatMatrix(rows).det(rat(1)) == laplace_det(rows, rat(1))


def random_closure(rng, crossings, virtual_rate):
    """A braid word with `crossings` real crossings whose closure is a
    knot, and that closure."""
    while True:
        n = rng.randint(2, min(5, crossings + 1))
        letters, real = [], 0
        while real < crossings:
            i = rng.randrange(1, n)
            if rng.random() < virtual_rate:
                letters.append(("v", i, 1))
            else:
                letters.append(("s", i, rng.choice((1, -1))))
                real += 1
        try:
            return braid_closure(BraidWord(n, tuple(letters)))
        except ValueError:
            continue


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 10), st.booleans(),
       st.sampled_from((1, 3, 6)))
def test_alexander_matrix_matches_laplace(seed, crossings, virtual, d):
    g = random_closure(random.Random(seed), crossings, 0.3 if virtual else 0)
    assert alexander_matrix(g, d) == laplace_alexander_matrix(g, d)


def test_large_classical_closure():
    # 40 crossings: about 2^40 column subsets for a Laplace expansion
    g = random_closure(random.Random(40), 40, 0)
    assert g.k == 40
    _, poly = alexander_matrix(g, 2)
    assert poly == alexander_fox(gauss_to_pd(g))
    assert abs(poly(1)) == 1
    assert poly.is_palindromic()


@settings(max_examples=200, deadline=None)
@given(laurents, laurents.filter(lambda b: not b.is_zero()))
def test_laurent_divexact(a, b):
    assert (a * b).divexact(b) == a
    try:
        q = a.divexact(b)
    except ArithmeticError:
        return
    assert q * b == a


def test_laurent_divexact_raises_on_inexact():
    X = LaurentPoly.x
    for a, b in ((X(2) + 1, X(1) + 1),            # remainder 2
                 (LaurentPoly.const(3), LaurentPoly.const(2)),
                 (LaurentPoly.const(1), X(1) + 1),
                 (X(3) - X(-1), X(2) + X(-2) + 1)):
        with pytest.raises(ArithmeticError):
            a.divexact(b)
    with pytest.raises(ZeroDivisionError):
        X(1).divexact(LaurentPoly())
