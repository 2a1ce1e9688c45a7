"""The integer Bareiss determinant against the Laplace oracle and the
Laurent-ring Bareiss it replaced, and the exact divisions that one relies
on."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (alexander_rows, fox_derivative, laplace_alexander_matrix,
                     laplace_det, laurent_bareiss_det, laurent_divexact)
from wknots.alexander import (_fox_derivative, _gauss_rows, alexander_det,
                              alexander_fox, alexander_matrix)
from wknots.gauss import GaussDiagram, braid_closure, gauss_to_pd
from wknots.linalg import RatMatrix
from wknots.rational import rat
from wknots.rings import LaurentPoly, laurent_normalize
from wknots.wbraid import BraidWord

laurents = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3),
                           max_size=3).map(LaurentPoly)
rationals = st.builds(rat, st.integers(-2, 2), st.integers(1, 3))
# wide exponent spans and large coefficients: big Kronecker digits
wide_laurents = st.dictionaries(st.integers(-10, 10),
                                st.integers(-10 ** 6, 10 ** 6),
                                max_size=4).map(LaurentPoly)


def square(entries, n):
    row = st.lists(entries, min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: square(laurents, n)))
def test_bareiss_matches_laplace_over_laurent(rows):
    one = LaurentPoly.const(1)
    assert RatMatrix(rows).det(one) == laplace_det(rows, one)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: square(wide_laurents, n)))
def test_bareiss_matches_laplace_over_wide_laurent(rows):
    one = LaurentPoly.const(1)
    det = RatMatrix(rows).det(one)
    assert det == laplace_det(rows, one)
    assert det == laurent_bareiss_det(rows)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: square(rationals, n)))
def test_bareiss_matches_laplace_over_rationals(rows):
    assert RatMatrix(rows).det(rat(1)) == laplace_det(rows, rat(1))


@pytest.mark.parametrize("coeffs", [(1,), (2, 2), (2, 4), (3, 5), (8, 8, 2),
                                    (7, 1, 9), (10 ** 6, 10 ** 6)])
@pytest.mark.parametrize("sign", [1, -1])
def test_coefficient_at_the_bound(coeffs, sign):
    # one nonzero entry a row, so the determinant's one coefficient is
    # ±H, H the product of the rows' norms: the largest digit the
    # Kronecker read-back has to take
    n = len(coeffs)
    entries = [LaurentPoly.x(3 * i - 4, sign * c if i == 0 else c)
               for i, c in enumerate(coeffs)]
    diagonal = [[entries[i] if i == j else LaurentPoly() for j in range(n)]
                for i in range(n)]
    det = RatMatrix(diagonal).det(LaurentPoly.const(1))
    assert det == LaurentPoly.x(sum(3 * i - 4 for i in range(n)),
                                sign * math.prod(coeffs))
    # the same entries on the reversed diagonal, so the int elimination
    # has to swap rows
    flipped = [row[::-1] for row in diagonal]
    assert RatMatrix(flipped).det(LaurentPoly.const(1)) == \
        laplace_det(flipped, LaurentPoly.const(1))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("sign", [1, -1])
def test_hadamard_matrix_at_the_bound(k, sign):
    # Sylvester's ±1 matrices of order n = 2^k reach Hadamard's bound:
    # |det| = n^(n/2) = H, with rows of norm √n
    n = 2 ** k
    X = LaurentPoly.x
    rows = [[X(i, sign if i == 0 else 1) * (-1) ** bin(i & j).count("1")
             for j in range(n)] for i in range(n)]
    det = RatMatrix(rows).det(LaurentPoly.const(1))
    assert det == laplace_det(rows, LaurentPoly.const(1))
    assert max(abs(c) for c in det.coeffs.values()) == math.isqrt(n ** n)


def test_zero_row_and_empty_matrix():
    X, one = LaurentPoly.x, LaurentPoly.const(1)
    rows = [[X(2, 5), X(-3) + 1], [LaurentPoly(), LaurentPoly()]]
    assert RatMatrix(rows).det(one) == LaurentPoly()
    assert RatMatrix(rows[::-1]).det(one).is_zero()
    assert RatMatrix([[rat(1, 2), 3], [0, 0]]).det(rat(1)) == 0
    assert RatMatrix([]).det(one) == one
    assert RatMatrix([]).det(rat(1)) == 1
    with pytest.raises(ValueError):
        RatMatrix([[1, 2]]).det(rat(1))


@pytest.mark.parametrize("virtual", [False, True])
def test_laurent_bareiss_oracle_on_closures(virtual):
    rng = random.Random(17 + virtual)
    for crossings in range(2, 21):
        g = random_closure(rng, crossings, 0.3 if virtual else 0)
        det = laurent_bareiss_det(alexander_rows(g))
        assert det == alexander_det(g)
        if not virtual:
            assert laurent_normalize(det) == alexander_fox(gauss_to_pd(g))


@pytest.mark.parametrize("virtual", [False, True])
def test_gauss_rows_match_ring_oracle(virtual):
    # the matrix read off the diagram equals the one built by ring
    # arithmetic on S and T, entry by entry, with no zero coefficient
    rng = random.Random(23 + virtual)
    for crossings in range(21):
        g = (random_closure(rng, crossings, 0.3 if virtual else 0)
             if crossings else GaussDiagram(()))
        rows, want = _gauss_rows(g), alexander_rows(g)
        assert len(rows) == len(want) == g.k
        for row, wrow in zip(rows, want):
            assert [p.coeffs for p in row] == [p.coeffs for p in wrow]
            assert all(c for p in row for c in p.coeffs.values())


def test_alexander_det_of_empty_diagram():
    det = alexander_det(GaussDiagram(()))
    assert det == 1 and det.coeffs == {0: 1}


# words in three generators, each letter g^{±1} possibly followed by its
# inverse: cancelling pairs whose Fox terms cancel too
letters = st.tuples(st.integers(0, 2), st.sampled_from((1, -1)),
                    st.booleans())
words = st.lists(letters, max_size=12).map(
    lambda ls: [x for g, s, pair in ls
                for x in ([(g, s), (g, -s)] if pair else [(g, s)])])


@settings(max_examples=200, deadline=None)
@given(words, st.integers(0, 2))
def test_fox_derivative_matches_ring_oracle(word, gen):
    got = _fox_derivative(word, gen)
    assert got.coeffs == fox_derivative(word, gen).coeffs
    assert all(got.coeffs.values())


def test_fox_derivative_of_a_cancelling_pair_is_zero():
    for s in (1, -1):
        d = _fox_derivative([(0, s), (0, -s)], 0)
        assert d.is_zero() and d.coeffs == {}
    assert _fox_derivative([(1, 1), (0, 1), (1, -1)], 0).coeffs == {1: 1}


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
    assert laurent_divexact(a * b, b) == a
    try:
        q = laurent_divexact(a, b)
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
            laurent_divexact(a, b)
    with pytest.raises(ZeroDivisionError):
        laurent_divexact(X(1), LaurentPoly())
