"""Reference implementations that the fast paths in ``src/`` are tested
against.  They are exponential and only fit small inputs."""

import math

from wknots.alexander import alexander_det, build_S, build_T
from wknots.arrows import LONG
from wknots.expansion import TruncatedExpansion, expansion_exp, wheels_reduce
from wknots.gauss import self_linking
from wknots.jacobi import monomial_to_arrows
from wknots.rational import rat
from wknots.rings import (LaurentPoly, TruncSeries, laurent_at_exp,
                          laurent_normalize, series_log)


def is_zero(v):
    f = getattr(v, "is_zero", None)
    return f() if f else not v


def laplace_det(rows, one):
    """Determinant by division-free Laplace expansion along the rows,
    memoized on the column subset: O(n·2^n) ring operations."""
    n = len(rows)
    memo = {}

    def minor(row, cols):
        # determinant of rows row..n-1 on the column bitmask `cols`
        if row == n:
            return one
        if cols in memo:
            return memo[cols]
        total = one - one
        sign = 1
        for j in range(n):
            if not (cols >> j) & 1:
                continue
            entry = rows[row][j]
            if not is_zero(entry):
                term = entry * minor(row + 1, cols & ~(1 << j))
                total = total + term if sign > 0 else total - term
            sign = -sign
        memo[cols] = total
        return total

    return minor(0, (1 << n) - 1)


def laplace_alexander_matrix(k, d):
    """The Alexander pair (series, polynomial) computed as two separate
    Laplace determinants: over ℤ[X^±1], and over series with the matrix
    entries X^s − 1 replaced by e^{s·x} − 1."""
    S, T = build_S(k), build_T(k)
    n = len(S)
    one = LaurentPoly.const(1)
    rows = [[(one if i == j else 0) - (LaurentPoly.x(S[i][i]) - one) * T[i][j]
             for j in range(n)] for i in range(n)]
    one_s = TruncSeries.const(d, 1)
    srows = []
    for i in range(n):
        e = TruncSeries(d, {m: rat(S[i][i] ** m, math.factorial(m))
                            for m in range(1, d + 1)})
        srows.append([(one_s if i == j else 0) - e * T[i][j]
                      for j in range(n)])
    return (laplace_det(srows, one_s),
            laurent_normalize(laplace_det(rows, one)))


def arrow_side_prediction(g, d, flags=frozenset({"RI"})):
    """The Alexander prediction computed among arrow diagrams: build
    sl·a + Σ_k c_k·(k-wheel) as an expansion, exponentiate it by repeated
    juxtaposition and read the result in wheel coordinates."""
    phi = series_log(laurent_at_exp(alexander_det(g).mirror(), d))
    e = TruncatedExpansion(LONG, d)
    if d >= 1:
        e.comps[1].add_term(((1, 2),), rat(self_linking(g)))
    for k in range(2, d + 1):
        if phi[k]:
            e.comps[k] = e.comps[k] + monomial_to_arrows((("w", k),)) * phi[k]
    return wheels_reduce(expansion_exp(e), flags)
