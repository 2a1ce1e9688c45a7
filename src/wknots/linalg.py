"""Exact sparse echelon reduction and fraction-free determinants.

The echelon form produced here is the canonical reduced row-echelon form
of the row space: pivot columns are the leftmost possible, pivot entries
are 1, and pivots are eliminated from every other row.  Because RREF is
unique per subspace, the output is bit-identical no matter the order in
which rows are fed in, but the work is not: a column index finds the
stored rows that a new pivot must be eliminated from, and a row whose
pivot lies left of every stored pivot finds none, because a stored row
has support only at or right of its own pivot.  Rows fed highest pivot
first (as ``arrows.QuotientSpace`` feeds them) thus eliminate only where
pivots tie.  Each RREF row is stored as its primitive integer multiple
(the RREF row times the lcm of its denominators), so every operation of
the elimination is an int operation, and ``add`` and ``reduce`` take
int rows only (``integral`` scales a ``Rat`` row first).  The relators
of the arrow-diagram quotients reduce to RREF rows that are integral,
and for those the stored row is the RREF row itself.  Every value ``reduce``
hands back is a ``Rat``; a reduced row of ints over one denominator is
divided last.

Determinants use one algorithm: Bareiss elimination (Math. Comp. 22,
1968) over Python ints, which divides only exactly.  A matrix over Q
enters with its rows scaled to ints, and one over ℤ[X^±1] evaluated at a
power of 2 large enough that the int determinant spells out the
polynomial's coefficients as its digits.
"""

from __future__ import annotations

from math import gcd, lcm, prod

from .rational import Rat
from .rings import LaurentPoly


def integral(row):
    """(row·l, l) with l the lcm of the denominators of the row's int or
    ``Rat`` values: the same row as ints over one denominator, zero values
    dropped."""
    l = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (l // v.denominator)
            for c, v in row.items() if v}, l


class SparseEchelon:
    """Incremental reduced row-echelon form over Q, in integer rows.

    ``add`` and ``reduce`` take sparse dicts column -> int (a ``Rat``
    value raises ``TypeError`` at the gcd of ``add``; scale such rows with
    ``integral``).  After
    every insertion the stored rows satisfy: each row's minimal column is
    its pivot, the row is a primitive int row (its values have gcd 1)
    whose pivot entry is positive, and no other stored row has support on
    any pivot column.  So ``row / row[pivot]`` is the canonical RREF row,
    and a row with pivot entry 1 is that RREF row.

    ``holders`` maps each column to the pivots of the stored rows that
    hold it off their pivot, so ``add`` eliminates a new pivot only from
    the rows that contain it, updating the map as entries appear and cancel.
    When the new pivot is left of every stored pivot, no row holds it.
    """

    def __init__(self):
        self.rows = {}  # pivot column -> primitive int row dict
        self.holders = {}  # column -> pivots of the rows holding it

    def reduce(self, row, den=1):
        """Return the int row / den reduced against all stored pivots (a
        fresh dict of ``Rat`` values); the reduction runs in ints, divided
        once at the end."""
        row, den = self._reduce({c: v for c, v in row.items() if v}, den)
        return {c: Rat(v, den) for c, v in row.items()}

    def _reduce(self, row, den):
        """An int row over den, reduced in place: (row, den), the row and
        den scaled by each pivot entry that is not 1 before its pivot is
        eliminated."""
        # a pivot row is zero on every other pivot column, so the row's
        # pivot columns are the ones it holds on entry
        for c in sorted(row.keys() & self.rows.keys()):
            piv = self.rows[c]
            f, a = row[c], piv[c]
            if a != 1:
                for k in row:
                    row[k] *= a
                den *= a
            for pc, pv in piv.items():
                w = row.get(pc, 0) - f * pv
                if w:
                    row[pc] = w
                else:
                    row.pop(pc, None)
        return row, den

    def add(self, row) -> bool:
        """Insert an int row; returns True if the rank increased."""
        row, _ = self._reduce({c: v for c, v in row.items() if v}, 1)
        if not row:
            return False
        p = min(row)
        g = gcd(*row.values()) if row[p] > 0 else -gcd(*row.values())
        if g != 1:
            row = {c: v // g for c, v in row.items()}
        holders = self.holders
        rest = [(c, v) for c, v in row.items() if c != p]
        # eliminate the new pivot from the existing rows that hold it:
        # each becomes a·r − r[p]·row
        a = row[p]
        for q in holders.pop(p, ()):
            r = self.rows[q]
            f = r.pop(p)
            if a != 1:
                for c in r:
                    r[c] *= a
            for c, v in rest:
                w = r.get(c, 0) - f * v
                if w:
                    if c not in r:
                        holders.setdefault(c, set()).add(q)
                    r[c] = w
                else:
                    del r[c]
                    holders[c].discard(q)
            if r[q] != 1:  # a row with pivot entry 1 is primitive
                g = gcd(*r.values())
                for c in r:
                    r[c] //= g
        for c, _ in rest:
            holders.setdefault(c, set()).add(p)
        self.rows[p] = row
        return True

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)


class RatMatrix:
    """A small dense square matrix of ``Rat``/int or of ``LaurentPoly``
    entries, whose one algorithm is ``det``: Bareiss elimination over
    Python ints.

    A ``Rat`` row enters scaled to ints by ``integral`` and a Laurent row
    by Kronecker substitution, so no ring arithmetic runs inside the
    elimination; the ring is read back from the one int it returns.
    """

    def __init__(self, rows):
        self.data = [list(r) for r in rows]
        self.nrows = len(self.data)
        if any(len(r) != self.nrows for r in self.data):
            raise ValueError("not a square matrix")

    def det(self, one):
        """Exact determinant in the ring of `one`: ``LaurentPoly`` entries
        when `one` is a ``LaurentPoly``, ``Rat`` or int entries otherwise.

        Over Q each row is scaled to ints by ``integral``, and the int
        determinant is divided by the product of the row scales.

        Over ℤ[X, X^{-1}] row i is divided by X^{s_i}, s_i its least
        exponent, and evaluated at X = 2^B (Kronecker substitution), so the
        int determinant is the shifted determinant at 2^B.  B comes from a
        bound H on the coefficients of every minor.  Write |p| for the sum
        of the |coefficients| of an entry p, and let H be the product over
        the rows i of √(Σ_j |p_ij|²).  On the unit circle |p(z)| ≤ |p|, so
        by Hadamard's inequality a minor m has |m(z)| at most the product
        of its rows' norms, and so at most H, as each nonzero row's norm is
        at least 1 (a zero row makes H and the determinant 0).  Each
        coefficient of m, the mean of m(z)·z^{-k} over the circle, is then
        at most H.  With 2^(B−1) > H the balanced base-2^B digits of the
        int determinant are exactly the coefficients of the shifted
        determinant, which is multiplied by X^{Σ s_i} at the end; and a
        minor is zero exactly when its value at 2^B is, so every nonzero
        int pivot is a nonzero Laurent minor.  (The product of the rows' Σ_j |p_ij| bounds the minors
        too, but on large Gauss-diagram matrices it takes about 1.7 times
        the bits.)
        """
        if not isinstance(one, LaurentPoly):
            rows = [integral(dict(enumerate(r))) for r in self.data]
            return Rat(_bareiss([[row.get(j, 0) for j in range(self.nrows)]
                                 for row, _ in rows]), prod(l for _, l in rows))
        rows = [[p.coeffs for p in r] for r in self.data]
        square = prod(sum(sum(map(abs, cs.values())) ** 2 for cs in r)
                      for r in rows)  # H²
        B = (square.bit_length() + 3) // 2  # 2^(2B−2) > H²
        low = [min((e for cs in r for e in cs), default=0) for r in rows]
        v = _bareiss([[sum(c << B * (e - s) for e, c in cs.items())
                       for cs in r] for r, s in zip(rows, low)])
        half, coeffs, e = 1 << (B - 1), {}, sum(low)
        while v:  # balanced base-2^B digits, lowest first
            coeffs[e] = d = ((v + half) & ((1 << B) - 1)) - half
            v, e = (v - d) >> B, e + 1
        return LaurentPoly(coeffs)


def _bareiss(a):
    """Determinant of the square int matrix `a` (a list of row lists,
    consumed) by fraction-free Bareiss elimination with row pivoting.
    Any nonzero pivot gives the same determinant.

    Step k replaces each a[i][j] (i, j > k) by
    (a[k][k]·a[i][j] − a[i][k]·a[k][j]) // prev, prev being the previous
    pivot.  The division is exact: the new entry is the minor on rows
    0..k, i and columns 0..k, j.
    """
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        # the nonzero pivot of fewest bits: on the Gauss-diagram matrices
        # of large closures it keeps the minors that follow short
        p = min((i for i in range(k, n) if a[i][k]), default=None,
                key=lambda i: a[i][k].bit_length())
        if p is None:
            return 0
        if p != k:
            a[k], a[p], sign = a[p], a[k], -sign
        piv, tail = a[k][k], a[k][k + 1:]
        for i in range(k + 1, n):
            ai, f = a[i], a[i][k]
            ai[k + 1:] = [(piv * x - f * y) // prev
                          for x, y in zip(ai[k + 1:], tail)]
        prev = piv
    return sign * prev
