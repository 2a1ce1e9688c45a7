"""Exact sparse echelon reduction and fraction-free determinants.

The echelon form produced here is the canonical reduced row-echelon form
of the row space: pivot columns are the leftmost possible, pivot entries
are 1, and pivots are eliminated from every other row.  Because RREF is
unique per subspace, the output is bit-identical no matter the order in
which rows are fed in.

Determinants use one algorithm for every ring: Bareiss elimination
(Math. Comp. 22, 1968), which divides only exactly, so it runs over
ℤ[X^±1] and Q alike.
"""

from __future__ import annotations

from .rational import Rat


class SparseEchelon:
    """Incremental reduced row-echelon form over Q.

    Rows are sparse dicts column -> nonzero rational.  After every
    insertion the stored rows satisfy: each row's minimal column is its
    pivot, the pivot coefficient is 1, and no other stored row has
    support on any pivot column.
    """

    def __init__(self):
        self.rows = {}  # pivot column -> row dict

    def reduce(self, row):
        """Return row reduced against all stored pivots (a fresh dict)."""
        row = {c: Rat(v) for c, v in row.items() if v}
        for c in sorted(row):
            if c not in row:
                continue
            piv = self.rows.get(c)
            if piv is None:
                continue
            factor = row[c]
            for pc, pv in piv.items():
                w = row.get(pc, Rat(0)) - factor * pv
                if w:
                    row[pc] = w
                else:
                    row.pop(pc, None)
        return row

    def add(self, row) -> bool:
        """Insert a row; returns True if the rank increased."""
        row = self.reduce(row)
        if not row:
            return False
        p = min(row)
        inv = 1 / row[p]
        row = {c: v * inv for c, v in row.items()}
        # eliminate the new pivot from existing rows
        for q, r in self.rows.items():
            f = r.get(p)
            if f is None:
                continue
            for c, v in row.items():
                w = r.get(c, Rat(0)) - f * v
                if w:
                    r[c] = w
                else:
                    r.pop(c, None)
        self.rows[p] = row
        return True

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)


class RatMatrix:
    """A small dense rectangular matrix; entries are ring values supporting
    +, -, * and exact division ``/`` (rationals, LaurentPoly)."""

    def __init__(self, rows):
        self.data = [list(r) for r in rows]
        self.nrows = len(self.data)
        self.ncols = len(self.data[0]) if self.data else 0
        if any(len(r) != self.ncols for r in self.data):
            raise ValueError("ragged matrix")

    def det(self, one):
        """Exact determinant by fraction-free Bareiss elimination with row
        pivoting, in O(n^3) ring operations.  `one` is the ring's unit.

        Step k replaces each a[i][j] (i, j > k) by
        (a[k][k]·a[i][j] − a[i][k]·a[k][j]) / prev, prev being the previous
        pivot.  The division is exact: the new entry is the minor on rows
        0..k, i and columns 0..k, j, so every entry stays in the ring.
        """
        if self.nrows != self.ncols:
            raise ValueError("determinant of non-square matrix")
        a = [list(r) for r in self.data]
        n = len(a)
        sign, prev = 1, one
        for k in range(n):
            p = next((i for i in range(k, n) if _nonzero(a[i][k])), None)
            if p is None:
                return one - one
            if p != k:
                a[k], a[p] = a[p], a[k]
                sign = -sign
            row, piv = a[k], a[k][k]
            for i in range(k + 1, n):
                ai = a[i]
                f = ai[k]
                if _nonzero(f):
                    for j in range(k + 1, n):
                        ai[j] = (piv * ai[j] - f * row[j]) / prev
                else:  # the update is piv·a[i][j] / prev; zeros stay zero
                    for j in range(k + 1, n):
                        if _nonzero(ai[j]):
                            ai[j] = piv * ai[j] / prev
            prev = piv
        return prev if sign > 0 else -prev


def _nonzero(v):
    return not v.is_zero() if hasattr(v, "is_zero") else bool(v)
