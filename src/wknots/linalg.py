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
the elimination is an int operation, and ``add`` takes int rows only
(``integral`` scales a ``Rat`` row first).  The relators of the
arrow-diagram quotients reduce to RREF rows that are integral, and for
those the stored row is the RREF row itself.  Every value ``reduce``
hands back is a ``Rat``; a reduced row of ints over one denominator is
divided last.

Determinants use one algorithm for every ring: Bareiss elimination
(Math. Comp. 22, 1968), which divides only exactly, so it runs over
ℤ[X^±1] and Q alike.
"""

from __future__ import annotations

from math import gcd, lcm

from .rational import Rat


def integral(row, den=1):
    """(row·l, den·l) with l the lcm of the denominators of the row's int
    or ``Rat`` values: the same row as ints over one denominator, zero
    values dropped."""
    l = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (l // v.denominator)
            for c, v in row.items() if v}, den * l


class SparseEchelon:
    """Incremental reduced row-echelon form over Q, in integer rows.

    ``add`` takes sparse dicts column -> int (a ``Rat`` value raises
    ``TypeError`` at the gcd; scale such rows with ``integral``), and
    ``reduce`` int or ``Rat`` values.  After
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
        """Return row / den reduced against all stored pivots (a fresh dict
        of ``Rat`` values); the reduction runs in ints over a common
        denominator, divided once at the end."""
        row, den = self._reduce(*integral(row, den))
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
