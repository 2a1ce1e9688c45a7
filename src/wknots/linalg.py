"""Exact sparse echelon reduction and fraction-free determinants.

The echelon form produced here is the canonical reduced row-echelon form
of the row space: pivot columns are the leftmost possible, pivot entries
are 1, and pivots are eliminated from every other row.  Because RREF is
unique per subspace, the output is bit-identical no matter the order in
which rows are fed in; a column index finds the rows that a new pivot
must be eliminated from.  Stored entries are Python ints wherever they are
integral.  The relators of the arrow-diagram quotients have coefficients
±1 and nearly all of them reduce to rows whose pivot entry is ±1, so
those builds run in integer arithmetic; ``Rat`` appears only where a
pivot is not ±1 (a few rows per space) or an input row is not integral,
and integral results go back to ints.  Every value handed back to
callers is a ``Rat``; a row of ints over a denominator is divided last.

Determinants use one algorithm for every ring: Bareiss elimination
(Math. Comp. 22, 1968), which divides only exactly, so it runs over
ℤ[X^±1] and Q alike.
"""

from __future__ import annotations

from .rational import Rat


class SparseEchelon:
    """Incremental reduced row-echelon form over Q.

    Rows are sparse dicts column -> nonzero value, int or ``Rat``.  After
    every insertion the stored rows satisfy: each row's minimal column is
    its pivot, the pivot coefficient is 1, no other stored row has support
    on any pivot column, and every integral entry is an int.  A new row
    whose pivot entry is ±1 is normalized by negation, so integer rows
    with unit pivots never leave the integers; any other pivot entry is
    divided out in ``Rat``.

    ``holders`` maps each column to the pivots of the stored rows that
    hold it off their pivot, so ``add`` eliminates a new pivot only from
    the rows that contain it, updating the map as entries appear and cancel.
    """

    def __init__(self):
        self.rows = {}  # pivot column -> row dict
        self.holders = {}  # column -> pivots of the rows holding it

    def reduce(self, row, den=1):
        """Return row / den reduced against all stored pivots (a fresh dict
        of ``Rat`` values); a row of ints over den is reduced in ints."""
        return {c: v / den if type(v) is Rat else Rat(v, den)
                for c, v in self._reduce(row).items()}

    def _reduce(self, row):
        row = {c: v for c, v in row.items() if v}
        for c in sorted(row):
            if c not in row:
                continue
            piv = self.rows.get(c)
            if piv is None:
                continue
            factor = row[c]
            for pc, pv in piv.items():
                w = row.get(pc, 0) - factor * pv
                if w:
                    row[pc] = w
                else:
                    row.pop(pc, None)
        return row

    def add(self, row) -> bool:
        """Insert a row; returns True if the rank increased."""
        row = self._reduce(row)
        if not row:
            return False
        p = min(row)
        head = row[p]
        if head == -1:
            row = {c: -v for c, v in row.items()}
        elif head != 1:
            inv = 1 / Rat(head)
            row = {c: v * inv for c, v in row.items()}
        integral = _narrow(row)
        holders = self.holders
        rest = [(c, v) for c, v in row.items() if c != p]
        # eliminate the new pivot from the existing rows that hold it
        for q in holders.pop(p, ()):
            r = self.rows[q]
            f = r.pop(p)
            for c, v in rest:
                w = r.get(c, 0) - f * v
                if w:
                    if c not in r:
                        holders.setdefault(c, set()).add(q)
                    r[c] = w
                else:
                    del r[c]
                    holders[c].discard(q)
            # int - int·int stays an int, and a non-integral entry minus
            # an int stays non-integral; only other updates need narrowing
            if not (integral and type(f) is int):
                _narrow(r)
        for c, _ in rest:
            holders.setdefault(c, set()).add(p)
        self.rows[p] = row
        return True

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)


def _narrow(row):
    """Turn the integral values of a row into ints, in place; returns
    whether every value is now an int."""
    integral = True
    for c, v in row.items():
        if type(v) is not int:
            if v.denominator == 1:
                row[c] = int(v)
            else:
                integral = False
    return integral


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
