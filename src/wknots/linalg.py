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

Determinants take one ring, ℤ[X^±1], by one algorithm: Bareiss
elimination (Math. Comp. 22, 1968) over Python ints, which divides only
exactly.  The Laurent matrix is evaluated at a power of 2 large enough,
by Hadamard's bound on its rows, that the int determinant spells out the
polynomial's coefficients as its digits.  The matrix is sparse (the
Alexander matrices have at most 3 nonzero entries a row), so only its
nonzero entries are evaluated and eliminated, as dict rows: each pivot is
the entry of least Markowitz count (Management Sci. 3, 1957), which keeps
the fill-in small, and a row that steps pass by is left at its level:
its next update divides by that level's pivot, and only a pivot row is
brought up to the current step.
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
    """A sparse square matrix of ``LaurentPoly`` entries, whose one
    algorithm is ``det``: fraction-free Bareiss elimination over Python
    ints, on the nonzero entries only.

    Row i is a dict column -> entry; a column a row leaves out, or holds a
    zero entry at, is 0 there.  A row enters by Kronecker substitution, so
    no ring arithmetic runs inside the elimination; the polynomial is read
    back from the one int it returns.  The class keeps its name because
    ``perfbench/trace.py`` wraps ``RatMatrix.det`` and reads ``nrows``.
    """

    def __init__(self, rows):
        self.rows = [dict(r) for r in rows]
        self.nrows = len(self.rows)
        if any(j not in range(self.nrows) for r in self.rows for j in r):
            raise ValueError("not a square matrix")

    def det(self, one):
        """Exact determinant over ℤ[X, X^{-1}]; `one` is the ring's
        ``LaurentPoly`` one, and any other value raises ``TypeError``.

        Row i is divided by X^{s_i}, s_i its least exponent, and its
        nonzero entries are evaluated at X = 2^B (Kronecker substitution),
        so the int determinant is the shifted determinant at 2^B.  B comes
        from a bound H on the coefficients of every minor.  Write |p| for
        the sum of the |coefficients| of an entry p, and let H be the
        product over the rows i of √(Σ_j |p_ij|²).  On the unit circle
        |p(z)| ≤ |p|, so by Hadamard's inequality a minor m has |m(z)| at
        most the product of its rows' norms, and so at most H, as each
        nonzero row's norm is at least 1 (a zero row makes H and the
        determinant 0).  Each coefficient of m, the mean of m(z)·z^{-k}
        over the circle, is then at most H.  With 2^(B−1) > H the balanced
        base-2^B digits of the int determinant are exactly the coefficients
        of the shifted determinant, which is multiplied by X^{Σ s_i} at the
        end; and a minor is zero exactly when its value at 2^B is, so every
        nonzero int pivot is a nonzero Laurent minor.  H is taken on the
        rows as given, so a caller that hands in sparser rows of the same
        determinant (``alexander._gauss_rows`` differences its columns)
        gets a smaller B.  (The product of the rows' Σ_j |p_ij| bounds the
        minors too, but on large Gauss-diagram matrices it takes about 1.7
        times the bits.)

        Only the nonzero entries are evaluated, and ``_bareiss`` eliminates
        them in place, as dict rows: each step's pivot is the entry of least
        Markowitz count (row count − 1)·(column count − 1), and a row that
        no pivot column has met since step s stays at level s: when a pivot
        column next meets it, its update divides by p_s in place of p_k,
        and only a pivot row is first brought to step k by ·p_k // p_s.
        Each division is exact.
        """
        if not isinstance(one, LaurentPoly):
            raise TypeError("RatMatrix.det takes LaurentPoly entries only")
        rows = [[(j, p.coeffs) for j, p in r.items() if p.coeffs]
                for r in self.rows]
        square = prod(sum(sum(map(abs, cs.values())) ** 2 for _, cs in r)
                      for r in rows)  # H²
        B = (square.bit_length() + 3) // 2  # 2^(2B−2) > H²
        low = [min((min(cs) for _, cs in r), default=0) for r in rows]
        v = _bareiss([{j: sum(c << B * (e - s) for e, c in cs.items())
                       for j, cs in r} for r, s in zip(rows, low)])
        half, coeffs, e = 1 << (B - 1), {}, sum(low)
        while v:  # balanced base-2^B digits, lowest first
            coeffs[e] = d = ((v + half) & ((1 << B) - 1)) - half
            v, e = (v - d) >> B, e + 1
        return LaurentPoly(coeffs)


def _bareiss(rows):
    """Determinant of the square int matrix whose row i is the dict
    ``rows[i]``, column -> nonzero int (consumed), by fraction-free Bareiss
    elimination (Math. Comp. 22, 1968) over the nonzero entries.

    Step k = 1..n takes a pivot p_k at (r_k, c_k) and replaces each entry
    a_ij of a row i that holds c_k by (p_k·a_ij − a_i,c_k·a_r_k,j) //
    p_{k−1} (p_0 = 1): the minor on rows r_1..r_k, i and columns
    c_1..c_k, j, so the division is exact.  Any nonzero pivot gives the
    same determinant, so the pivot is the entry of least Markowitz count,
    (row count − 1)·(column count − 1) over the rows left (Management
    Sci. 3, 1957): it bounds the fill-in of the step.

    Lazy levels: a row that holds none of c_{s+1}..c_k would be scaled by
    p_t / p_{t−1} at each of those steps, so after step k it is its level-s
    self times p_k / p_s.  A row keeps its level s, the last step that
    changed it.  When step k + 1 meets it as a row that holds the pivot
    column, the scaling and the step's division fold into one: its entries
    become (p_{k+1}·a_ij − a_i,c·a_r,j) // p_s, the same minors, so the
    division is exact.  Only the pivot row is first brought to level k,
    by ·p_k // p_s, exact as its entries are then minors.

    The last pivot is the determinant of the rows r_k and columns c_k in
    pivot order, so the determinant is it times the sign of the row order
    times the sign of the column order: the sign of the permutation
    r_k ↦ c_k.  A row left with no entries makes the determinant 0.
    """
    n = len(rows)
    if not all(rows):
        return 0
    count = {}  # column -> the number of rows left that hold it
    for row in rows:
        for c in row:
            count[c] = count.get(c, 0) + 1
    left, level, piv, perm = set(range(n)), [0] * n, [1], [0] * n
    for k in range(n):
        _, i = min(((len(rows[r]) - 1)
                    * (min(map(count.__getitem__, rows[r])) - 1), r)
                   for r in left)
        pivot = rows[i]
        j = perm[i] = min(pivot, key=count.__getitem__)
        left.remove(i)
        s = level[i]
        if s < k:  # the pivot row brought to level k
            m, d = piv[k], piv[s]
            for c in pivot:
                pivot[c] = pivot[c] * m // d
        p = pivot.pop(j)
        for c in pivot:
            count[c] -= 1
        del count[j]
        for r in left:
            row = rows[r]
            if j not in row:
                continue
            f, d = row.pop(j), piv[level[r]]
            for c in row:
                row[c] *= p
            for c, v in pivot.items():
                w = row.get(c, 0) - f * v
                if w:
                    if c not in row:
                        count[c] += 1
                    row[c] = w
                else:
                    del row[c]
                    count[c] -= 1
            if not row:
                return 0
            for c in row:
                row[c] //= d
            level[r] = k + 1
        piv.append(p)
    inversions = sum(perm[a] > perm[b] for a in range(n)
                     for b in range(a + 1, n))
    return -piv[n] if inversions % 2 else piv[n]
