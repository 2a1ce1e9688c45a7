"""Alexander polynomial of a (long) w-knot.

Two independent computation paths:

* ``alexander_matrix`` — a determinant formula on the Gauss diagram.  Its
  matrix is read straight off the arrows: each entry is one Laurent
  polynomial, from the sign of a crossing and whether its over-strand
  traps another crossing's head along the long line, so no ring
  arithmetic runs before the determinant.  Works for every w-knot
  diagram.  One determinant over ℤ[X, X^{-1}] gives both the polynomial
  and, by substituting X = e^x, the power series A(e^x) of the expansion
  bridge; ``linalg.RatMatrix.det`` takes it as one integer Bareiss
  elimination, the matrix evaluated at a large power of 2 and the
  polynomial read off the digits of the result.
* ``alexander_fox`` — the classical route: Wirtinger presentation from a
  planar-diagram code, free (Fox) differential calculus, minor determinant.
  Arcs are counted along the knot, one ending at each under-passage.  A
  link or a malformed code never gets here: ``gauss.PDCode`` refuses it
  when the code is read, for this path and the first alike.  Classical
  diagrams only; used as an oracle for the first path.
"""

import os
from bisect import bisect_left

from .rings import LaurentPoly, laurent_at_exp, laurent_normalize
from .linalg import RatMatrix
from .gauss import pd_from_text


def _gauss_rows(k):
    """The matrix I − diag(X^{s_i} − 1) · T of ``alexander_det``, read off
    the arrows sorted by head slot: entry (i, j) is
    δ_ij + T_ij − T_ij·X^{s_i}.

    T is the trapping matrix.  Arrow i with tail t and head h traps the
    stretch of the long line its over-strand covers: the heads strictly
    between t and h of a right-pointing arrow (t < h), with T_ij = 1, and
    the heads in [h, t) of a left-pointing one — its own head included —
    with T_ij = −1.  The heads arrow i traps are consecutive in head order,
    so its row is one run of equal off-diagonal entries.  Entries are
    immutable, so equal ones are one object.
    """
    arrows = sorted(k.arrows, key=lambda a: a[1])
    heads = [h for _, h, _ in arrows]
    n, zero, rows = len(arrows), LaurentPoly(), []
    for i, (t, h, s) in enumerate(arrows):
        T, lo, hi = (1, t + 1, h) if t < h else (-1, h, t)
        a, b = bisect_left(heads, lo), bisect_left(heads, hi)
        row = [zero] * a + [LaurentPoly({0: T, s: -T})] * (b - a)
        row += [zero] * (n - b)
        # T_ii is −1 for a left-pointing arrow, which traps its own head
        row[i] = LaurentPoly({0: 1} if t < h else {s: 1})
        rows.append(row)
    return rows


def alexander_det(k):
    """The raw determinant D(X) = det(I − diag(X^{s_i} − 1) · T) over
    ℤ[X, X^{-1}], before unit normalization; D(1) = 1, and D = 1 for the
    empty diagram.  The matrix is built entry by entry as Laurent
    polynomials, with no ring arithmetic, and ``RatMatrix.det`` takes its
    one determinant."""
    return RatMatrix(_gauss_rows(k)).det(LaurentPoly.const(1))


def alexander_matrix(k, d=5):
    """Alexander polynomial of a Gauss diagram: (series in x, Laurent in X).

    Both come from the one determinant D of ``alexander_det``: D unit-
    normalized, and D(e^x) truncated at degree d, whose constant term is
    D(1) = 1.  X ↦ e^x is a ring map, so D(e^x) is also the determinant
    of the matrix with X = e^x substituted entry by entry.
    """
    if d < 1:
        raise ValueError("series truncation degree must be >= 1")
    raw = alexander_det(k)
    return laurent_at_exp(raw, d), laurent_normalize(raw)


# --------------------------------------------------------------------------
# Fox-calculus oracle on the Wirtinger presentation
# --------------------------------------------------------------------------

def _wirtinger(pd):
    """Arcs and crossing relations of a PD code (``PDCode`` checked it).

    An arc ends at each under-passage: at X[a,b,c,d] the under-strand runs
    from edge a into edge c = a + 1, so the arc of edge e is the count of
    a's below e, modulo the crossing count.  Returns (num_arcs, relations),
    each relation a list of (arc, ±1): at a crossing with sign ε, over-arc
    o and under-arcs u in and v out, the relator is o^ε u o^{−ε} v^{−1}.
    """
    ends, n = sorted(a for a, _, _, _ in pd.signed), len(pd.signed)
    arc = {e: bisect_left(ends, e) % n for e in range(1, 2 * n + 1)}
    return n, [[(arc[o], s), (arc[a], 1), (arc[o], -s), (arc[c], -1)]
               for a, c, o, s in pd.signed]


def _fox_derivative(word, gen):
    """Fox derivative ∂w/∂g abelianized: every generator ↦ X.

    Rules: ∂(g)/∂g = 1, ∂(g^{-1})/∂g = −g^{-1}, ∂(uv)/∂g = ∂u/∂g + u·∂v/∂g.
    Under abelianization the running prefix u contributes X^(exponent sum),
    so each letter g^{±1} adds ±1 at one exponent, collected in one dict.
    """
    coeffs, prefix = {}, 0  # prefix: exponent sum of the letters read
    for g, s in word:
        if g == gen:
            e, c = (prefix, 1) if s > 0 else (prefix - 1, -1)
            coeffs[e] = coeffs.get(e, 0) + c
        prefix += s
    return LaurentPoly(coeffs)


def alexander_fox(pd):
    """Normalized Alexander polynomial via Fox calculus.

    Builds the Jacobian of the Wirtinger relators, deletes one column and
    one row, and takes the minor determinant, which on a code ``PDCode``
    accepts is A(1) = ±1 at X = 1: there the relator of the crossing where
    arc r ends has the row e_r − e_{r+1 mod n} (its over-arc's letters
    cancel), the rows are the incidence matrix of the cycle of arcs, and
    the minor is the reduced incidence matrix of a tree.
    """
    num_arcs, relations = _wirtinger(pd)
    # one relation is redundant: drop the last
    rows = [[_fox_derivative(rel, g) for g in range(num_arcs - 1)]
            for rel in relations[:-1]]
    return laurent_normalize(RatMatrix(rows).det(LaurentPoly.const(1)))


def knot_inventory():
    """Bundled planar-diagram codes for the classical knots 3_1 .. 7_7.

    Returns an ordered dict mapping catalog name to PDCode.
    """
    root = os.path.join(os.path.dirname(__file__), "data", "knots")
    out = {}
    for fn in sorted(os.listdir(root)):
        if fn.endswith(".pd"):
            with open(os.path.join(root, fn)) as fh:
                out[fn[:-3]] = pd_from_text(
                    "".join(ln for ln in fh if not ln.startswith("#")))
    return out
