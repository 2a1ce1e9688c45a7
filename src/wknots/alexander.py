"""Alexander polynomial of a (long) w-knot.

Two independent computation paths:

* ``alexander_matrix`` — a determinant formula on the Gauss diagram.  Its
  matrix is read straight off the arrows, with each column less the one
  before it, a change of determinant 1 after which each row holds at most
  3 entries: X^s at its own column, 1 − X^s where the run of heads its
  over-strand traps ends, and −1 at the next column.  So no dense matrix
  is built, and no ring arithmetic runs before the determinant but one
  addition where two of a row's entries meet.  Works for every w-knot
  diagram.  One determinant over ℤ[X, X^{-1}] gives both the polynomial
  and, by substituting X = e^x, the power series A(e^x) of the expansion
  bridge; ``linalg.RatMatrix.det`` takes it as one sparse integer Bareiss
  elimination, the matrix evaluated at a large power of 2 and the
  polynomial read off the digits of the result.
* ``alexander_fox`` — the classical route: Wirtinger presentation from a
  planar-diagram code, free (Fox) differential calculus, minor determinant.
  Arcs are counted along the knot, one ending at each under-passage.  A
  relator holds 3 generators, so its Jacobian row has at most 3 nonzero
  entries, and only those are derived and handed to the same sparse
  determinant.  A link or a malformed code never gets here:
  ``gauss.PDCode`` refuses it when the code is read, for this path and
  the first alike.  Classical diagrams only; used as an oracle for the
  first path.
"""

import os
from bisect import bisect_left

from .rings import LaurentPoly, laurent_at_exp, laurent_normalize
from .linalg import RatMatrix
from .gauss import pd_from_text


def _gauss_rows(k):
    """The matrix I − diag(X^{s_i} − 1) · T of ``alexander_det`` with each
    column j > 0 less column j − 1, read off the arrows sorted by head
    slot, as sparse rows: dicts column -> ``LaurentPoly``.

    T is the trapping matrix.  Arrow i with tail t and head h traps the
    stretch of the long line its over-strand covers: the heads strictly
    between t and h of a right-pointing arrow (t < h), with T_ij = 1, and
    the heads in [h, t) of a left-pointing one — its own head included —
    with T_ij = −1.  Entry (i, j) of the matrix is δ_ij + T_ij − T_ij·X^s,
    s the sign of arrow i.  The heads arrow i traps are consecutive in
    head order, a run [a, b), so row i is v = T·(1 − X^s) on the run plus
    1 at column i; differenced, it is v at a, −v at b, 1 at i and −1 at
    i + 1.  A right-pointing run ends at b = i, and a left-pointing one
    starts at a = i, so the row is X^s at i, 1 − X^s at the run's other
    end f, and −1 at i + 1: at most 3 entries, with columns past n − 1
    left out.  In both cases f is the number of heads left of the tail t.
    Two of them meet where the run is empty (f = i, the entry 1) or is
    the arrow's own head alone (f = i + 1, the entry −X^s), never to 0.
    Subtracting column j − 1 from column j, for j from n − 1 down to 1, is
    a column operation of determinant 1.
    """
    arrows = sorted(k.arrows, key=lambda a: a[1])
    heads = [h for _, h, _ in arrows]
    n, rows = len(arrows), []
    for i, (t, _, s) in enumerate(arrows):
        row = {}
        for j, p in ((i, LaurentPoly.x(s)),
                     (bisect_left(heads, t), LaurentPoly({0: 1, s: -1})),
                     (i + 1, LaurentPoly.const(-1))):
            if j < n:
                row[j] = row[j] + p if j in row else p
        rows.append(row)
    return rows


def alexander_det(k):
    """The raw determinant D(X) = det(I − diag(X^{s_i} − 1) · T) over
    ℤ[X, X^{-1}], before unit normalization; D(1) = 1, and D = 1 for the
    empty diagram.  ``_gauss_rows`` reads the matrix, its columns
    differenced, off the arrows as sparse rows of Laurent polynomials, and
    ``RatMatrix.det`` takes its one determinant."""
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
    # one relation is redundant, and so is one column: drop the last of
    # each; a relator's derivative is 0 on every generator it does not
    # hold, and is taken once for each one it does
    rows = [{g: _fox_derivative(rel, g)
             for g in dict.fromkeys(g for g, _ in rel) if g < num_arcs - 1}
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
