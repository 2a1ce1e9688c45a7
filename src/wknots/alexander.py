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
  Only valid for classical diagrams; used as an oracle for the first path.
"""

import os
from bisect import bisect_left

from .rings import LaurentPoly, laurent_at_exp, laurent_normalize
from .linalg import RatMatrix
from .gauss import _pd_crossing_sign, pd_from_text


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
    """Arcs and crossing relations of a classical PD code.

    Returns (num_arcs, relations) where each relation is a word in the arc
    generators, as a list of (arc index, ±1): at a crossing with sign ε,
    over-arc o, incoming under-arc u and outgoing under-arc v, the relator
    is o^ε u o^{−ε} v^{−1}.
    """
    m = 2 * len(pd.crossings)
    parent = list(range(m + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    signed = []
    for a, b, c, d in pd.crossings:
        s = _pd_crossing_sign(a, b, c, d, m)
        over_in, over_out = (d, b) if s > 0 else (b, d)
        union(over_in, over_out)
        signed.append((a, c, over_in, s))
    arc_of = {}
    for e in range(1, m + 1):
        arc_of.setdefault(find(e), len(arc_of))
    arcs = {e: arc_of[find(e)] for e in range(1, m + 1)}

    relations = []
    for a, c, over, s in signed:
        o, u, v = arcs[over], arcs[a], arcs[c]
        relations.append([(o, s), (u, 1), (o, -s), (v, -1)])
    return len(arc_of), relations


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

    Builds the Jacobian of the Wirtinger relators, deletes one column, and
    takes the minor determinant.  Raises if the presentation is degenerate.
    """
    num_arcs, relations = _wirtinger(pd)
    if num_arcs <= 1:
        # unknotted: no arc or a single one, trivial polynomial
        return LaurentPoly.const(1)
    rows = []
    for rel in relations:
        rows.append([_fox_derivative(rel, g) for g in range(num_arcs - 1)])
    # the Wirtinger presentation has one redundant relation: drop the last
    rows = rows[:-1]
    if len(rows) != num_arcs - 1:
        raise ValueError("degenerate Wirtinger presentation")
    det = RatMatrix(rows).det(LaurentPoly.const(1))
    if det.is_zero():
        raise ValueError("vanishing Alexander determinant (invalid code?)")
    if abs(det(1)) != 1:
        raise ValueError("Alexander determinant fails A(1) = ±1 (not a knot?)")
    return laurent_normalize(det)


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
