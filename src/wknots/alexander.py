"""Alexander polynomial of a (long) w-knot.

Two independent computation paths:

* ``alexander_matrix`` — a determinant formula on the Gauss diagram, built
  from the diagonal sign matrix S and the integer "trapping" matrix T that
  records which crossings an over-strand traps under itself along the long
  line.  Works for every w-knot diagram.  One determinant over
  ℤ[X, X^{-1}] gives both the polynomial and, by substituting X = e^x, the
  power series A(e^x) of the expansion bridge; ``linalg.RatMatrix.det``
  takes it as one integer Bareiss elimination, the matrix evaluated at a
  large power of 2 and the polynomial read off the digits of the result.
* ``alexander_fox`` — the classical route: Wirtinger presentation from a
  planar-diagram code, free (Fox) differential calculus, minor determinant.
  Only valid for classical diagrams; used as an oracle for the first path.
"""

import os

from .rings import LaurentPoly, laurent_at_exp, laurent_normalize
from .linalg import RatMatrix
from .gauss import _pd_crossing_sign, pd_from_text


def _ordered_arrows(k):
    """Arrows sorted by head slot: the matrix rows/columns index order."""
    return sorted(k.arrows, key=lambda a: a[1])


def build_S(k):
    """Diagonal matrix of crossing signs, in arrow (head-slot) order."""
    arrows = _ordered_arrows(k)
    n = len(arrows)
    return [[arrows[i][2] if i == j else 0 for j in range(n)] for i in range(n)]


def build_T(k):
    """Trapping matrix: T[i][j] = ±1 when arrow i traps the head of arrow j.

    Arrow i with tail t and head h "traps" the stretch of the long line its
    over-strand covers: slots strictly between t and h for a right-pointing
    arrow (t < h), and slots in [h, t) — including its own head — for a
    left-pointing one, counted with sign −1.
    """
    arrows = _ordered_arrows(k)
    n = len(arrows)
    T = [[0] * n for _ in range(n)]
    for i, (t, h, _) in enumerate(arrows):
        for j, (_, hj, _) in enumerate(arrows):
            if t < h:
                if t < hj < h:
                    T[i][j] = 1
            else:
                if h <= hj < t:
                    T[i][j] = -1
    return T


def alexander_det(k):
    """The raw determinant D(X) = det(I − diag(X^{s_i} − 1) · T) over
    ℤ[X, X^{-1}], before unit normalization; D(1) = 1."""
    S, T = build_S(k), build_T(k)
    one = LaurentPoly.const(1)
    rows = [[(one if i == j else 0) - (LaurentPoly.x(S[i][i]) - one) * T[i][j]
             for j in range(len(T))] for i in range(len(T))]
    return RatMatrix(rows).det(one)


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
    Under abelianization the running prefix u contributes X^(exponent sum).
    """
    out = LaurentPoly.const(0)
    prefix = 0  # exponent sum of the prefix read so far
    for g, s in word:
        if g == gen:
            if s > 0:
                out = out + LaurentPoly.x(prefix)
            else:
                out = out + LaurentPoly.x(prefix - 1, -1)
        prefix += s
    return out


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
