"""Degree-truncated universal finite type invariant Z and the wheels bridge.

``zed_braid`` sends each crossing of a w-braid word to the exponential of a
single arrow between the two crossing strands (tail on the over strand);
``zed_knot`` does the same along a long-knot Gauss diagram.  Both truncate
at a degree cap.  The wheels reduction expresses a long-strand expansion in
the wheel-monomial basis, and ``predicted_from_alexander`` computes the
same coordinates from the Alexander polynomial alone.
"""

from .rational import rat
from .rings import laurent_at_exp, series_log
from .arrows import LONG, strands, ArrowVector, canonical_long, canonical_word, quotient
from .jacobi import monomial_to_arrows, wheel_monomial_basis, concat
from .gauss import GaussDiagram, self_linking
from .alexander import alexander_det
from .wbraid import BraidWord


class TruncatedExpansion:
    """Per-degree arrow-vector components 0..d on one skeleton."""

    def __init__(self, skeleton, d, comps=None):
        self.skeleton = skeleton
        self.d = d
        self.comps = {}
        for m in range(d + 1):
            self.comps[m] = ArrowVector(skeleton, m)
        if comps:
            for m, v in comps.items():
                self.comps[m] = v

    @classmethod
    def unit(cls, skeleton, d):
        z = cls(skeleton, d)
        z.comps[0].add_term((), rat(1))
        return z

    def __mul__(self, other):
        """Product by juxtaposition (long strand) or concatenation (words)."""
        if (self.skeleton, self.d) != (other.skeleton, other.d):
            raise ValueError("mismatched expansions")
        out = TruncatedExpansion(self.skeleton, self.d)
        for i in range(self.d + 1):
            for j in range(self.d + 1 - i):
                a, b = self.comps[i], other.comps[j]
                if a.is_zero() or b.is_zero():
                    continue
                if self.skeleton == LONG:
                    out.comps[i + j] = out.comps[i + j] + concat(a, b)
                else:
                    n = self.skeleton[1]
                    for wa, ca in a.terms.items():
                        for wb, cb in b.terms.items():
                            out.comps[i + j].add_term(
                                canonical_word(wa + wb, n), ca * cb)
        return out


def expansion_exp(e):
    """exp of an expansion with zero degree-0 part."""
    if not e.comps[0].is_zero():
        raise ValueError("exponential needs a zero constant term")
    out = TruncatedExpansion.unit(e.skeleton, e.d)
    term = TruncatedExpansion.unit(e.skeleton, e.d)
    for k in range(1, e.d + 1):
        term = term * e
        for m in range(e.d + 1):
            out.comps[m] = out.comps[m] + term.comps[m] * rat(1, fact(k))
    return out


def fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


# --------------------------------------------------------------------------
# Z for braids
# --------------------------------------------------------------------------

def zed_braid(b, d, start=None):
    """Truncated expansion of a w-braid word on the strands(n) skeleton.

    Crossings map to exp(ε·a) for the arrow a from the over strand to the
    under strand; virtual crossings only permute.  ``start`` optionally
    gives the strand occupying each position initially (for composing
    expansions across a split word).  Flip letters are not supported.
    """
    if not isinstance(b, BraidWord):
        raise TypeError("expected a BraidWord")
    n = b.n
    skel = strands(n)
    pos = list(start) if start else list(range(1, n + 1))
    z = TruncatedExpansion.unit(skel, d)
    for kind, i, sgn in b.letters:
        if kind == "f":
            raise ValueError("flip letters have no arrow-valued expansion")
        lo, hi = pos[i - 1], pos[i]
        if kind == "s":
            over, under = (lo, hi) if sgn > 0 else (hi, lo)
            letter = (over, under)
            nz = TruncatedExpansion(skel, d)
            for m in range(d + 1):
                for k in range(0, m + 1):
                    src = z.comps[m - k]
                    if src.is_zero():
                        continue
                    coeff = rat(sgn ** k, fact(k))
                    for w, c in src.terms.items():
                        nz.comps[m].add_term(
                            canonical_word(w + (letter,) * k, n), c * coeff)
            z = nz
        pos[i - 1], pos[i] = pos[i], pos[i - 1]
    return z


# --------------------------------------------------------------------------
# Z for long knots
# --------------------------------------------------------------------------

def zed_knot(g, d, normalize=False):
    """Truncated expansion of a long w-knot Gauss diagram.

    Each crossing contributes exp(s·a) of its arrow; expanding the product
    along the strand amounts to summing over per-crossing multiplicities
    (k_1..k_n), placing k_c parallel copies of arrow c (order-preserving in
    both endpoint bundles) with coefficient Π s_c^{k_c} / k_c!.

    With ``normalize`` the result is multiplied by exp(−sl·arrow), killing
    the writhe dependence (full kink removal on top of the kink-flip move).
    """
    if not isinstance(g, GaussDiagram):
        raise TypeError("expected a GaussDiagram")
    arrows = list(g.canonical())
    z = TruncatedExpansion(LONG, d)
    B = d + 2  # sub-slot scale for parallel copies

    def rec(idx, used, placed, coeff):
        if idx == len(arrows):
            z.comps[used].add_term(canonical_long(placed), coeff)
            return
        t, h, s = arrows[idx]
        k = 0
        while used + k <= d:
            copies = [(t * B + j, h * B + j) for j in range(k)]
            rec(idx + 1, used + k, placed + copies,
                coeff * rat(s ** k, fact(k)))
            k += 1

    rec(0, 0, [], rat(1))
    if normalize:
        sl = self_linking(g)
        e = TruncatedExpansion(LONG, d)
        if d >= 1:
            e.comps[1].add_term(((1, 2),), rat(-sl))
        z = z * expansion_exp(e)
    return z


# --------------------------------------------------------------------------
# Quotient projection and the wheels reduction
# --------------------------------------------------------------------------

_QUOTIENTS = {}


def get_quotient(skeleton, m, relset):
    key = (skeleton, m, frozenset(relset))
    if key not in _QUOTIENTS:
        _QUOTIENTS[key] = quotient(skeleton, m, relset)
    return _QUOTIENTS[key]


def project_expansion(z, flags=frozenset()):
    """Per-degree quotient coordinates of an expansion ({TC,4T} + flags)."""
    out = []
    for m in range(z.d + 1):
        q = get_quotient(z.skeleton, m, {"TC", "4T"} | set(flags))
        out.append(tuple(q.project(z.comps[m])))
    return out


def wheels_reduce(z, flags=frozenset({"RI"})):
    """Coordinates of a long-strand expansion in the wheel-monomial basis.

    Returns a list (per degree) of {monomial: coefficient} dicts.  Raises
    if some component lies outside the span of the monomial images (the
    residual is reported), which would contradict the wheels description
    of the quotient at this degree.
    """
    if z.skeleton != LONG:
        raise ValueError("long-strand expansions only")
    out = []
    for m in range(z.d + 1):
        q = get_quotient(LONG, m, {"TC", "4T"} | set(flags))
        monos = wheel_monomial_basis(m, flags)
        cols = [q.project(monomial_to_arrows(mono)) for mono in monos]
        target = q.project(z.comps[m])
        coeffs = _solve(cols, target)
        if coeffs is None:
            raise ValueError("component of degree %d outside the wheel "
                             "monomial span; residual %r" % (m, target))
        out.append({mono: c for mono, c in zip(monos, coeffs) if c})
    return out


def _solve(cols, target):
    """Solve sum_j x_j cols[j] = target exactly; None if inconsistent."""
    rows = len(target)
    ncols = len(cols)
    aug = [[cols[j][i] for j in range(ncols)] + [target[i]]
           for i in range(rows)]
    piv = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, rows) if aug[i][c]), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv.append(c)
        r += 1
    for i in range(r, rows):
        if aug[i][ncols]:
            return None
    sol = [rat(0)] * ncols
    for i, c in enumerate(piv):
        sol[c] = aug[i][ncols]
    return sol


# --------------------------------------------------------------------------
# The Alexander bridge
# --------------------------------------------------------------------------

def predicted_from_alexander(g, d, flags=frozenset({"RI"})):
    """Wheel-monomial coordinates predicted by the Alexander polynomial.

    Reads the raw determinant D of ``alexander_det`` at X = e^{−x} (the
    sign of x matters only when D is not palindromic), takes log, maps x^k
    to the k-wheel for k ≥ 2 (the x^1 coefficient is a unit-normalization
    artifact and its carrier dies in the RI quotient), adds sl·(single
    arrow) in degree 1, exponentiates, and reads off wheel coordinates.
    """
    phi = series_log(laurent_at_exp(alexander_det(g).mirror(), d))
    e = TruncatedExpansion(LONG, d)
    if d >= 1:
        e.comps[1].add_term(((1, 2),), rat(self_linking(g)))
    for k in range(2, d + 1):
        ck = phi[k]
        if ck:
            wk = monomial_to_arrows((("w", k),))
            e.comps[k] = e.comps[k] + wk * ck
    z = expansion_exp(e)
    return wheels_reduce(z, flags)
