"""Degree-truncated universal finite type invariant Z and the wheels bridge.

``zed_braid`` sends each crossing of a w-braid word to the exponential of a
single arrow between the two crossing strands (tail on the over strand);
``zed_knot`` does the same along a long-knot Gauss diagram.  Both truncate
at a degree cap.  On the long strand the quotient A^w(↑) is the
commutative polynomial algebra on the single arrow ``a`` and the wheels;
``wheels_reduce`` reads an expansion in that wheel-monomial basis, and
``predicted_from_alexander`` computes the same coordinates from the
Alexander polynomial alone, inside the monomial algebra.
"""

from functools import cache
from math import factorial

from .rational import rat
from .rings import laurent_at_exp, series_log
from .arrows import LONG, strands, ArrowVector, canonical_long, canonical_word, quotient
from .jacobi import monomial_to_arrows, wheel_monomial_basis, concat
from .linalg import SparseEchelon
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
            out.comps[m] = out.comps[m] + term.comps[m] * rat(1, factorial(k))
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
                    coeff = rat(sgn ** k, factorial(k))
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
                coeff * rat(s ** k, factorial(k)))
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

def get_quotient(skeleton, m, relset):
    """``arrows.quotient``, built once per process and argument set."""
    return _quotient(skeleton, m, frozenset(relset))


_quotient = cache(quotient)


def project_expansion(z, flags=frozenset()):
    """Per-degree quotient coordinates of an expansion ({TC,4T} + flags)."""
    out = []
    for m in range(z.d + 1):
        q = get_quotient(z.skeleton, m, {"TC", "4T"} | set(flags))
        out.append(tuple(q.project(z.comps[m])))
    return out


@cache
def _wheel_echelon(m, flags):
    """Echelon form of the rows [image of monomial j | e_j] for the
    wheel monomials of degree m, images taken in {TC,4T} + flags."""
    q = get_quotient(LONG, m, {"TC", "4T"} | flags)
    ech = SparseEchelon()
    for j, mono in enumerate(wheel_monomial_basis(m, flags)):
        row = dict(enumerate(q.project(monomial_to_arrows(mono))))
        row[q.dim + j] = rat(1)
        ech.add(row)
    return ech


def wheels_reduce(z, flags=frozenset({"RI"})):
    """Coordinates of a long-strand expansion in the wheel-monomial basis.

    Returns a list (per degree) of {monomial: coefficient} dicts.  The
    rows [P_j | e_j], P_j the quotient image of monomial j, are echelonized
    once per degree and flag set; reducing [target | 0] against them leaves
    [residual | −x] with Σ x_j P_j + residual = target.  A nonzero residual
    (the component lies outside the monomial span, contradicting the
    wheels description of the quotient) raises and is reported.
    """
    if z.skeleton != LONG:
        raise ValueError("long-strand expansions only")
    flags = frozenset(flags)
    out = []
    for m in range(z.d + 1):
        q = get_quotient(LONG, m, {"TC", "4T"} | flags)
        monos = wheel_monomial_basis(m, flags)
        row = _wheel_echelon(m, flags).reduce(
            dict(enumerate(q.project(z.comps[m]))))
        residual = {c: v for c, v in row.items() if c < q.dim}
        if residual:
            raise ValueError("component of degree %d outside the wheel "
                             "monomial span; residual %r" % (m, residual))
        out.append({mono: -row[q.dim + j] for j, mono in enumerate(monos)
                    if q.dim + j in row})
    return out


# --------------------------------------------------------------------------
# The Alexander bridge
# --------------------------------------------------------------------------

def predicted_from_alexander(g, d, flags=frozenset({"RI"})):
    """Wheel-monomial coordinates predicted by the Alexander polynomial.

    Reads the raw determinant D of ``alexander_det`` at X = e^{−x} (the
    sign of x matters only when D is not palindromic) and takes log; its
    x^k coefficient c_k (k ≥ 2) is the k-wheel's coefficient, the 1-wheel
    (left arrow minus right arrow, which dies under RI and under FI) gets
    −c_1, and the single arrow gets sl.  exp(sl·a − c_1 w_1 + Σ c_k w_k)
    is taken in the wheel-monomial algebra: juxtaposition of monomial
    images is its product and it is commutative, so the exponential
    factors and monomial Π g^{n_g} gets Π coef(g)^{n_g} / n_g!, as on the
    arrow side.
    """
    phi = series_log(laurent_at_exp(alexander_det(g).mirror(), d))
    coef = {"a": rat(self_linking(g))}
    coef.update((("w", k), phi[k]) for k in range(2, d + 1))
    if d >= 1:
        coef[("w", 1)] = -phi[1]
    out = []
    for m in range(d + 1):
        coords = {}
        for mono in wheel_monomial_basis(m, flags):
            c = rat(1)
            for gen in set(mono):
                n = mono.count(gen)
                c *= coef[gen] ** n / factorial(n)
            if c:
                coords[mono] = c
        out.append(coords)
    return out
