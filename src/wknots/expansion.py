"""Degree-truncated universal finite type invariant Z and the wheels bridge.

``zed_braid`` sends each crossing of a w-braid word to the exponential of a
single arrow between the two crossing strands (tail on the over strand);
``zed_knot`` does the same along a long-knot Gauss diagram, summing over
arrow supports.  Both truncate at a degree cap d and sum integer
numerators over d!.  On the long strand the quotient A^w(↑) is the
commutative polynomial algebra on the single arrow ``a`` and the wheels;
``wheels_reduce`` reads an expansion in that wheel-monomial basis, and
``predicted_from_alexander`` computes the same coordinates from the
Alexander polynomial alone, inside the monomial algebra.
"""

from functools import cache
from itertools import combinations
from math import factorial

from .rational import rat
from .rings import laurent_at_exp, series_log
from .arrows import LONG, strands, ArrowVector, canonical_word, quotient
from .jacobi import monomial_to_arrows, wheel_monomial_basis, concat
from .linalg import SparseEchelon
from .gauss import GaussDiagram, self_linking
from .alexander import alexander_det
from .wbraid import BraidWord


class TruncatedExpansion:
    """Per-degree arrow-vector components 0..d on one skeleton."""

    def __init__(self, skeleton, d):
        self.skeleton = skeleton
        self.d = d
        self.comps = {m: ArrowVector(skeleton, m) for m in range(d + 1)}

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
    Every coefficient is a sum of products Π ±1/k! with Σk ≤ d, so d! times
    it is an integer; those numerators are summed and divided by d! once.
    """
    if not isinstance(b, BraidWord):
        raise TypeError("expected a BraidWord")
    n = b.n
    pos = list(start) if start else list(range(1, n + 1))
    nums = [{(): factorial(d)}] + [{} for _ in range(d)]
    for kind, i, sgn in b.letters:
        if kind == "f":
            raise ValueError("flip letters have no arrow-valued expansion")
        lo, hi = pos[i - 1], pos[i]
        if kind == "s":
            letter = (lo, hi) if sgn > 0 else (hi, lo)  # (over, under)
            new = [{} for _ in range(d + 1)]
            for m in range(d + 1):
                for k in range(m + 1):
                    sign, kf = sgn ** k, factorial(k)
                    for w, c in nums[m - k].items():
                        key = canonical_word(w + (letter,) * k, n)
                        new[m][key] = new[m].get(key, 0) + sign * c // kf
            nums = [{w: c for w, c in acc.items() if c} for acc in new]
        pos[i - 1], pos[i] = pos[i], pos[i - 1]
    return _from_numerators(strands(n), d, nums)


# --------------------------------------------------------------------------
# Z for long knots
# --------------------------------------------------------------------------

def zed_knot(g, d, normalize=False):
    """Truncated expansion of a long w-knot Gauss diagram.

    Each crossing contributes exp(s·a) of its arrow.  The product along the
    strand is a sum over supports: each set S of at most d arrows, in slot
    order, with each positive composition (k_c) of at most d over S, gives
    k_c parallel copies of arrow c with coefficient Π s_c^{k_c} / k_c!.  An
    endpoint of c sits at 1 + the sum of k_c' over the endpoints of S before
    it, copy j at (tail + j, head + j): the diagram is already canonical.
    Coefficients are summed as integer numerators over d!.

    With ``normalize`` the result is multiplied by exp(−sl·arrow), killing
    the writhe dependence (full kink removal on top of the kink-flip move).
    """
    if not isinstance(g, GaussDiagram):
        raise TypeError("expected a GaussDiagram")
    arrows = g.canonical()
    nums = [{} for _ in range(d + 1)]
    for p in range(min(len(arrows), d) + 1):
        for sub in combinations(arrows, p):
            # endpoint 2c is the tail of sub[c], 2c + 1 its head
            order = sorted(range(2 * p), key=lambda e: sub[e >> 1][e & 1])
            negative = [c for c in range(p) if sub[c][2] < 0]
            slot = [0] * (2 * p)
            for ks, m, num in _compositions(p, d):
                s = 1
                for e in order:
                    slot[e], s = s, s + ks[e >> 1]
                diagram = tuple((slot[2 * c] + j, slot[2 * c + 1] + j)
                                for c in range(p) for j in range(ks[c]))
                if sum(ks[c] for c in negative) & 1:
                    num = -num
                nums[m][diagram] = nums[m].get(diagram, 0) + num
    z = _from_numerators(LONG, d, nums)
    if normalize:
        e = TruncatedExpansion(LONG, d)
        if d >= 1:
            e.comps[1].add_term(((1, 2),), rat(-self_linking(g)))
        z = z * expansion_exp(e)
    return z


@cache
def _compositions(p, d):
    """(ks, m, d!/Π k_c!) for each p-tuple ks of positive ints, sum m ≤ d."""
    if p == 0:
        return (((), 0, factorial(d)),)
    return tuple((ks + (k,), m + k, num // factorial(k))
                 for ks, m, num in _compositions(p - 1, d)
                 for k in range(1, d - m + 1))


def _from_numerators(skeleton, d, nums):
    """The expansion whose degree-m terms are nums[m] / d!."""
    z, fact = TruncatedExpansion(skeleton, d), factorial(d)
    for comp, acc in zip(z.comps.values(), nums):
        comp.terms = {w: rat(c, fact) for w, c in acc.items() if c}
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
