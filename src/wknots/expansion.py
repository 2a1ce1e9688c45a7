"""Degree-truncated universal finite type invariant Z and the wheels bridge.

``zed_braid`` sends each crossing of a w-braid word to the exponential of a
single arrow between the two crossing strands (tail on the over strand);
``zed_knot`` does the same along a long-knot Gauss diagram, summing over
arrow supports, walked depth-first and counted per endpoint order and
set of negative arrows, each order's terms memoized and summed once per
sign.  Both truncate at a degree cap d and sum integer numerators over
d!, and keep them: a ``TruncatedExpansion`` holds its components as
numerators over one denominator ``den``, and ``QuotientSpace.project``
divides by it once, after adding up the images of the columns, so Z
stays in ints from the supports to the coordinates.
On the long strand the quotient A^w(↑) is the commutative polynomial
algebra on the single arrow ``a`` and the wheels; ``wheels_reduce`` reads
an expansion's quotient coordinates in that wheel-monomial basis, and
``predicted_from_alexander`` computes the same coordinates from the
Alexander polynomial alone, inside the monomial algebra.
"""

from bisect import bisect
from functools import cache, lru_cache
from math import factorial

from .rational import rat
from .rings import laurent_at_exp, series_log
from .arrows import LONG, strands, ArrowVector, quotient
from .jacobi import monomial_to_arrows, wheel_monomial_basis, concat
from .linalg import SparseEchelon
from .gauss import GaussDiagram, self_linking
from .alexander import alexander_det
from .wbraid import FLIP, BraidWord, crossings


class TruncatedExpansion:
    """Per-degree arrow-vector components 0..d on one skeleton, over one
    denominator: component m is ``comps[m] / den``.  ``zed_knot`` and
    ``zed_braid`` keep int numerators over den = d!, so the sum over
    supports and the quotient projection stay in ints."""

    def __init__(self, skeleton, d, den=1):
        self.skeleton = skeleton
        self.d = d
        self.den = den
        self.comps = {m: ArrowVector(skeleton, m) for m in range(d + 1)}

    @classmethod
    def unit(cls, skeleton, d):
        z = cls(skeleton, d)
        z.comps[0].add_term((), rat(1))
        return z

    def __mul__(self, other):
        """Product by juxtaposition (long strand) or concatenation (words):
        the numerators multiply, over the product of the denominators."""
        if (self.skeleton, self.d) != (other.skeleton, other.d):
            raise ValueError("mismatched expansions")
        out = TruncatedExpansion(self.skeleton, self.d, self.den * other.den)
        for i in range(self.d + 1):
            for j in range(self.d + 1 - i):
                a, b = self.comps[i], other.comps[j]
                if a.is_zero() or b.is_zero():
                    continue
                if self.skeleton == LONG:
                    out.comps[i + j] = out.comps[i + j] + concat(a, b)
                else:
                    for wa, ca in a.terms.items():
                        for wb, cb in b.terms.items():
                            out.comps[i + j].add_term(wa + wb, ca * cb)
        return out


def expansion_exp(e):
    """exp of an expansion with zero degree-0 part, over denominator 1."""
    if not e.comps[0].is_zero():
        raise ValueError("exponential needs a zero constant term")
    out = TruncatedExpansion.unit(e.skeleton, e.d)
    term = TruncatedExpansion.unit(e.skeleton, e.d)
    for k in range(1, e.d + 1):
        term = term * e
        scale = rat(1, factorial(k) * term.den)
        for m in range(e.d + 1):
            out.comps[m] = out.comps[m] + term.comps[m] * scale
    return out


# --------------------------------------------------------------------------
# Z for braids
# --------------------------------------------------------------------------

def zed_braid(b, d):
    """Truncated expansion of a w-braid word on the strands(n) skeleton.

    Strands are named by their bottom positions, as in
    ``wbraid.crossings``.  Each real crossing maps to exp(ε·a) for the
    arrow a from its over strand to its under strand, in word order;
    virtual letters give no arrow.  Flip letters are not supported.
    Every coefficient is a sum of products Π ±1/k! with Σk ≤ d, so d! times
    it is an integer; those numerators are summed and kept, over den = d!.
    """
    if not isinstance(b, BraidWord):
        raise TypeError("expected a BraidWord")
    if any(kind == FLIP for kind, _, _ in b.letters):
        raise ValueError("flip letters have no arrow-valued expansion")
    nums = [{(): factorial(d)}] + [{} for _ in range(d)]
    for over, under, sgn in crossings(b)[0]:
        letter = (over, under)
        new = [{} for _ in range(d + 1)]
        for m in range(d + 1):
            for k in range(m + 1):
                sign, kf, tail = sgn ** k, factorial(k), (letter,) * k
                for w, c in nums[m - k].items():
                    key = w + tail
                    new[m][key] = new[m].get(key, 0) + sign * c // kf
        nums = [{w: c for w, c in acc.items() if c} for acc in new]
    return _from_numerators(strands(b.n), d, nums)


# --------------------------------------------------------------------------
# Z for long knots
# --------------------------------------------------------------------------

def zed_knot(g, d, normalize=False):
    """Truncated expansion of a long w-knot Gauss diagram.

    Each crossing contributes exp(s·a) of its arrow.  The product along the
    strand is a sum over supports: each set S of at most d arrows, in slot
    order, with each positive composition (k_c) of at most d over S, gives
    k_c parallel copies of arrow c with coefficient Π s_c^{k_c} / k_c!.
    Supports are grouped by the order of their endpoints, each order
    holding a count per set of negative arrows (``_support_shapes``), and
    each order's terms are laid out once, grouped by which k_c are odd
    (``_support_terms``).  The sign Π s_c^{k_c} depends on the order's
    negative set and the group's odd mask only, so each (order, odd mask)
    gets one signed count f, and its terms add f times their numerator.
    Coefficients are summed as integer numerators over d!, and the result
    keeps them so (``den`` = d!).

    With ``normalize`` the result is multiplied by exp(−sl·arrow), killing
    the writhe dependence (full kink removal on top of the kink-flip move).
    """
    if not isinstance(g, GaussDiagram):
        raise TypeError("expected a GaussDiagram")
    nums = [{} for _ in range(d + 1)]
    for order, negs in _support_shapes(g.canonical(), d).items():
        for odd, terms in _support_terms(order, d):
            # Π s_c^{k_c} is −1 when an odd number of negative k_c are odd
            f = 0
            for neg, count in negs.items():
                f += -count if (odd & neg).bit_count() & 1 else count
            if not f:
                continue
            for m, diagram, num in terms:
                acc = nums[m]
                acc[diagram] = acc.get(diagram, 0) + f * num
    z = _from_numerators(LONG, d, nums)
    if normalize:
        e = TruncatedExpansion(LONG, d)
        if d >= 1:
            e.comps[1].add_term(((1, 2),), rat(-self_linking(g)))
        z = z * expansion_exp(e)
    return z


def _support_shapes(arrows, d):
    """The supports of at most d of the (tail, head, sign) ``arrows``,
    sorted by slot, as {order: {neg: count}}: ``order`` lists the
    support's endpoints in slot order, endpoint 2c being the tail of its
    c-th arrow and 2c + 1 the head, and bit c of ``neg`` is set when that
    arrow is negative.  The supports are walked depth-first, adding arrows
    in slot order: a node keeps its endpoint slots sorted, with ``order``
    alongside, and a child copies both and inserts its arrow's tail and
    head by bisection (list inserts run faster here than tuple slices)."""
    shapes = {}
    stack = [([], [], 0, 0)]  # (slots, order, neg, next arrow)
    while stack:
        slots, order, neg, nxt = stack.pop()
        negs = shapes.setdefault(tuple(order), {})
        negs[neg] = negs.get(neg, 0) + 1
        e = len(order)
        if e == 2 * d:
            continue
        bit = 1 << (e >> 1)
        for j in range(nxt, len(arrows)):
            t, h, s = arrows[j]
            ts, to = slots.copy(), order.copy()
            i = bisect(ts, t)
            ts.insert(i, t)
            to.insert(i, e)
            i = bisect(ts, h)
            ts.insert(i, h)
            to.insert(i, e + 1)
            stack.append((ts, to, neg | bit if s < 0 else neg, j + 1))
    return shapes


@lru_cache(maxsize=4096)
def _support_terms(order, d):
    """The terms of a support whose endpoints lie in slot order ``order``,
    grouped by odd mask: ((odd, ((m, diagram, d!/Π k_c!), ...)), ...),
    one group for each set of arrows c whose multiplicity k_c is odd, and
    one term for each composition ks.  An endpoint of arrow c sits at 1 +
    the sum of k_c' over the endpoints before it, copy j at (tail + j,
    head + j): the diagram is already canonical.  Orders recur across
    knots; entries grow with d, so the memo is bounded."""
    p, groups = len(order) // 2, {}
    slot = [0] * (2 * p)
    for ks, m, num in _compositions(p, d):
        s = 1
        for e in order:
            slot[e], s = s, s + ks[e >> 1]
        odd = sum(1 << c for c in range(p) if ks[c] & 1)
        groups.setdefault(odd, []).append(
            (m, tuple((slot[2 * c] + j, slot[2 * c + 1] + j)
                      for c in range(p) for j in range(ks[c])), num))
    return tuple((odd, tuple(terms)) for odd, terms in groups.items())


@cache
def _compositions(p, d):
    """(ks, m, d!/Π k_c!) for each p-tuple ks of positive ints, sum m ≤ d."""
    if p == 0:
        return (((), 0, factorial(d)),)
    return tuple((ks + (k,), m + k, num // factorial(k))
                 for ks, m, num in _compositions(p - 1, d)
                 for k in range(1, d - m + 1))


def _from_numerators(skeleton, d, nums):
    """The expansion whose degree-m terms are nums[m] / d!: the nonzero
    int numerators, kept as they are, over den = d!."""
    z = TruncatedExpansion(skeleton, d, factorial(d))
    for comp, acc in zip(z.comps.values(), nums):
        comp.terms = {w: c for w, c in acc.items() if c}
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
        out.append(tuple(q.project(z.comps[m], z.den)))
    return out


@cache
def _wheel_echelon(m, flags):
    """Echelon form of the rows [image of monomial j | e_j] for the
    wheel monomials of degree m, images taken in {TC,4T} + flags."""
    q = get_quotient(LONG, m, {"TC", "4T"} | flags)
    ech = SparseEchelon()
    for j, mono in enumerate(wheel_monomial_basis(m, flags)):
        nums, den = q.numerators(monomial_to_arrows(mono))
        row = dict(enumerate(nums))
        row[q.dim + j] = den
        ech.add(row)
    return ech


def wheels_reduce(z, flags=frozenset({"RI"})):
    """Coordinates of a long-strand expansion in the wheel-monomial basis.

    Returns a list (per degree) of {monomial: coefficient} dicts.  The
    rows [P_j | e_j], P_j the quotient image of monomial j, are echelonized
    once per degree and flag set; reducing [target | 0] against them leaves
    [residual | −x] with Σ x_j P_j + residual = target, the coordinates
    of z in the quotient (``numerators``).  A nonzero residual (outside the
    monomial span, contradicting the wheels description of the quotient)
    raises.
    """
    if z.skeleton != LONG:
        raise ValueError("long-strand expansions only")
    flags = frozenset(flags)
    out = []
    for m in range(z.d + 1):
        q = get_quotient(LONG, m, {"TC", "4T"} | flags)
        monos = wheel_monomial_basis(m, flags)
        nums, den = q.numerators(z.comps[m], z.den)
        row = _wheel_echelon(m, flags).reduce(dict(enumerate(nums)), den)
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
