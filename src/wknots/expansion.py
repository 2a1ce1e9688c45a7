"""Degree-truncated universal finite type invariant Z and the wheels bridge.

``zed_braid`` sends each crossing of a w-braid word to the exponential of a
single arrow between the two crossing strands (tail on the over strand);
``zed_knot`` does the same along a long-knot Gauss diagram, summing over
arrow supports, walked depth-first as bit masks and counted per endpoint
order and set of negative arrows.  The orders are interned once, by id, in
one bounded table shared across calls, since they recur across knots; each
order's terms are memoized by its id and summed once per sign.  The kink
normalization by exp(−sl·a) is folded into the same numerators by exact
int divisions.  Both truncate at a degree cap d and sum integer numerators
over d!, each degree in one dict, and keep them: a ``TruncatedExpansion``
is a value with no arithmetic, built from those per-degree dicts, that
holds its components as numerators over one denominator ``den``, and
``QuotientSpace.project`` divides by it once, after adding up the images
of the columns, so Z stays in ints from the supports to the coordinates.
On the long strand the quotient A^w(↑) is the commutative polynomial
algebra on the single arrow ``a`` and the wheels; ``wheels_reduce`` reads
an expansion's quotient coordinates in that wheel-monomial basis, and
``predicted_from_alexander`` computes the same coordinates from the
Alexander polynomial alone, inside the monomial algebra.
"""

from functools import cache, lru_cache
from math import factorial

from .rational import Rat
from .rings import laurent_at_exp, series_log
from .arrows import LONG, strands, ArrowVector, quotient
from .jacobi import monomial_to_arrows, wheel_monomial_basis
from .linalg import SparseEchelon
from .gauss import GaussDiagram, self_linking
from .alexander import alexander_det
from .wbraid import FLIP, BraidWord, crossings


class TruncatedExpansion:
    """Per-degree arrow-vector components 0..d on one skeleton, over one
    denominator: built from the numerator dicts ``nums[0..d]``, component
    m is ``comps[m] / den``.  ``zed_knot`` and ``zed_braid`` keep int
    numerators over den = d!, so the sum over supports and the quotient
    projection stay in ints."""

    def __init__(self, skeleton, nums, den):
        self.skeleton = skeleton
        self.d = len(nums) - 1
        self.den = den
        self.comps = {m: ArrowVector(skeleton, m, acc)
                      for m, acc in enumerate(nums)}


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
    return TruncatedExpansion(strands(b.n), nums, factorial(d))


# --------------------------------------------------------------------------
# Z for long knots
# --------------------------------------------------------------------------

def zed_knot(g, d, normalize=False):
    """Truncated expansion of a long w-knot Gauss diagram.

    Each crossing contributes exp(s·a) of its arrow.  The product along the
    strand is a sum over supports: each set S of at most d arrows, in slot
    order, with each positive composition (k_c) of at most d over S, gives
    k_c parallel copies of arrow c with coefficient Π s_c^{k_c} / k_c!.
    Supports are walked as bit masks and grouped by the order of their
    endpoints, each order an id in a table shared across calls and holding
    a count per set of negative arrows (``_support_shapes``), and each
    order's terms are laid out once per id, grouped by which k_c are odd
    (``_support_terms``).  The sign Π s_c^{k_c} depends on the order's
    negative set and the group's odd mask only, so each (order, odd mask)
    gets one signed count f, and its terms add f times their numerator.
    Coefficients are summed as integer numerators over d!, and the result
    keeps them so (``den`` = d!).

    With ``normalize`` the result is multiplied on the right by
    exp(−sl·a), a the single arrow, killing the writhe dependence (full
    kink removal on top of the kink-flip move).  The product is folded into
    the numerators: a degree-j term with numerator N at diagram D adds
    N·(−sl)^k // k! at D followed by k isolated arrows, for 1 ≤ k ≤ d − j.
    The division is exact: N is a sum of ±d!/Π k_c! with Σ k_c = j, and
    each d!/(k!·Π k_c!) is an integer (a multinomial times (d − j − k)!)
    when j + k ≤ d.  So the normalized Z keeps int numerators over d! too.
    """
    if not isinstance(g, GaussDiagram):
        raise TypeError("expected a GaussDiagram")
    nums = [{} for _ in range(d + 1)]
    for oid, negs in _support_shapes(g.canonical(), d).items():
        for odd, terms in _support_terms(oid, d):
            # Π s_c^{k_c} is −1 when an odd number of negative k_c are odd
            f = 0
            for neg, count in negs.items():
                f += -count if (odd & neg).bit_count() & 1 else count
            if not f:
                continue
            for m, diagram, num in terms:
                acc = nums[m]
                acc[diagram] = acc.get(diagram, 0) + f * num
    if normalize and (sl := self_linking(g)):
        # from degree d down, so nums[j] is read before any lower degree
        # adds to it
        for j in range(d, -1, -1):
            for diagram, num in nums[j].items():
                for k in range(1, d - j + 1):
                    diagram += ((2 * (j + k) - 1, 2 * (j + k)),)
                    acc = nums[j + k]
                    acc[diagram] = (acc.get(diagram, 0)
                                    + num * (-sl) ** k // factorial(k))
    return TruncatedExpansion(LONG, nums, factorial(d))


# The endpoint orders of supports, interned: ``_orders[id]`` is an order
# and ``_children[(parent id, tail place, head place)]`` the id of the
# parent's order with one more arrow's tail and head inserted at those
# places.  Orders recur across knots and across calls, so the table is
# shared, as the ``_support_terms`` memo is: a table kept per call would
# rebuild every order for each knot.  It is emptied, with that memo, at the
# start of a walk once it holds more than ``_ORDERS_MAX`` orders; all
# 32,055 orders of at most 5 arrows fit.
_ORDERS_MAX = 1 << 16
_orders = [()]
_children = {}


def _support_shapes(arrows, d):
    """The supports of at most d of the (tail, head, sign) ``arrows``,
    sorted by tail slot, as {order id: {neg: count}}: ``_orders[id]``
    lists the support's endpoints in slot order, endpoint 2c being the
    tail of its c-th arrow and 2c + 1 the head, and bit c of ``neg`` is
    set when that arrow is negative.

    The supports are walked depth-first as bit masks S over ``arrows``,
    adding arrows in tail order.  An added arrow j comes after every arrow
    of S, so its tail lands at place p + |S ∩ before_t[j]|, p = |S|, and
    its head at |(S | S << n) ∩ before_h[j]| + (t_j < h_j), where
    before_t[j] holds the earlier arrows whose heads precede t_j and
    before_h[j] the earlier tails (low n bits) and heads (high n bits)
    that precede h_j; both masks are fixed per arrow.  The child's order
    is looked up by (parent id, tail place, head place) in the shared
    table, so an order that an earlier walk met is found, not rebuilt.
    The ids stay valid until the next walk, which may empty the table
    (``_ORDERS_MAX``)."""
    if len(_orders) > _ORDERS_MAX:
        _clear_orders()
    n = len(arrows)
    # per arrow j: (j, before_t[j], before_h[j], t_j < h_j, negative)
    info = [(j, sum(1 << i for i in range(j) if arrows[i][1] < t),
             sum(1 << i for i in range(j) if arrows[i][0] < h)
             | sum(1 << n + i for i in range(j) if arrows[i][1] < h),
             t < h, s < 0)
            for j, (t, h, s) in enumerate(arrows)]
    shapes = {0: {0: 1}}
    # (support mask, its size p, order id, neg, next arrow); a support of
    # size d is counted where it is met and not pushed
    stack = [(0, 0, 0, 0, 0)] if d else []
    while stack:
        sup, p, oid, neg, nxt = stack.pop()
        both = sup | sup << n
        bit = 1 << p
        leaf = p + 1 == d
        for j, before_t, before_h, up, negative in info[nxt:]:
            key = (oid, p + (sup & before_t).bit_count(),
                   (both & before_h).bit_count() + up)
            cid = _children.get(key)
            if cid is None:
                cid = _children[key] = _child_order(*key)
            child = neg | bit if negative else neg
            negs = shapes.get(cid)
            if negs is None:
                shapes[cid] = {child: 1}
            else:
                negs[child] = negs.get(child, 0) + 1
            if not leaf:
                stack.append((sup | 1 << j, p + 1, cid, child, j + 1))
    return shapes


def _clear_orders():
    """Empty the order table, and with it the ``_support_terms`` memo,
    whose entries would otherwise outlive the ids they are keyed by."""
    del _orders[1:]
    _children.clear()
    _support_terms.cache_clear()


def _child_order(oid, tail, head):
    """Intern the order ``_orders[oid]`` with its next arrow's tail
    inserted at place ``tail`` and then its head at place ``head``."""
    order = list(_orders[oid])
    e = len(order)
    order.insert(tail, e)
    order.insert(head, e + 1)
    _orders.append(tuple(order))
    return len(_orders) - 1


@lru_cache(maxsize=4096)
def _support_terms(oid, d):
    """The terms of a support whose endpoints lie in the slot order
    ``_orders[oid]``, grouped by odd mask:
    ((odd, ((m, diagram, d!/Π k_c!), ...)), ...), one group for each set
    of arrows c whose multiplicity k_c is odd, and one term for each
    composition ks.  An endpoint of arrow c sits at 1 + the sum of k_c'
    over the endpoints before it, copy j at (tail + j, head + j): the
    diagram is already canonical.  Keyed by order id, the memo is emptied
    with the order table (``_clear_orders``); orders recur across knots,
    and entries grow with d, so it is bounded too."""
    order = _orders[oid]
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
    # over a Rat, so that coef ** n / factorial(n) stays exact
    coef = {"a": Rat(self_linking(g))}
    coef.update((("w", k), phi[k]) for k in range(2, d + 1))
    if d >= 1:
        coef[("w", 1)] = -phi[1]
    out = []
    for m in range(d + 1):
        coords = {}
        for mono in wheel_monomial_basis(m, flags):
            c = Rat(1)
            for gen in set(mono):
                n = mono.count(gen)
                c *= coef[gen] ** n / factorial(n)
            if c:
                coords[mono] = c
        out.append(coords)
    return out
