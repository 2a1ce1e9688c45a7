"""Graded spaces of arrow diagrams and their relation quotients.

Two skeletons are supported:

* ``("long",)`` — diagrams on a single long strand: m arrows whose 2m
  endpoints occupy slots 1..2m; an arrow is (tail, head).
* ``("strands", n)`` — horizontal diagrams on n parallel strands: words of
  length m in the letters a_(p,q) (arrow from strand p over strand q),
  taken modulo commutation of letters on disjoint strand pairs (arrows far
  apart in space commute); the canonical form is the lexicographically
  smallest word in the commutation class.

Relation sets: TC (tails commute), 4T (four-term arrow relation), 6T
(six-term relation; with TC it implies 4T), RI (rotation-number
independence: left and right isolated arrows agree), FI (framing
independence: isolated arrows vanish), CC (commutators commute,
instantiated through the trivalent-diagram module).

TC, 4T and 6T are written once, in ``TWO_ARROW_RELATIONS``, as signed
products of two arrows among three points, and placed on either skeleton:
the points are three distinct strands, with the two letters inserted into
a word of degree m−2; or three sites in the gaps of a long diagram of
degree m−2, placed by ``place_long``, which also inserts the commutator
blocks of CC.  Sites come in nondecreasing gap order, so a product's new
endpoints lie in (point, arrow, end) order whatever the gaps, and a
placement lifts the context once per count of endpoints at each point
(three for TC/4T/6T).  RI and FI are read off the degree-m diagrams: an
arrow (s, s+1) is isolated.

A long-strand quotient with TC generates no TC relator: the TC class of a
diagram has a least member, ``tc_canonical`` (heads sorted within each
run of adjacent tails), and ``QuotientSpace`` starts its union-find
there.  It then skips the 4T/6T placements whose rows repeat others up to
TC, and holds the longer rows as packed diagram indices, not dicts.
"""

from array import array
from bisect import bisect_left
from functools import cache
from itertools import (chain, combinations_with_replacement, permutations,
                       product)
from math import factorial, lcm

from .rational import rat
from .linalg import SparseEchelon

LONG = ("long",)


def strands(n):
    n = int(n)
    if n < 1:
        raise ValueError("a strands skeleton needs at least one strand")
    return ("strands", n)


# --------------------------------------------------------------------------
# Canonical diagrams
# --------------------------------------------------------------------------

def canonical_long(arrows):
    """Canonical long-strand diagram: arrows sorted, slots packed to 1..2m."""
    arrows = [(int(t), int(h)) for t, h in arrows]
    used = sorted(x for a in arrows for x in a)
    if len(set(used)) != len(used):
        raise ValueError("duplicate endpoint slot")
    remap = {old: new for new, old in enumerate(used, start=1)}
    return tuple(sorted((remap[t], remap[h]) for t, h in arrows))


def tc_canonical(diagram):
    """The least diagram in the TC class of a canonical long diagram.

    TC lets adjacent tails swap, so the heads of a maximal run of tails at
    slots s, s+1, ... may be permuted at will.  The run's arrows sit next to
    each other in the sorted tuple, and sorting their heads gives the least
    tuple of the class.
    """
    out = list(diagram)
    start = 0
    for k in range(1, len(out) + 1):
        if k == len(out) or out[k][0] != out[k - 1][0] + 1:
            if k - start > 1:
                run = out[start:k]
                heads = sorted(h for _, h in run)
                out[start:k] = [(t, h) for (t, _), h in zip(run, heads)]
            start = k
    return tuple(out)


def _letters_disjoint(a, b):
    return a[0] not in b and a[1] not in b


def canonical_word(word, n):
    """Lex-least representative of a word modulo disjoint-letter commutation."""
    w = [tuple(l) for l in word]
    for p, q in w:
        if not (1 <= p <= n and 1 <= q <= n) or p == q:
            raise ValueError("bad letter %r" % ((p, q),))
    if n < 4:  # two disjoint letters need four strands
        return tuple(w)
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] > w[i + 1] and _letters_disjoint(w[i], w[i + 1]):
                w[i], w[i + 1] = w[i + 1], w[i]
                changed = True
    return tuple(w)


def canonical(skeleton, data):
    if skeleton == LONG:
        return canonical_long(data)
    if skeleton[0] == "strands":
        return canonical_word(data, skeleton[1])
    raise ValueError("unknown skeleton %r" % (skeleton,))


def enumerate_diagrams(skeleton, m):
    """All canonical degree-m diagrams on the skeleton, sorted."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    if skeleton == LONG:
        out = []

        def rec(arrows, free):
            if not free:
                out.append(tuple(sorted(arrows)))
                return
            t = free[0]
            for h in free[1:]:
                rec(arrows + [(t, h)], [x for x in free if x not in (t, h)])
                rec(arrows + [(h, t)], [x for x in free if x not in (t, h)])

        rec([], list(range(1, 2 * m + 1)))
        return sorted(out)
    if skeleton[0] == "strands":
        n = skeleton[1]
        letters = [(p, q) for p in range(1, n + 1) for q in range(1, n + 1)
                   if p != q]
        seen = set()
        for w in product(letters, repeat=m):
            seen.add(canonical_word(w, n))
        return sorted(seen)
    raise ValueError("unknown skeleton %r" % (skeleton,))


# the long strand's degree-6 count, the largest space the command line builds
MAX_DIAGRAMS = 665_280


def diagram_count(skeleton, m):
    """How many diagrams ``enumerate_diagrams`` goes through at degree m:
    (2m)!/m! on the long strand, and the (n(n−1))^m words on n strands,
    before commutation merges some of them."""
    if skeleton == LONG:
        return factorial(2 * m) // factorial(m)
    n = skeleton[1]
    return (n * (n - 1)) ** m


# --------------------------------------------------------------------------
# Arrow vectors
# --------------------------------------------------------------------------

class ArrowVector:
    """Formal rational combination of same-degree diagrams on one skeleton."""

    def __init__(self, skeleton, m, terms=None):
        self.skeleton = skeleton
        self.m = m
        self.terms = {}
        if terms:
            for d, c in (terms.items() if isinstance(terms, dict) else terms):
                self.add_term(d, c)

    def add_term(self, diagram, coeff):
        c = self.terms.get(diagram, rat(0)) + coeff
        if c:
            self.terms[diagram] = c
        else:
            self.terms.pop(diagram, None)

    def __add__(self, other):
        if (self.skeleton, self.m) != (other.skeleton, other.m):
            raise ValueError("mixed degrees or skeletons")
        out = ArrowVector(self.skeleton, self.m, dict(self.terms))
        for d, c in other.terms.items():
            out.add_term(d, c)
        return out

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, scalar):
        return ArrowVector(self.skeleton, self.m,
                           {d: c * rat(scalar) for d, c in self.terms.items()})

    __rmul__ = __mul__

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, ArrowVector)
                and (self.skeleton, self.m) == (other.skeleton, other.m)
                and self.terms == other.terms)

    def __repr__(self):
        return "ArrowVector(%r, %d, %r)" % (self.skeleton, self.m, self.terms)


# --------------------------------------------------------------------------
# Relator generation
# --------------------------------------------------------------------------

# TC, 4T and 6T as signed products of two arrows among three points 0, 1, 2
# (strands, or sites on the long strand).  An arrow is (tail, head); the
# first arrow of a product comes first: earlier in the word, or first at a
# site that both arrows touch.
TWO_ARROW_RELATIONS = {
    "TC": ((((0, 1), (0, 2)), 1), (((0, 2), (0, 1)), -1)),
    "4T": ((((0, 1), (1, 2)), 1), (((1, 2), (0, 1)), -1),
           (((0, 2), (1, 2)), 1), (((1, 2), (0, 2)), -1)),
    "6T": ((((0, 1), (0, 2)), 1), (((0, 1), (1, 2)), 1),
           (((0, 2), (1, 2)), 1), (((0, 2), (0, 1)), -1),
           (((1, 2), (0, 1)), -1), (((1, 2), (0, 2)), -1)),
}


def place_long(context, gaps, arrows):
    """Canonical long diagram: new arrows inserted into a canonical context.

    Point u lies in gap ``gaps[u]`` of the context, gap g coming right
    after slot g (gap 0 is before slot 1); ``arrows`` are (tail point,
    head point) pairs.  Gaps must be nondecreasing in u (else
    ``ValueError``), so the new endpoints lie in (point, arrow, end) order
    and ``_place`` lifts the context once for them.
    """
    if any(g > h for g, h in zip(gaps, gaps[1:])):
        raise ValueError("gaps must be nondecreasing, got %r" % (gaps,))
    return next(_place(context, gaps, [_plan(tuple(arrows))]))


@cache
def _plan(arrows):
    """A product's new endpoints in line order for any nondecreasing gaps:
    the point of each, and each arrow's (tail, head) ranks among them."""
    ends = sorted((u, i, e) for i, arrow in enumerate(arrows)
                  for e, u in enumerate(arrow))
    rank = {(i, e): k for k, (_, i, e) in enumerate(ends)}
    return (tuple(u for u, _, _ in ends),
            tuple((rank[i, 0], rank[i, 1]) for i in range(len(arrows))))


def _place(context, gaps, plans):
    """Planned products placed into a context, lifted once per sequence
    of endpoint points: slot s moves up by the new endpoints in gaps
    g < s, and new endpoint k (from 0) in gap g lands at g + k + 1."""
    lifts = {}
    for points, ranks in plans:
        if points not in lifts:
            below = [gaps[u] for u in points]
            lifts[points] = below, [(t + bisect_left(below, t),
                                     h + bisect_left(below, h))
                                    for t, h in context]
        below, lifted = lifts[points]
        yield tuple(sorted(lifted + [(below[a] + a + 1, below[b] + b + 1)
                                     for a, b in ranks]))


def _placements(skeleton, ctx, products, tc_folded=False):
    """Ways to put three points on a context diagram, each the map from
    every product (arrows between the points) to its canonical diagram.
    The points are sites 0, 1, 2 on the long strand, and strands 1..n.

    With ``tc_folded``, a long placement whose diagrams are, term by term,
    TC-equivalent to another placement's is left out.  Two tails of the
    context at adjacent slots s, s+1 with no site in gap s stay adjacent
    in every placed diagram, so swapping their heads in the context only
    moves each diagram within its TC class.  Sorting the heads of each run
    of tails that no site cuts therefore gives a context whose placement
    at the same gaps repeats this one up to TC, and which is itself kept:
    keep a placement only when a site cuts every descent of the context
    (tails at s, s+1 whose heads go down).
    """
    if skeleton == LONG:
        plans = [_plan(arrows) for arrows in products]
        cuts = []  # the gaps between the context's descending tails
        if tc_folded:
            cuts = [t for (t, h), (u, k) in zip(ctx, ctx[1:])
                    if u == t + 1 and h > k]
        for gaps in combinations_with_replacement(range(2 * len(ctx) + 1), 3):
            if all(g in gaps for g in cuts):
                yield dict(zip(products, _place(ctx, gaps, plans)))
    else:
        n = skeleton[1]
        for pos in range(len(ctx) + 1):
            pre, post = ctx[:pos], ctx[pos:]
            yield {arrows: canonical_word(pre + arrows + post, n)
                   for arrows in products}


def _two_arrow_relators(skeleton, m, relset, tc_folded=False):
    points = range(3) if skeleton == LONG else range(1, skeleton[1] + 1)
    # each relation with its roles 0, 1, 2 sent to three distinct points p;
    # TC is antisymmetric in its two heads, so the other order of p[1], p[2]
    # would only repeat it negated
    instances = [[(tuple((p[t], p[h]) for t, h in arrows), sign)
                  for arrows, sign in terms]
                 for p in permutations(points, 3)
                 for name, terms in TWO_ARROW_RELATIONS.items()
                 if name in relset and not (name == "TC" and p[1] > p[2])]
    if m < 2 or not instances:
        return
    # the instances repeat products (30 terms hold the 24 distinct ones for
    # {TC,4T}, 42 for {TC,6T}), so a placement places each product once
    products = tuple({arrows for terms in instances
                      for arrows, _ in terms})
    for ctx in enumerate_diagrams(skeleton, m - 2):
        for placed in _placements(skeleton, ctx, products, tc_folded):
            for terms in instances:
                row = {}
                for arrows, sign in terms:
                    d = placed[arrows]
                    c = row.get(d, 0) + sign
                    if c:
                        row[d] = c
                    else:
                        del row[d]
                if row:
                    yield row


def _isolated_arrow_relators(diagrams, relset):
    """RI and FI, read off the degree-m diagrams.  An arrow (s, s+1) is
    isolated: RI equates the diagram with the one where that arrow is
    flipped to (s+1, s), which keeps its place in the sorted tuple (slots s
    and s+1 hold no other tail), and FI kills every diagram with an
    isolated arrow either way, once."""
    for d in diagrams:
        isolated = False
        for k, (t, h) in enumerate(d):
            if h == t + 1 and "RI" in relset:
                yield {d: 1, d[:k] + ((h, t),) + d[k + 1:]: -1}
            isolated = isolated or abs(h - t) == 1
        if isolated and "FI" in relset:
            yield {d: 1}


def _relators(skeleton, m, relset, diagrams=None, tc_folded=False):
    """The relators of ``generate_relations`` as {diagram: int} dicts,
    produced lazily (a CC relator is scaled to ints, which spans the same
    line).  ``diagrams`` are the degree-m diagrams, when the caller has
    them.  ``tc_folded`` (long strand) is for a caller that identifies
    each TC class itself: TC relators are not built, and 4T/6T relators
    that only repeat others up to TC are left out."""
    known = {"TC", "4T", "6T", "RI", "FI", "CC"}
    if not relset <= known:
        raise ValueError("unknown relation ids: %r" % (relset - known,))
    if skeleton != LONG:
        if skeleton[0] != "strands":
            raise ValueError("unknown skeleton %r" % (skeleton,))
        if relset & {"RI", "FI", "CC"}:
            raise ValueError("RI/FI/CC apply to the long strand only")
    if tc_folded:
        relset = relset - {"TC"}
    parts = [_two_arrow_relators(skeleton, m, relset, tc_folded)]
    if skeleton == LONG and relset & {"RI", "FI"} and m >= 1:
        if diagrams is None:
            diagrams = enumerate_diagrams(LONG, m)
        parts.append(_isolated_arrow_relators(diagrams, relset))
    if skeleton == LONG and "CC" in relset and m >= 4:
        from .jacobi import cc_arrow_relators
        parts.append(_integral(v.terms) for v in cc_arrow_relators(m))
    return chain.from_iterable(parts)


def _integral(terms):
    den = lcm(*(c.denominator for c in terms.values()))
    return {d: c.numerator * den // c.denominator for d, c in terms.items()}


def generate_relations(skeleton, m, relset):
    """All relator vectors of degree m for the given relation ids."""
    out = []
    for terms in _relators(skeleton, m, frozenset(relset)):
        v = ArrowVector(skeleton, m)
        v.terms = {d: rat(c) for d, c in terms.items()}
        out.append(v)
    return out


# --------------------------------------------------------------------------
# Quotient spaces
# --------------------------------------------------------------------------

class QuotientSpace:
    """Per-degree quotient of the diagram span by a relation set.

    Diagrams are held by their index in ``_diagrams``, and relators become
    rows of (index, coefficient) pairs as they arrive; no relator is kept
    as a dict.  A signed union-find, whose weights are the ints ±1, takes
    the two-term ±1 relators at once.  On the long strand it starts from
    TC: each diagram's parent is its TC-canonical form (``tc_canonical``),
    the least diagram of its class, so neither TC relators nor the 4T/6T
    rows that repeat others up to TC are built.  The longer rows (4T, 6T,
    CC, scaled to ints) wait in one packed array until the union-find is
    final; then they are folded onto the surviving class representatives,
    deduplicated and echelonized.  ``Rat`` enters the echelon only at a
    pivot that is not ±1.  The quotient basis is the set of non-pivot
    classes.  A vector is projected in ints over the lcm of its
    denominators.
    """

    def __init__(self, skeleton, m, relset):
        self.skeleton = skeleton
        self.m = m
        self.relset = frozenset(relset)
        diagrams = enumerate_diagrams(skeleton, m)
        index = self._index = {d: i for i, d in enumerate(diagrams)}
        self._diagrams = diagrams
        n = len(diagrams)
        tc_folded = skeleton == LONG and "TC" in self.relset
        if tc_folded:
            parent = [index[tc_canonical(d)] for d in diagrams]
        else:
            parent = list(range(n))
        weight = [1] * n       # diagram = weight * rep(diagram)
        dead = [False] * n     # class known to be zero

        def find(i):
            path = []
            while parent[i] != i:
                path.append(i)
                i = parent[i]
            w = 1
            for j in reversed(path):  # point the path straight at the root
                w = weight[j] = weight[j] * w
                parent[j] = i
            return i, w

        pairs = array("q")     # (index, coefficient) of the longer rows
        ends = array("q")      # where each of those rows ends in pairs
        for terms in _relators(skeleton, m, self.relset, diagrams,
                               tc_folded):
            if len(terms) == 1:
                r, _ = find(index[next(iter(terms))])
                dead[r] = True
            elif len(terms) == 2 and all(abs(c) == 1 for c in terms.values()):
                (d1, c1), (d2, c2) = terms.items()
                r1, w1 = find(index[d1])
                r2, w2 = find(index[d2])
                if r1 == r2:
                    if c1 * w1 + c2 * w2 != 0:
                        dead[r1] = True
                    continue
                # c1*w1*r1 + c2*w2*r2 = 0 with every factor ±1, so each
                # root is -c1*w1*c2*w2 times the other
                lo, hi = min(r1, r2), max(r1, r2)
                parent[hi] = lo
                weight[hi] = -1 if c1 * w1 == c2 * w2 else 1
                if dead[hi]:
                    dead[lo] = True
            else:
                for d, c in terms.items():
                    pairs.append(index[d])
                    pairs.append(c)
                ends.append(len(pairs))
        # propagate deadness to roots; after this, i = weight[i] * parent[i]
        for i in range(n):
            r, _ = find(i)
            if dead[i]:
                dead[r] = True

        self._parent, self._weight, self._dead = parent, weight, dead
        self._ech = SparseEchelon()
        seen_rows = set()
        start = 0
        for end in ends:
            row = self._to_row(zip(pairs[start:end:2],
                                   pairs[start + 1:end:2]))
            start = end
            key = tuple(sorted(row.items()))
            if row and key not in seen_rows:
                seen_rows.add(key)
                self._ech.add(row)
        reps = sorted({r for r in parent if not dead[r]})
        pivots = set(self._ech.pivots())
        basis = [r for r in reps if r not in pivots]
        self._position = {r: i for i, r in enumerate(basis)}
        self.basis = [self._diagrams[r] for r in basis]

    def _to_row(self, pairs):
        """(diagram index, coefficient) pairs folded onto the live classes."""
        row = {}
        for i, c in pairs:
            r = self._parent[i]
            if self._dead[r]:
                continue
            cw = row.get(r, 0) + c * self._weight[i]
            if cw:
                row[r] = cw
            else:
                row.pop(r, None)
        return row

    @property
    def dim(self):
        return len(self.basis)

    def _scaled_row(self, v):
        """(den·v folded onto the classes, den), den the lcm of v's
        denominators (d! for Z), so the row and its reduction stay in Python
        ints."""
        if (v.skeleton, v.m) != (self.skeleton, self.m):
            raise ValueError("degree/skeleton mismatch")
        den = lcm(*(c.denominator for c in v.terms.values()))
        try:
            return self._to_row([(self._index[d],
                                  c.numerator * den // c.denominator)
                                 for d, c in v.terms.items()]), den
        except KeyError as e:
            raise ValueError("%r is not a canonical degree-%d diagram on %r"
                             % (e.args[0], self.m, self.skeleton)) from None

    def _positions(self, row):
        """A reduced row, keyed by basis position instead of class."""
        if not row.keys() <= self._position.keys():
            raise AssertionError("reduced row touches a pivot class")
        return {self._position[r]: c for r, c in row.items()}

    def project(self, v):
        """Coordinates of an ArrowVector in the quotient basis, as ``Rat``."""
        coords = self._positions(self._ech.reduce(*self._scaled_row(v)))
        return [coords.get(i, rat(0)) for i in range(self.dim)]

    def scaled_coordinates(self, v):
        """({basis position: den times v's coordinate}, den), undivided."""
        row, den = self._scaled_row(v)
        return self._positions(self._ech.reduce(row)), den

    def project_diagram(self, d):
        v = ArrowVector(self.skeleton, self.m)
        v.add_term(canonical(self.skeleton, d), rat(1))
        return self.project(v)


def quotient(skeleton, m, relset):
    return QuotientSpace(skeleton, m, relset)
