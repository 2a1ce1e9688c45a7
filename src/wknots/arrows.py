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
degree m−2, placed by ``place_long``, which also inserts the isolated
arrows of RI/FI and the commutator blocks of CC.  Sites come in
nondecreasing gap order, so a product's new endpoints lie in (point,
arrow, end) order whatever the gaps, and a placement lifts the context
once per count of endpoints at each point (three for TC/4T/6T).
"""

from bisect import bisect_left
from functools import cache
from itertools import (chain, combinations_with_replacement, permutations,
                       product)
from math import lcm

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


def _placements(skeleton, ctx, products):
    """Ways to put three points on a context diagram, each the map from
    every product (arrows between the points) to its canonical diagram.
    The points are sites 0, 1, 2 on the long strand, and strands 1..n."""
    if skeleton == LONG:
        plans = [_plan(arrows) for arrows in products]
        for gaps in combinations_with_replacement(range(2 * len(ctx) + 1), 3):
            yield dict(zip(products, _place(ctx, gaps, plans)))
    else:
        n = skeleton[1]
        for pos in range(len(ctx) + 1):
            pre, post = ctx[:pos], ctx[pos:]
            yield {arrows: canonical_word(pre + arrows + post, n)
                   for arrows in products}


def _two_arrow_relators(skeleton, m, relset):
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
        for placed in _placements(skeleton, ctx, products):
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


def _isolated_arrow_relators(m, relset):
    """RI (right isolated arrow = left one) and FI (both vanish, once each)."""
    killed = {}
    for ctx in enumerate_diagrams(LONG, m - 1):
        for g in range(2 * (m - 1) + 1):
            right = place_long(ctx, (g, g), ((0, 1),))
            left = place_long(ctx, (g, g), ((1, 0),))
            if "RI" in relset:
                yield {right: 1, left: -1}
            if "FI" in relset:
                killed.update(dict.fromkeys((right, left)))
    for d in killed:
        yield {d: 1}


def _relators(skeleton, m, relset):
    """The relators of ``generate_relations`` as {diagram: coefficient}
    dicts, produced lazily; TC, 4T, 6T, RI and FI have int coefficients."""
    known = {"TC", "4T", "6T", "RI", "FI", "CC"}
    if not relset <= known:
        raise ValueError("unknown relation ids: %r" % (relset - known,))
    if skeleton != LONG:
        if skeleton[0] != "strands":
            raise ValueError("unknown skeleton %r" % (skeleton,))
        if relset & {"RI", "FI", "CC"}:
            raise ValueError("RI/FI/CC apply to the long strand only")
    parts = [_two_arrow_relators(skeleton, m, relset)]
    if skeleton == LONG and relset & {"RI", "FI"} and m >= 1:
        parts.append(_isolated_arrow_relators(m, relset))
    if skeleton == LONG and "CC" in relset and m >= 4:
        from .jacobi import cc_arrow_relators
        parts.append(v.terms for v in cc_arrow_relators(m))
    return chain.from_iterable(parts)


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

    Two-term ±1 relators are folded into a signed union-find first, whose
    weights are the ints ±1; the remaining relators are echelonized over
    the surviving class representatives.  Relators and their rows are
    int dicts, and ``Rat`` enters the echelon only at a pivot that is not
    ±1.  The quotient basis is the set of non-pivot classes.  A vector is
    projected in ints over the lcm of its denominators.
    """

    def __init__(self, skeleton, m, relset):
        self.skeleton = skeleton
        self.m = m
        self.relset = frozenset(relset)
        diagrams = enumerate_diagrams(skeleton, m)
        self._index = {d: i for i, d in enumerate(diagrams)}
        self._diagrams = diagrams
        n = len(diagrams)
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

        rest = []
        for terms in _relators(skeleton, m, self.relset):
            if len(terms) == 1:
                r, _ = find(self._index[next(iter(terms))])
                dead[r] = True
            elif len(terms) == 2 and all(abs(c) == 1 for c in terms.values()):
                (d1, c1), (d2, c2) = terms.items()
                r1, w1 = find(self._index[d1])
                r2, w2 = find(self._index[d2])
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
                rest.append(terms)
        # propagate deadness to roots; after this, i = weight[i] * parent[i]
        for i in range(n):
            r, _ = find(i)
            if dead[i]:
                dead[r] = True

        self._parent, self._weight, self._dead = parent, weight, dead
        self._ech = SparseEchelon()
        seen_rows = set()
        for terms in rest:
            row = self._to_row(terms)
            key = tuple(sorted(row.items()))
            if row and key not in seen_rows:
                seen_rows.add(key)
                self._ech.add(row)
        reps = sorted({r for r in parent if not dead[r]})
        pivots = set(self._ech.pivots())
        basis = [r for r in reps if r not in pivots]
        self._position = {r: i for i, r in enumerate(basis)}
        self.basis = [self._diagrams[r] for r in basis]

    def _to_row(self, terms):
        row = {}
        for d, c in terms.items():
            i = self._index[d]
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
            return self._to_row({d: c.numerator * den // c.denominator
                                 for d, c in v.terms.items()}), den
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
