"""Graded spaces of arrow diagrams and their relation quotients.

Two skeletons are supported:

* ``("long",)`` — diagrams on a single long strand: m arrows whose 2m
  endpoints occupy slots 1..2m; an arrow is (tail, head).
* ``("strands", n)`` — horizontal diagrams on n parallel strands: words of
  length m in the letters a_(p,q) (arrow from strand p over strand q).
  Arrows far apart in space commute: far commutation is one more relation
  of every strand quotient, a two-term row for each word with two adjacent
  letters on disjoint strand pairs, so a column is a raw word.

Relation sets: TC (tails commute), 4T (four-term arrow relation), 6T
(six-term relation; with TC it implies 4T), RI (rotation-number
independence: left and right isolated arrows agree), FI (framing
independence: isolated arrows vanish), CC (commutators commute,
instantiated through the trivalent-diagram module).

TC, 4T and 6T are written once, in ``TWO_ARROW_RELATIONS``, as signed
products of two arrows among three points, and placed on either skeleton:
the points are three distinct strands, with the two letters inserted into
a word of degree m−2; or three sites in the gaps of a long diagram of
degree m−2.  The same routine (``_place``) puts the eight points of the
CC blocks of ``jacobi.cc_blocks`` into one gap of a degree-(m−4) diagram.
Sites come in nondecreasing gap order, so a product's new endpoints lie in
(point, arrow, end) order whatever the gaps, and a placement lifts the
context once per count of endpoints at each point.  RI and FI are read off
the degree-m diagrams: an arrow (s, s+1) is isolated.  Every relator is an
int-valued row, of diagrams (``_relators``) or of TC classes
(``_class_relators``), and a quotient's coordinates are read only through
``QuotientSpace.project``.

A long-strand quotient with TC has one column per TC class, not per
diagram, and generates no TC relator.  TC lets the tails that lie between
two heads trade places at will, so a class is the map that sends each
head, in line order, to the gap between heads that holds its arrow's
tail: (m+1)^m classes against (2m)!/m! diagrams.  ``tc_rank`` numbers a
class Σ H(t)·(m+1)^H(h) over the arrows (t, h), H(x) the number of heads
before slot x, and the columns are the classes in the order of their
least diagrams (heads increasing within each run of tails), so no
degree-m diagram is enumerated.  A 4T/6T product placed on a context gets
its rank by the same sum, with no diagram built, and RI and FI are read
off the classes: a head whose tail lies in the gap just before or just
after it has an isolated arrow in its class.  A placement is skipped when
another placement repeats its rows up to TC or RI, or FI kills them: when
no site cuts a descent of the context (``_cuts``), or with RI a reverse
isolated arrow, or with FI any isolated arrow.
"""

from array import array
from bisect import bisect_left, bisect_right
from functools import cache
from itertools import (accumulate, chain, combinations_with_replacement,
                       permutations, product)
from math import factorial, lcm
from operator import add, itemgetter

from .rational import ZERO, Rat, rat
from .linalg import SparseEchelon, integral

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


def enumerate_diagrams(skeleton, m):
    """All degree-m diagrams on the skeleton, sorted: the canonical long
    diagrams, or the (n(n−1))^m words on n strands."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    if skeleton == LONG:
        out = []
        slots = range(1, 2 * m + 1)
        # every diagram shares the (2m)(2m−1) arrow tuples of one table
        arrow = {t: {h: (t, h) for h in slots if h != t} for t in slots}

        def rec(arrows, free):
            if not free:
                out.append(tuple(sorted(arrows)))
                return
            t = free[0]
            for h in free[1:]:
                rest = [x for x in free if x != t and x != h]
                rec(arrows + [arrow[t][h]], rest)
                rec(arrows + [arrow[h][t]], rest)

        rec([], list(slots))
        return sorted(out)
    if skeleton[0] == "strands":
        n = skeleton[1]
        letters = [(p, q) for p in range(1, n + 1) for q in range(1, n + 1)
                   if p != q]
        return list(product(letters, repeat=m))  # letters is sorted
    raise ValueError("unknown skeleton %r" % (skeleton,))


# the long strand's degree-6 diagram count, the most columns the command
# line lets a build index
MAX_COLUMNS = 665_280


def diagram_count(skeleton, m, relset):
    """How many columns a degree-m quotient build indexes: the (m+1)^m TC
    classes on the long strand with TC, its (2m)!/m! diagrams without, and
    the (n(n−1))^m words on n strands."""
    if skeleton == LONG:
        if "TC" in relset:
            return (m + 1) ** m
        return factorial(2 * m) // factorial(m)
    n = skeleton[1]
    return (n * (n - 1)) ** m


# --------------------------------------------------------------------------
# TC classes of long diagrams
# --------------------------------------------------------------------------

def tc_rank(diagram):
    """The TC class of a canonical long diagram as a number in
    [0, (m+1)^m): Σ H(t)·(m+1)^H(h) over its arrows (t, h), where H(x)
    counts the heads before slot x.  Digit j is the gap between heads that
    holds the tail of the j-th head's arrow, which TC keeps."""
    heads = sorted(h for _, h in diagram)
    base = len(diagram) + 1
    return sum(bisect_left(heads, t) * base ** bisect_left(heads, h)
               for t, h in diagram)


def _tc_classes(m):
    """The least diagram of each degree-m TC class, sorted, and the list
    that sends each class rank to that diagram's position.  A least
    diagram is set by its sorted gaps and by which head each tail meets:
    the k-th tail, in gap g, sits at slot k + 1 + g, head j at slot
    j + 1 + (the tails in gaps ≤ j), and the tails of one gap meet their
    heads in increasing order."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    base = m + 1
    slots = range(1, 2 * m + 1)
    arrow = {t: {h: (t, h) for h in slots if h != t} for t in slots}
    layouts = {}  # sorted gaps -> (arrows by tail slot, head slots)
    least = []
    for digits in product(range(base), repeat=m):
        gap = digits[::-1]  # gap[j]: the gap of head j's tail, rank order
        key = tuple(sorted(gap))
        layout = layouts.get(key)
        if layout is None:
            layout = layouts[key] = (
                [arrow[k + 1 + g] for k, g in enumerate(key)],
                [j + 1 + bisect_right(key, j) for j in range(m)])
        tails, heads = layout
        least.append(tuple([tail[heads[j]] for tail, j in zip(
            tails, sorted(range(m), key=gap.__getitem__))]))
    order = sorted(range(len(least)), key=least.__getitem__)
    column = [0] * len(least)
    for c, r in enumerate(order):
        column[r] = c
    return [least[r] for r in order], column


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
        c = self.terms.get(diagram, ZERO) + coeff
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
    every product (arrows between the points) to its diagram.  The points
    are sites 0, 1, 2 on the long strand, and strands 1..n, where a
    product's letters go between two letters of the context word."""
    if skeleton == LONG:
        plans = [_plan(arrows) for arrows in products]
        for gaps in combinations_with_replacement(range(2 * len(ctx) + 1), 3):
            yield dict(zip(products, _place(ctx, gaps, plans)))
    else:
        for pos in range(len(ctx) + 1):
            pre, post = ctx[:pos], ctx[pos:]
            yield {arrows: pre + arrows + post for arrows in products}


def _instances(points, relset):
    """Each relation of ``relset`` in ``TWO_ARROW_RELATIONS`` with its roles
    0, 1, 2 sent to three distinct points, as (arrows, sign) lists, and the
    distinct products among them."""
    # TC is antisymmetric in its two heads, so the other order of p[1], p[2]
    # would only repeat it negated
    instances = [[(tuple((p[t], p[h]) for t, h in arrows), sign)
                  for arrows, sign in terms]
                 for p in permutations(points, 3)
                 for name, terms in TWO_ARROW_RELATIONS.items()
                 if name in relset and not (name == "TC" and p[1] > p[2])]
    # the instances repeat products (30 terms hold the 24 distinct ones for
    # {TC,4T}, 42 for {TC,6T}), so a placement places each product once
    return instances, tuple({arrows for terms in instances
                             for arrows, _ in terms})


def _two_arrow_relators(skeleton, m, relset):
    points = range(3) if skeleton == LONG else range(1, skeleton[1] + 1)
    instances, products = _instances(points, relset)
    if m < 2 or not instances:
        return
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


def _far_commutation_relators(words):
    """Far commutation, read off the degree-m words on n strands: a word
    equals the word with two adjacent letters on disjoint strand pairs
    swapped.  Each pair of words is equated once, from the word whose
    lesser letter comes first."""
    for w in words:
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a < b and a[0] not in b and a[1] not in b:
                yield {w: 1, w[:i] + (b, a) + w[i + 2:]: -1}


def _check_relations(skeleton, relset):
    """Refuse unknown relation ids and skeletons, and RI/FI/CC off the long
    strand."""
    known = ("TC", "4T", "6T", "RI", "FI", "CC")
    unknown = sorted(relset.difference(known))
    if unknown:
        raise ValueError("unknown relation ids: %s; the known ids are %s" % (
            ", ".join(map(repr, unknown)), ", ".join(known)))
    if skeleton != LONG:
        if skeleton[0] != "strands":
            raise ValueError("unknown skeleton %r" % (skeleton,))
        if relset & {"RI", "FI", "CC"}:
            raise ValueError("RI/FI/CC apply to the long strand only")


def _relators(skeleton, m, relset, diagrams=None):
    """The relators of ``generate_relations`` as {diagram: int} dicts,
    produced lazily, with far commutation on four or more strands whatever
    ``relset`` holds.  ``diagrams`` are the degree-m diagrams, when the
    caller has them."""
    _check_relations(skeleton, relset)
    parts = [_two_arrow_relators(skeleton, m, relset)]
    if skeleton != LONG and skeleton[1] >= 4 and m >= 2:
        # on fewer strands no two letters are disjoint
        if diagrams is None:
            diagrams = enumerate_diagrams(skeleton, m)
        parts.append(_far_commutation_relators(diagrams))
    if skeleton == LONG and relset & {"RI", "FI"} and m >= 1:
        if diagrams is None:
            diagrams = enumerate_diagrams(LONG, m)
        parts.append(_isolated_arrow_relators(diagrams, relset))
    if skeleton == LONG and "CC" in relset and m >= 4:
        parts.append(_cc_relators(m))
    return chain.from_iterable(parts)


@cache
def _class_products(names):
    """What a class build needs of the 4T/6T products, in one order:
    their plans; per product, the points of its two new arrows' tails and
    heads, each with the product's new heads before it in line order; the
    distinct pairs of head points, and an itemgetter that gives each
    product's pair; each instance as an itemgetter, its products and its
    signs; and ``same[e][k][l]`` for gaps g with e = (g0 == g1) +
    2·(g1 == g2): None when the new endpoints of products k and l fall in
    different gaps, and otherwise whether the products pair those
    endpoints alike, that is, whether they place one diagram."""
    instances, products = _instances(range(3), names)
    plans = [_plan(arrows) for arrows in products]
    at = {arrows: k for k, arrows in enumerate(products)}
    head_points, shapes = [], []
    for points, ((a1, b1), (a2, b2)) in plans:
        heads = sorted((b1, b2))
        head_points.append((points[heads[0]], points[heads[1]]))
        shapes.append((points[a1], bisect_left(heads, a1),
                       points[b1], bisect_left(heads, b1),
                       points[a2], bisect_left(heads, a2),
                       points[b2], bisect_left(heads, b2)))
    head_pairs = sorted(set(head_points))
    instances = [([at[arrows] for arrows, _ in terms],
                  [sign for _, sign in terms]) for terms in instances]
    same = [[[set(k[1]) == set(l[1])
              if [g[u] for u in k[0]] == [g[u] for u in l[0]] else None
              for l in plans] for k in plans]
            for g in ((0, 1, 2), (0, 0, 1), (0, 1, 1), (0, 0, 0))]
    return (plans, shapes, head_pairs,
            itemgetter(*[head_pairs.index(p) for p in head_points]),
            [(itemgetter(*ks), ks, signs) for ks, signs in instances], same)


def _class_ranks(m, names):
    """Each degree-(m−2) context with the function that sends
    nondecreasing gaps to the class ranks of the products of
    ``_class_products(names)`` placed there, in their order.

    A placed product's rank Σ H(t)·(m+1)^H(h) is a sum of two parts.  The
    context's arrows give one that depends only on the gaps of the two new
    heads: a new head in gap g comes before slot s when g < s.  A new
    endpoint in gap g has the context's heads at slots ≤ g before it, plus
    the product's own new heads that precede it, so the new arrows give
    one that depends only on those context heads at each point."""
    _, shapes, head_pairs, pair_of, _, _ = _class_products(names)
    power = [(m + 1) ** k for k in range(m)]
    new_parts = {}  # context heads before each point -> the new arrows' part
    for ctx in enumerate_diagrams(LONG, m - 2):
        ngaps = 2 * len(ctx) + 1
        is_head = [0] * ngaps
        for _, h in ctx:
            is_head[h] = 1
        below = list(accumulate(is_head))  # the context's heads at slots ≤ g
        lifted = [[sum((below[t - 1] + (ga < t) + (gb < t))
                       * power[below[h - 1] + (ga < h) + (gb < h)]
                       for t, h in ctx) if ga <= gb else None
                   for gb in range(ngaps)] for ga in range(ngaps)]

        def ranks(gaps, below=below, lifted=lifted):
            hb = below[gaps[0]], below[gaps[1]], below[gaps[2]]
            new = new_parts.get(hb)
            if new is None:
                new = new_parts[hb] = [
                    (hb[u1] + o1) * power[hb[v1] + p1]
                    + (hb[u2] + o2) * power[hb[v2] + p2]
                    for u1, o1, v1, p1, u2, o2, v2, p2 in shapes]
            return map(add, pair_of([lifted[gaps[lo]][gaps[hi]]
                                     for lo, hi in head_pairs]), new)

        yield ctx, ranks


def _cuts(ctx, relset):
    """The gaps that a placement on the context must hold to be kept by
    ``_class_two_arrow_rows``: gap t of each descent (tails at t, t+1
    whose heads go down); with RI, gap h of each reverse isolated arrow
    (h+1, h); with FI, gap s of each isolated arrow on slots s, s+1.  No
    two of these gaps are one, so a kept placement puts a site at each and
    its other 3 − len(cuts) sites anywhere."""
    ri, fi = "RI" in relset, "FI" in relset
    return ([t for (t, h), (u, k) in zip(ctx, ctx[1:])
             if u == t + 1 and h > k]
            + [min(t, h) for t, h in ctx
               if ri and t == h + 1 or fi and abs(t - h) == 1])


def _class_two_arrow_rows(m, relset, column):
    """4T and 6T on the long strand as rows of (TC class column, int),
    each term once per diagram: a row cancels the terms that are one
    diagram, and keeps apart the terms that are distinct diagrams of one
    class.  Each product's class comes from ``_class_ranks``.  Two terms
    of one class are one diagram when their new endpoints fall in the same
    gaps, in order, and the products pair those endpoints alike; when the
    gaps differ, a context arrow can stand in for a new one, and both are
    placed as diagrams.

    A placement is kept only when a site is at every gap of
    ``_cuts(ctx, relset)``; the others repeat rows that the build has
    anyway.

    * Descents.  Two tails of the context at adjacent slots s, s+1 with no
      site in gap s stay adjacent in every placed diagram, so swapping
      their heads in the context moves each placed diagram within its TC
      class, and that placement gives the same rows.
    * RI.  A reverse isolated arrow (h+1, h) of the context with no site
      in gap h stays isolated in every placed diagram.  Flipping it to
      (h, h+1) in the context is a bijection D ↦ D′ of the placed
      diagrams that keeps which terms are one diagram, and RI equates the
      class of D with that of D′ at weight +1.  So the flipped context at
      the same gaps gives rows of the same length and coefficients whose
      columns the union-find joins: a two-term row is parallel to a path
      of the same sign, and a longer row folds to the same key.
    * FI.  An isolated arrow of the context with no site in its gap stays
      isolated in every placed diagram, so every term of the placement is
      a dead class: its rows fold to nothing, and a two-term row joins
      only dead classes.

    Every context still has a kept representative at the same gaps.  A
    flip lowers the sum of the context's tail slots, and sorting a
    descent keeps that sum while lowering the inversions of the heads, so
    flips and sorts at uncut gaps, as long as any is left, stop at a
    context that is kept (or whose rows FI kills).
    """
    names = frozenset(relset & {"4T", "6T"})
    if m < 2 or not names:
        return
    plans, _, _, _, instances, same = _class_products(names)

    def one_diagram(k, l):
        """Whether products k and l, of one class, are one diagram when
        placed on ctx at gaps."""
        one = same[(gaps[0] == gaps[1]) + 2 * (gaps[1] == gaps[2])][k][l]
        if one is None:
            return list(_place(ctx, gaps, [plans[k]])) == list(
                _place(ctx, gaps, [plans[l]]))
        return one

    for ctx, ranks in _class_ranks(m, names):
        cuts = _cuts(ctx, relset)
        if len(cuts) > 3:  # more gaps than sites
            continue
        for free in combinations_with_replacement(range(2 * len(ctx) + 1),
                                                  3 - len(cuts)):
            gaps = tuple(sorted(cuts + list(free)))
            col = [column[r] for r in ranks(gaps)]
            for get, ks, signs in instances:
                cols = get(col)
                if len(set(cols)) == len(cols):
                    yield list(zip(cols, signs))
                    continue
                row = []  # [column, product, coefficient] per diagram
                for k, c in zip(ks, signs):
                    for e in row:
                        if e[0] == col[k] and one_diagram(e[1], k):
                            e[2] += c
                            break
                    else:
                        row.append([col[k], k, c])
                row = [(i, c) for i, _, c in row if c]
                if row:
                    yield row


def _class_isolated_rows(m, relset, column):
    """RI and FI on the long strand, read off the TC classes.  Head j's
    arrow is isolated in some diagram of a class exactly when its tail is
    in gap j (TC moves it next to the head, on the left) or in gap j + 1
    (on the right).  RI equates the class whose digit j is j with the one
    whose digit j is j + 1, as ``_isolated_arrow_relators`` equates the
    two diagrams, and FI kills each class with an isolated arrow."""
    power = [(m + 1) ** k for k in range(m)]
    for rank, digits in enumerate(product(range(m + 1), repeat=m)):
        isolated = False
        for j, g in enumerate(reversed(digits)):
            if g == j and "RI" in relset:
                yield [(column[rank], 1), (column[rank + power[j]], -1)]
            isolated = isolated or g == j or g == j + 1
        if isolated and "FI" in relset:
            yield [(column[rank], 1)]


def _class_relators(m, relset, column):
    """The relators of a long build with TC, as rows of (TC class column,
    int); TC itself holds in the columns."""
    _check_relations(LONG, relset)
    parts = [_class_two_arrow_rows(m, relset, column)]
    if relset & {"RI", "FI"} and m >= 1:
        parts.append(_class_isolated_rows(m, relset, column))
    if "CC" in relset and m >= 4:
        parts.append([(column[tc_rank(d)], c) for d, c in terms.items()]
                     for terms in _cc_relators(m))
    return chain.from_iterable(parts)


def _cc_relators(m):
    """CC: each block of ``jacobi.cc_blocks`` with its eight points in one
    gap of a degree-(m−4) context, at every gap.  Eight points in one gap
    land at eight consecutive slots, so a block's terms stay distinct."""
    # jacobi builds its diagrams on this module: the one import cycle left
    from .jacobi import cc_blocks
    blocks = cc_blocks()
    products = list(dict.fromkeys(a for block in blocks for a in block))
    plans = [_plan(arrows) for arrows in products]
    for ctx in enumerate_diagrams(LONG, m - 4):
        for g in range(2 * len(ctx) + 1):
            placed = dict(zip(products, _place(ctx, (g,) * 8, plans)))
            for block in blocks:
                yield {placed[arrows]: c for arrows, c in block.items()}


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

    A column is a diagram, held by its index in ``_diagrams``, or on the
    long strand with TC a TC class: ``_diagrams`` is then the least diagram
    of each class, in order, so the columns keep the order of those
    diagrams and the rows and basis are those of a build over all diagrams
    that starts each diagram's union-find at its class.  Relators become
    rows of (column, coefficient) pairs as they arrive; no relator is kept
    as a dict.  A signed union-find, whose weights are the ints ±1, takes
    the relators that are two diagrams with coefficients ±1 at once, also
    when both are one class, and keeps the least column of a class as its
    root: far commutation merges the words of a commutation class there,
    so each strand class is read at its least word.  The longer rows (4T,
    6T, CC) wait in one packed array until the union-find is final; then
    they are folded onto the surviving class representatives, deduplicated
    and echelonized in integer rows, highest pivot first: a stored row has
    no support left of its pivot, so a new row rarely meets a stored row
    that holds its pivot, and back-elimination is left to rows that share
    a pivot.  The
    RREF is canonical, so the order changes the work, not the rows.  The
    quotient basis is the set of non-pivot classes.

    The stored rows already write out the quotient map, so a vector is
    read without folding or reducing it: ``project`` adds up the images of
    its columns, in ints over one denominator ``_den`` (the lcm of the
    pivot entries, 1 in every quotient the library builds), and divides
    once per coordinate.  ``_index`` sends each diagram to its column
    (with TC classes it is filled as ``project`` meets diagrams), and
    ``_images`` each column met so far to its image.
    """

    _class_column = None  # class rank -> column, with TC classes

    def __init__(self, skeleton, m, relset):
        self.skeleton = skeleton
        self.m = m
        self.relset = frozenset(relset)
        if skeleton == LONG and "TC" in self.relset:
            self._diagrams, column = _tc_classes(m)
            self._index, self._class_column = {}, column
            rows = _class_relators(m, self.relset, column)
        else:
            diagrams = self._diagrams = enumerate_diagrams(skeleton, m)
            index = self._index = {d: i for i, d in enumerate(diagrams)}
            rows = ([(index[d], c) for d, c in terms.items()] for terms in
                    _relators(skeleton, m, self.relset, diagrams))
        n = len(self._diagrams)
        parent = list(range(n))
        weight = [1] * n       # column = weight * rep(column)
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

        pairs = array("q")     # (column, coefficient) of the longer rows
        ends = array("q")      # where each of those rows ends in pairs
        for terms in rows:
            if len(terms) > 2 or len(terms) == 2 and (
                    abs(terms[0][1]) != 1 or abs(terms[1][1]) != 1):
                for i, c in terms:
                    pairs.append(i)
                    pairs.append(c)
                ends.append(len(pairs))
            elif len(terms) == 1:
                r, _ = find(terms[0][0])
                dead[r] = True
            else:
                (i1, c1), (i2, c2) = terms
                r1, w1 = find(i1)
                r2, w2 = find(i2)
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
        # propagate deadness to roots; after this, i = weight[i] * parent[i]
        for i in range(n):
            r, _ = find(i)
            if dead[i]:
                dead[r] = True

        self._parent, self._weight, self._dead = parent, weight, dead
        self._ech = SparseEchelon()
        keys = set()
        start = 0
        for end in ends:
            row = self._to_row(zip(pairs[start:end:2],
                                   pairs[start + 1:end:2]))
            start = end
            if row:  # flat (column, value, ...) keys, in column order
                keys.add(tuple(chain.from_iterable(sorted(row.items()))))
        for key in sorted(keys, reverse=True):  # highest pivot first
            self._ech.add(dict(zip(key[::2], key[1::2])))
        reps = sorted({r for r in parent if not dead[r]})
        pivots = set(self._ech.pivots())
        basis = [r for r in reps if r not in pivots]
        self._position = {r: i for i, r in enumerate(basis)}
        self.basis = [self._diagrams[r] for r in basis]
        # the images' one denominator: 1 when every pivot entry is 1
        self._den = lcm(*(row[p] for p, row in self._ech.rows.items()))
        self._images = {}  # column -> image, filled as project meets it

    def _to_row(self, pairs):
        """(column, coefficient) pairs folded onto the live classes."""
        parent, weight, dead = self._parent, self._weight, self._dead
        row = {}
        for i, c in pairs:
            r = parent[i]
            if dead[r]:
                continue
            cw = row.get(r, 0) + c * weight[i]
            if cw:
                row[r] = cw
            else:
                row.pop(r, None)
        return row

    @property
    def dim(self):
        return len(self.basis)

    def _column(self, d):
        """The column of diagram d.  With TC classes, ``_index`` holds the
        diagrams met so far, and a canonical degree-m long diagram met for
        the first time is ranked and remembered."""
        if d not in self._index:
            try:
                ok = (self._class_column is not None and len(d) == self.m
                      and canonical_long(d) == d)
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ValueError("%r is not a degree-%d diagram on "
                                 "%r" % (d, self.m, self.skeleton))
            self._index[d] = self._class_column[tc_rank(d)]
        return self._index[d]

    def _image(self, i):
        """The image of column i, memoized: (position, numerator) pairs over
        ``_den``.  Column i is weight·r for its root r; a dead r maps to 0,
        a basis class to ±e_position, and a pivot class to its RREF row
        solved for r, −row[c]/row[r] at each other column c of the row,
        every one a basis class (an RREF row is zero on the other
        pivots)."""
        r, w = self._parent[i], self._weight[i]
        if self._dead[r]:
            image = ()
        elif r in self._position:
            image = ((self._position[r], w * self._den),)
        else:
            row = self._ech.rows[r]
            f = -w * (self._den // row[r])
            image = tuple((self._position[c], f * v)
                          for c, v in row.items() if c != r)
        self._images[i] = image
        return image

    def numerators(self, v, den=1):
        """(nums, n): the coordinates of the ArrowVector v / den are the
        ints nums[i] / n.  One pass over v's terms, scaled to ints over
        their own denominator, adds up the images of their columns."""
        if (v.skeleton, v.m) != (self.skeleton, self.m):
            raise ValueError("degree/skeleton mismatch")
        if set(map(type, v.terms.values())) <= {int}:  # as Z keeps them
            terms, den_v = v.terms, 1
        else:
            terms, den_v = integral(v.terms)
        index, images = self._index, self._images
        nums = [0] * len(self.basis)
        for d, c in terms.items():
            try:
                image = images[index[d]]
            except KeyError:  # met for the first time, or a stranger
                image = self._image(self._column(d))
            for p, x in image:
                nums[p] += c * x
        return nums, den_v * den * self._den

    def project(self, v, den=1):
        """Coordinates of the ArrowVector v / den in the quotient basis, as
        ``Rat``: ``numerators``, divided once per coordinate (an int-valued
        v over den, as ``Z`` keeps its terms, builds no fraction before
        that)."""
        nums, n = self.numerators(v, den)
        return [Rat(x, n) if x else ZERO for x in nums]

    def project_diagram(self, d):
        v = ArrowVector(self.skeleton, self.m)
        v.add_term(canonical_long(d) if self.skeleton == LONG else tuple(d),
                   rat(1))
        return self.project(v)


def quotient(skeleton, m, relset):
    return QuotientSpace(skeleton, m, relset)
