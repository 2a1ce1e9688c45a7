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
arrows of RI/FI and the commutator blocks of CC.
"""

from functools import partial
from itertools import combinations_with_replacement, permutations, product

from .rational import rat
from .linalg import SparseEchelon

LONG = ("long",)


def strands(n):
    return ("strands", int(n))


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
    return not (set(a) & set(b))


def canonical_word(word, n):
    """Lex-least representative of a word modulo disjoint-letter commutation."""
    w = list(tuple(l) for l in word)
    for p, q in w:
        if not (1 <= p <= n and 1 <= q <= n) or p == q:
            raise ValueError("bad letter %r" % ((p, q),))
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
    after slot g (gap 0 is before slot 1).  Points sharing a gap keep their
    index order, and endpoints at one point keep the order of ``arrows``,
    a sequence of (tail point, head point) pairs.
    """
    keys = [((t, 0, 0), (h, 0, 0)) for t, h in context]
    keys += [((gaps[u], 1 + u, i), (gaps[v], 1 + v, i))
             for i, (u, v) in enumerate(arrows)]
    slot = {k: s for s, k in
            enumerate(sorted(k for arrow in keys for k in arrow), start=1)}
    return tuple(sorted((slot[t], slot[h]) for t, h in keys))


def _placements(skeleton, ctx):
    """Ways to put three points on a context diagram, each a map from
    arrows between the points to a canonical diagram.  The points are
    sites 0, 1, 2 on the long strand, and strands 1..n otherwise."""
    if skeleton == LONG:
        for gaps in combinations_with_replacement(range(2 * len(ctx) + 1), 3):
            yield partial(place_long, ctx, gaps)
    else:
        n = skeleton[1]
        for pos in range(len(ctx) + 1):
            pre, post = ctx[:pos], ctx[pos:]
            yield (lambda arrows, pre=pre, post=post:
                   canonical_word(pre + arrows + post, n))


def _two_arrow_relators(skeleton, m, relset):
    points = range(3) if skeleton == LONG else range(1, skeleton[1] + 1)
    # each relation with its roles 0, 1, 2 sent to three distinct points p;
    # TC is antisymmetric in its two heads, so the other order of p[1], p[2]
    # would only repeat it negated
    instances = [[(tuple((p[t], p[h]) for t, h in arrows), rat(sign))
                  for arrows, sign in terms]
                 for p in permutations(points, 3)
                 for name, terms in TWO_ARROW_RELATIONS.items()
                 if name in relset and not (name == "TC" and p[1] > p[2])]
    out = []
    if m < 2 or not instances:
        return out
    for ctx in enumerate_diagrams(skeleton, m - 2):
        for place in _placements(skeleton, ctx):
            for terms in instances:
                v = ArrowVector(skeleton, m)
                for arrows, sign in terms:
                    v.add_term(place(arrows), sign)
                if not v.is_zero():
                    out.append(v)
    return out


def _isolated_arrow_relators(m, relset):
    """RI (right isolated arrow = left one) and FI (both vanish, once each)."""
    out, killed = [], {}
    for ctx in enumerate_diagrams(LONG, m - 1):
        for g in range(2 * (m - 1) + 1):
            right = place_long(ctx, (g, g), ((0, 1),))
            left = place_long(ctx, (g, g), ((1, 0),))
            if "RI" in relset:
                out.append(ArrowVector(LONG, m, {right: rat(1), left: rat(-1)}))
            if "FI" in relset:
                killed.update(dict.fromkeys((right, left)))
    return out + [ArrowVector(LONG, m, {d: rat(1)}) for d in killed]


def generate_relations(skeleton, m, relset):
    """All relator vectors of degree m for the given relation ids."""
    relset = frozenset(relset)
    known = {"TC", "4T", "6T", "RI", "FI", "CC"}
    if not relset <= known:
        raise ValueError("unknown relation ids: %r" % (relset - known,))
    if skeleton != LONG:
        if skeleton[0] != "strands":
            raise ValueError("unknown skeleton %r" % (skeleton,))
        if relset & {"RI", "FI", "CC"}:
            raise ValueError("RI/FI/CC apply to the long strand only")
    out = _two_arrow_relators(skeleton, m, relset)
    if skeleton == LONG and relset & {"RI", "FI"} and m >= 1:
        out += _isolated_arrow_relators(m, relset)
    if skeleton == LONG and "CC" in relset and m >= 4:
        from .jacobi import cc_arrow_relators
        out += cc_arrow_relators(m)
    return out


# --------------------------------------------------------------------------
# Quotient spaces
# --------------------------------------------------------------------------

class QuotientSpace:
    """Per-degree quotient of the diagram span by a relation set.

    Two-term ±1 relators are folded into a signed union-find first; the
    remaining relators are echelonized over the surviving class
    representatives.  The quotient basis is the set of non-pivot classes.
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
        weight = [rat(1)] * n  # diagram = weight * rep(diagram)
        dead = [False] * n     # class known to be zero

        def find(i):
            path = []
            while parent[i] != i:
                path.append(i)
                i = parent[i]
            w = rat(1)
            for j in reversed(path):  # point the path straight at the root
                w = weight[j] = weight[j] * w
                parent[j] = i
            return i, w

        relators = generate_relations(skeleton, m, relset)
        rest = []
        for v in relators:
            items = sorted(v.terms.items())
            if len(items) == 1:
                r, _ = find(self._index[items[0][0]])
                dead[r] = True
            elif (len(items) == 2 and abs(items[0][1]) == 1
                  and abs(items[1][1]) == 1):
                (d1, c1), (d2, c2) = items
                r1, w1 = find(self._index[d1])
                r2, w2 = find(self._index[d2])
                if r1 == r2:
                    if c1 * w1 + c2 * w2 != 0:
                        dead[r1] = True
                    continue
                # c1*w1*r1 + c2*w2*r2 = 0  =>  r1 = (-c2*w2/(c1*w1)) * r2
                if r1 < r2:
                    parent[r2] = r1
                    weight[r2] = -c1 * w1 / (c2 * w2)
                else:
                    parent[r1] = r2
                    weight[r1] = -c2 * w2 / (c1 * w1)
                if dead[max(r1, r2)]:
                    dead[min(r1, r2)] = True
            else:
                rest.append(v)
        # propagate deadness to roots; after this, i = weight[i] * parent[i]
        for i in range(n):
            r, _ = find(i)
            if dead[i]:
                dead[r] = True

        self._parent, self._weight, self._dead = parent, weight, dead
        self._ech = SparseEchelon()
        seen_rows = set()
        for v in rest:
            row = self._to_row(v)
            key = tuple(sorted(row.items()))
            if row and key not in seen_rows:
                seen_rows.add(key)
                self._ech.add(row)
        reps = sorted({r for r in parent if not dead[r]})
        pivots = set(self._ech.pivots())
        self.basis = [self._diagrams[r] for r in reps if r not in pivots]
        self._basis_index = {d: i for i, d in enumerate(self.basis)}

    def _to_row(self, v):
        row = {}
        for d, c in v.terms.items():
            i = self._index[d]
            r = self._parent[i]
            if self._dead[r]:
                continue
            cw = row.get(r, rat(0)) + c * self._weight[i]
            if cw:
                row[r] = cw
            else:
                row.pop(r, None)
        return row

    @property
    def dim(self):
        return len(self.basis)

    def project(self, v):
        """Coordinates of an ArrowVector in the quotient basis."""
        if (v.skeleton, v.m) != (self.skeleton, self.m):
            raise ValueError("degree/skeleton mismatch")
        row = self._ech.reduce(self._to_row(v))
        out = [rat(0)] * self.dim
        for r, c in row.items():
            d = self._diagrams[r]
            if d not in self._basis_index:
                raise AssertionError("reduced row touches a pivot class")
            out[self._basis_index[d]] = c
        return out

    def project_diagram(self, d):
        v = ArrowVector(self.skeleton, self.m)
        v.add_term(canonical(self.skeleton, d), rat(1))
        return self.project(v)


def quotient(skeleton, m, relset):
    return QuotientSpace(skeleton, m, relset)
