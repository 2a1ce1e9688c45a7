"""Reference implementations that the fast paths in ``src/`` are tested
against: the slower paths they replaced, most of them exponential, so
they only fit small inputs."""

import math
from bisect import bisect_left
from itertools import combinations_with_replacement, permutations, product

from wknots.alexander import alexander_det, build_S, build_T
from wknots.arrows import (LONG, TWO_ARROW_RELATIONS, ArrowVector,
                           QuotientSpace, _relators, canonical_long,
                           canonical_word, enumerate_diagrams, strands)
from wknots.expansion import TruncatedExpansion, expansion_exp, wheels_reduce
from wknots.gauss import self_linking
from wknots.jacobi import monomial_to_arrows
from wknots.lieweights import PBWElement, lie_validate
from wknots.linalg import SparseEchelon
from wknots.rational import Rat, rat
from wknots.rings import (LaurentPoly, TruncSeries, laurent_at_exp,
                          laurent_normalize, series_log)


def is_zero(v):
    f = getattr(v, "is_zero", None)
    return f() if f else not v


class FractionEchelon:
    """``linalg.SparseEchelon`` with every value a ``Rat``: incremental
    reduced row-echelon form, rows as dicts column -> nonzero rational."""

    def __init__(self):
        self.rows = {}  # pivot column -> row dict

    def reduce(self, row):
        row = {c: Rat(v) for c, v in row.items() if v}
        for c in sorted(row):
            if c not in row:
                continue
            piv = self.rows.get(c)
            if piv is None:
                continue
            factor = row[c]
            for pc, pv in piv.items():
                w = row.get(pc, Rat(0)) - factor * pv
                if w:
                    row[pc] = w
                else:
                    row.pop(pc, None)
        return row

    def add(self, row):
        row = self.reduce(row)
        if not row:
            return False
        p = min(row)
        inv = 1 / row[p]
        row = {c: v * inv for c, v in row.items()}
        for r in self.rows.values():
            f = r.get(p)
            if f is None:
                continue
            for c, v in row.items():
                w = r.get(c, Rat(0)) - f * v
                if w:
                    r[c] = w
                else:
                    r.pop(c, None)
        self.rows[p] = row
        return True

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)


def laplace_det(rows, one):
    """Determinant by division-free Laplace expansion along the rows,
    memoized on the column subset: O(n·2^n) ring operations."""
    n = len(rows)
    memo = {}

    def minor(row, cols):
        # determinant of rows row..n-1 on the column bitmask `cols`
        if row == n:
            return one
        if cols in memo:
            return memo[cols]
        total = one - one
        sign = 1
        for j in range(n):
            if not (cols >> j) & 1:
                continue
            entry = rows[row][j]
            if not is_zero(entry):
                term = entry * minor(row + 1, cols & ~(1 << j))
                total = total + term if sign > 0 else total - term
            sign = -sign
        memo[cols] = total
        return total

    return minor(0, (1 << n) - 1)


def laplace_alexander_matrix(k, d):
    """The Alexander pair (series, polynomial) computed as two separate
    Laplace determinants: over ℤ[X^±1], and over series with the matrix
    entries X^s − 1 replaced by e^{s·x} − 1."""
    S, T = build_S(k), build_T(k)
    n = len(S)
    one = LaurentPoly.const(1)
    rows = [[(one if i == j else 0) - (LaurentPoly.x(S[i][i]) - one) * T[i][j]
             for j in range(n)] for i in range(n)]
    one_s = TruncSeries.const(d, 1)
    srows = []
    for i in range(n):
        e = TruncSeries(d, {m: rat(S[i][i] ** m, math.factorial(m))
                            for m in range(1, d + 1)})
        srows.append([(one_s if i == j else 0) - e * T[i][j]
                      for j in range(n)])
    return (laplace_det(srows, one_s),
            laurent_normalize(laplace_det(rows, one)))


def arrow_side_prediction(g, d, flags=frozenset({"RI"})):
    """The Alexander prediction computed among arrow diagrams: build
    sl·a − c_1·(1-wheel) + Σ_{k≥2} c_k·(k-wheel) as an expansion,
    exponentiate it by repeated juxtaposition and read the result in wheel
    coordinates."""
    phi = series_log(laurent_at_exp(alexander_det(g).mirror(), d))
    e = TruncatedExpansion(LONG, d)
    if d >= 1:
        e.comps[1].add_term(((1, 2),), rat(self_linking(g)))
        e.comps[1] = e.comps[1] - monomial_to_arrows((("w", 1),)) * phi[1]
    for k in range(2, d + 1):
        if phi[k]:
            e.comps[k] = e.comps[k] + monomial_to_arrows((("w", k),)) * phi[k]
    return wheels_reduce(expansion_exp(e), flags)


def zed_braid_fractions(b, d, start=None):
    """``zed_braid`` with one rational per term and crossing: each letter
    multiplies every term by exp(ε·a) in place."""
    n = b.n
    skel = strands(n)
    pos = list(start) if start else list(range(1, n + 1))
    z = TruncatedExpansion.unit(skel, d)
    for kind, i, sgn in b.letters:
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
                    coeff = rat(sgn ** k, math.factorial(k))
                    for w, c in src.terms.items():
                        nz.comps[m].add_term(
                            canonical_word(w + (letter,) * k, n), c * coeff)
            z = nz
        pos[i - 1], pos[i] = pos[i], pos[i - 1]
    return z


def zed_knot_recursive(g, d, normalize=False):
    """``zed_knot`` by recursion over the multiplicities (k_1..k_n) of all
    arrows, with one rational per node and ``canonical_long`` per leaf."""
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
                coeff * rat(s ** k, math.factorial(k)))
            k += 1

    rec(0, 0, [], rat(1))
    if normalize:
        e = TruncatedExpansion(LONG, d)
        if d >= 1:
            e.comps[1].add_term(((1, 2),), rat(-self_linking(g)))
        z = z * expansion_exp(e)
    return z


def _insert_long(context, placements):
    """Insert arrows ((gap, rank), (gap, rank)) into a long context diagram
    by scaling its slots apart and placing the new endpoints in between."""
    big = [(192 * t, 192 * h) for t, h in context]
    for (gt, rt), (gh, rh) in placements:
        big.append((192 * gt + 64 + rt, 192 * gh + 64 + rh))
    return canonical_long(big)


def _term_long(context, sites, letters):
    """A two-letter product at three sites (gaps) of a long context: site
    index, then letter index, orders endpoints inside one gap."""
    return _insert_long(context, [((sites[u], 8 * u + i), (sites[v], 8 * v + i))
                                  for i, (u, v) in enumerate(letters)])


def long_relators(m, relset):
    """Long-strand TC/4T/6T/RI/FI relators, each relation written out on
    its own; TC swaps every pair of adjacent tails of every diagram."""
    out = []

    def emit(pairs):
        v = ArrowVector(LONG, m)
        for d, c in pairs:
            v.add_term(d, rat(c))
        if not v.is_zero():
            out.append(v)

    if "TC" in relset:
        for d in enumerate_diagrams(LONG, m):
            tails = {t for t, _ in d}
            for i in range(1, 2 * m):
                if i in tails and i + 1 in tails:
                    swap = {i: i + 1, i + 1: i}
                    emit([(d, 1), (canonical_long([(swap.get(t, t), h)
                                                   for t, h in d]), -1)])
    if ("4T" in relset or "6T" in relset) and m >= 2:
        for ctx in enumerate_diagrams(LONG, m - 2):
            for sites in combinations_with_replacement(range(2 * m - 3), 3):
                for i, j, k in permutations(range(3)):
                    def term(a, b):
                        return _term_long(ctx, sites, [a, b])
                    ij, ik, jk = (i, j), (i, k), (j, k)
                    if "4T" in relset:
                        emit([(term(ij, jk), 1), (term(jk, ij), -1),
                              (term(ik, jk), 1), (term(jk, ik), -1)])
                    if "6T" in relset:
                        emit([(term(ij, ik), 1), (term(ij, jk), 1),
                              (term(ik, jk), 1), (term(ik, ij), -1),
                              (term(jk, ij), -1), (term(jk, ik), -1)])
    if m >= 1:
        for ctx in enumerate_diagrams(LONG, m - 1):
            for g in range(2 * m - 1):
                right = _insert_long(ctx, [((g, 0), (g, 1))])
                left = _insert_long(ctx, [((g, 1), (g, 0))])
                if "RI" in relset:
                    emit([(right, 1), (left, -1)])
                if "FI" in relset:
                    emit([(right, 1)])
                    emit([(left, 1)])
    return out


def per_product_place_long(context, gaps, arrows):
    """``arrows.place_long`` placing one product at a time, for any gaps:
    the new endpoints sorted by (gap, point, arrow, end), and the context
    lifted past them anew for every product."""
    ends = sorted([(gaps[u], 1 + u, i, e) for i, arrow in enumerate(arrows)
                   for e, u in enumerate(arrow)])
    placed = [[0, 0] for _ in arrows]
    below = []
    for k, (g, _, i, e) in enumerate(ends, start=1):
        placed[i][e] = g + k
        below.append(g)
    return tuple(sorted([(t + bisect_left(below, t), h + bisect_left(below, h))
                         for t, h in context] + [tuple(a) for a in placed]))


def per_product_two_arrow_relators(skeleton, m, relset):
    """The TC/4T/6T relators of ``arrows._relators``, in the same order,
    each distinct product placed on its own by ``per_product_place_long``
    or by inserting its letters into a strand word."""
    points = range(3) if skeleton == LONG else range(1, skeleton[1] + 1)
    instances = [[(tuple((p[t], p[h]) for t, h in arrows), sign)
                  for arrows, sign in terms]
                 for p in permutations(points, 3)
                 for name, terms in TWO_ARROW_RELATIONS.items()
                 if name in relset and not (name == "TC" and p[1] > p[2])]
    if m < 2 or not instances:
        return
    products = {arrows for terms in instances for arrows, _ in terms}
    for ctx in enumerate_diagrams(skeleton, m - 2):
        if skeleton == LONG:
            places = [lambda arrows, gaps=gaps:
                      per_product_place_long(ctx, gaps, arrows)
                      for gaps in combinations_with_replacement(
                          range(2 * len(ctx) + 1), 3)]
        else:
            places = [lambda arrows, pos=pos:
                      canonical_word(ctx[:pos] + arrows + ctx[pos:],
                                     skeleton[1])
                      for pos in range(len(ctx) + 1)]
        for place in places:
            placed = {arrows: place(arrows) for arrows in products}
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


# --------------------------------------------------------------------------
# PBW straightening by a rewrite stack, and the index-vector weight system
# --------------------------------------------------------------------------

def _ordered(g1, g2):
    if g1[0] == "p" and g2[0] == "x":
        return True
    if g1[0] == "x" and g2[0] == "p":
        return False
    return g1[1] <= g2[1]


def _swap_terms(g1, g2, L):
    """g1 g2 = g2 g1 + [g1, g2]; returns the bracket as {mono: coeff}."""
    out = {}
    if g1[0] == "x" and g2[0] == "x":
        for l, v in L.bracket(g1[1], g2[1]).items():
            out[(("x", l),)] = v
    elif g1[0] == "x" and g2[0] == "p":
        # [x_j, φ^a] = −Σ_m c_jm^a φ^m
        j, a = g1[1], g2[1]
        for m in range(1, L.r + 1):
            v = L.bracket(j, m).get(a, rat(0))
            if v:
                out[(("p", m),)] = out.get((("p", m),), rat(0)) - v
    elif g1[0] == "p" and g2[0] == "x":
        j, a = g2[1], g1[1]
        for m in range(1, L.r + 1):
            v = L.bracket(j, m).get(a, rat(0))
            if v:
                out[(("p", m),)] = out.get((("p", m),), rat(0)) + v
    return {m: c for m, c in out.items() if c}


def stack_pbw_normalize(terms, L):
    """Straighten a {word: coeff} dict into PBW order by swapping the first
    out-of-order adjacent pair of each word until none is left."""
    out = PBWElement()
    stack = list(terms.items())
    while stack:
        mono, coeff = stack.pop()
        if not coeff:
            continue
        for i in range(len(mono) - 1):
            if not _ordered(mono[i], mono[i + 1]):
                swapped = mono[:i] + (mono[i + 1], mono[i]) + mono[i + 2:]
                stack.append((swapped, coeff))
                for bmono, bc in _swap_terms(mono[i], mono[i + 1], L).items():
                    stack.append((mono[:i] + bmono + mono[i + 2:],
                                  coeff * bc))
                break
        else:
            out.add(mono, coeff)
    return out


def stack_pbw_mul(u, v, L):
    """Product of two single-factor PBW elements: concatenate, straighten."""
    raw = {}
    for m1, c1 in u.terms.items():
        for m2, c2 in v.terms.items():
            raw[m1 + m2] = raw.get(m1 + m2, rat(0)) + c1 * c2
    return stack_pbw_normalize(raw, L)


def _diagram_strand_words(skeleton, diagram):
    """Per-strand generator sequences of one diagram, with each index the
    arrow number: ("p", a) for the tail of arrow a, ("x", a) for its head."""
    if skeleton == LONG:
        events = []
        for a, (t, h) in enumerate(diagram):
            events.append((t, ("p", a)))
            events.append((h, ("x", a)))
        return [[g for _, g in sorted(events)]]
    seqs = [[] for _ in range(skeleton[1])]
    for a, (p, q) in enumerate(diagram):
        seqs[p - 1].append(("p", a))
        seqs[q - 1].append(("x", a))
    return seqs


def index_vector_weight_system(dvec, L):
    """``lieweights.weight_system`` as a loop over all r^m index vectors,
    each strand word straightened on its own by the rewrite stack."""
    if not lie_validate(L):
        raise ValueError("invalid Lie structure constants")
    total = PBWElement()
    for diagram, coeff in dvec.terms.items():
        seqs = _diagram_strand_words(dvec.skeleton, diagram)
        for idx in product(range(1, L.r + 1), repeat=len(diagram)):
            raws = [tuple((kind, idx[a]) for kind, a in seq) for seq in seqs]
            if dvec.skeleton == LONG:
                norm = stack_pbw_normalize({raws[0]: coeff}, L)
                for mono, c in norm.terms.items():
                    total.add(mono, c)
                continue
            parts = [stack_pbw_normalize({w: rat(1)}, L) for w in raws]
            combos = [((), coeff)]
            for part in parts:
                combos = [(acc + (mono,), c * pc)
                          for acc, c in combos
                          for mono, pc in part.terms.items()]
            for key, c in combos:
                total.add(key, c)
    return total


# --------------------------------------------------------------------------
# The quotient fold over relator dicts
# --------------------------------------------------------------------------

class DictFoldQuotient(QuotientSpace):
    """``arrows.QuotientSpace`` folded the way it was before relators
    became packed index rows: TC generated as relators on every skeleton,
    and every relator that is not two-term held as a {diagram: coefficient}
    dict, coefficients as generated, until the union-find is final.  The
    read side (``project``) is inherited."""

    def __init__(self, skeleton, m, relset):
        self.skeleton = skeleton
        self.m = m
        self.relset = frozenset(relset)
        diagrams = enumerate_diagrams(skeleton, m)
        self._index = {d: i for i, d in enumerate(diagrams)}
        self._diagrams = diagrams
        n = len(diagrams)
        parent = list(range(n))
        weight = [1] * n
        dead = [False] * n

        def find(i):
            w = 1
            while parent[i] != i:
                w *= weight[i]
                i = parent[i]
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
                lo, hi = min(r1, r2), max(r1, r2)
                parent[hi] = lo
                weight[hi] = -1 if c1 * w1 == c2 * w2 else 1
                dead[lo] = dead[lo] or dead[hi]
            else:
                rest.append(terms)
        roots = [find(i) for i in range(n)]
        for i, (r, _) in enumerate(roots):
            dead[r] = dead[r] or dead[i]
        # point every diagram at its root, as the read side expects
        self._parent = [r for r, _ in roots]
        self._weight = [w for _, w in roots]
        self._dead = dead
        self._ech = SparseEchelon()
        seen_rows = set()
        for terms in rest:
            row = {}
            for d, c in terms.items():
                i = self._index[d]
                r, w = roots[i]
                if dead[r]:
                    continue
                cw = row.get(r, 0) + c * w
                if cw:
                    row[r] = cw
                else:
                    row.pop(r, None)
            key = tuple(sorted(row.items()))
            if row and key not in seen_rows:
                seen_rows.add(key)
                self._ech.add(row)
        reps = sorted({r for r, _ in roots if not dead[r]})
        pivots = set(self._ech.pivots())
        basis = [r for r in reps if r not in pivots]
        self._position = {r: i for i, r in enumerate(basis)}
        self.basis = [self._diagrams[r] for r in basis]
