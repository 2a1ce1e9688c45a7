"""Reference implementations that the fast paths in ``src/`` are tested
against: the slower paths they replaced, most of them exponential, so
they only fit small inputs."""

import math
from bisect import bisect_left
from collections import Counter
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)

from wknots.alexander import alexander_det
from wknots.arrows import (LONG, TWO_ARROW_RELATIONS, ArrowVector,
                           QuotientSpace, _relators, canonical_long,
                           enumerate_diagrams, strands)
from wknots.expansion import TruncatedExpansion, expansion_exp, wheels_reduce
from wknots.freegroup import FreeAut, aut_compose
from wknots.gauss import GaussDiagram, apply_move, self_linking
from wknots.jacobi import (TrivalentDiagram, _commutator_block,
                           monomial_to_arrows, stu_eliminate)
from wknots.lieweights import PBWElement, lie_validate
from wknots.linalg import SparseEchelon, integral
from wknots.rational import ZERO, Rat, rat
from wknots.rings import (LaurentPoly, TruncSeries, laurent_at_exp,
                          laurent_normalize, series_log)
from wknots.wbraid import FLIP, letter_action


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


def laurent_divexact(a, b):
    """The q with q * b == a, by long division from the top exponent
    down; ArithmeticError if there is no such q."""
    if b.is_zero():
        raise ZeroDivisionError("Laurent division by zero")
    rem, q = dict(a.coeffs), {}
    top = max(b.coeffs)
    lowest = min(rem, default=0) - min(b.coeffs)
    while rem:
        e = max(rem) - top
        c, r = divmod(rem[e + top], b.coeffs[top])
        if r or e < lowest:  # below any exponent of an exact q
            raise ArithmeticError("inexact Laurent division")
        q[e] = c
        for f, v in b.coeffs.items():
            w = rem.get(e + f, 0) - c * v
            if w:
                rem[e + f] = w
            else:
                del rem[e + f]
    return LaurentPoly(q)


def laurent_bareiss_det(rows):
    """``linalg.RatMatrix.det`` as it ran before Kronecker substitution:
    Bareiss elimination with row pivoting on the ``LaurentPoly`` entries
    themselves, each step an exact Laurent division by the last pivot."""
    a = [list(r) for r in rows]
    n = len(a)
    one = LaurentPoly.const(1)
    sign, prev = 1, one
    for k in range(n):
        p = next((i for i in range(k, n) if not is_zero(a[i][k])), None)
        if p is None:
            return LaurentPoly()
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        row, piv = a[k], a[k][k]
        for i in range(k + 1, n):
            f = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = laurent_divexact(piv * a[i][j] - f * row[j], prev)
        prev = piv
    return prev if sign > 0 else -prev


def _ordered_arrows(k):
    """Arrows sorted by head slot: the matrix rows/columns index order."""
    return sorted(k.arrows, key=lambda a: a[1])


def build_S(k):
    """Diagonal matrix of crossing signs, in arrow (head-slot) order."""
    arrows = _ordered_arrows(k)
    n = len(arrows)
    return [[arrows[i][2] if i == j else 0 for j in range(n)] for i in range(n)]


def build_T(k):
    """Trapping matrix: T[i][j] = ±1 when arrow i traps the head of arrow j.

    Arrow i with tail t and head h "traps" the stretch of the long line its
    over-strand covers: slots strictly between t and h for a right-pointing
    arrow (t < h), and slots in [h, t) — including its own head — for a
    left-pointing one, counted with sign −1.
    """
    arrows = _ordered_arrows(k)
    n = len(arrows)
    T = [[0] * n for _ in range(n)]
    for i, (t, h, _) in enumerate(arrows):
        for j, (_, hj, _) in enumerate(arrows):
            if t < h:
                if t < hj < h:
                    T[i][j] = 1
            else:
                if h <= hj < t:
                    T[i][j] = -1
    return T


def alexander_rows(k):
    """The matrix I − diag(X^{s_i} − 1) · T of ``alexander_det``, by ring
    arithmetic on the sign matrix S and the trapping matrix T."""
    S, T = build_S(k), build_T(k)
    one = LaurentPoly.const(1)
    return [[(one if i == j else 0) - (LaurentPoly.x(S[i][i]) - one) * T[i][j]
             for j in range(len(T))] for i in range(len(T))]


def fox_derivative(word, gen):
    """``alexander._fox_derivative`` by ring arithmetic, one ``+`` a
    letter."""
    out = LaurentPoly.const(0)
    prefix = 0  # exponent sum of the prefix read so far
    for g, s in word:
        if g == gen:
            if s > 0:
                out = out + LaurentPoly.x(prefix)
            else:
                out = out + LaurentPoly.x(prefix - 1, -1)
        prefix += s
    return out


def series_log_products(s):
    """``rings.series_log`` as the Mercator sum Σ (−1)^{k+1} (s−1)^k / k,
    one truncated series product a term."""
    if s.coeffs[0] != 1:
        raise ValueError("series_log requires constant term 1")
    d = s.cap
    u = s - 1
    out = TruncSeries(d)
    term = TruncSeries.const(d, 1)
    for k in range(1, d + 1):
        term = term * u
        out = out + term * rat((-1) ** (k + 1), k)
    return out


def laplace_alexander_matrix(k, d):
    """The Alexander pair (series, polynomial) computed as two separate
    Laplace determinants: over ℤ[X^±1], and over series with the matrix
    entries X^s − 1 replaced by e^{s·x} − 1."""
    S, T = build_S(k), build_T(k)
    n = len(S)
    one_s = TruncSeries.const(d, 1)
    srows = []
    for i in range(n):
        e = TruncSeries(d, {m: rat(S[i][i] ** m, math.factorial(m))
                            for m in range(1, d + 1)})
        srows.append([(one_s if i == j else 0) - e * T[i][j]
                      for j in range(n)])
    return (laplace_det(srows, one_s), laurent_normalize(
        laplace_det(alexander_rows(k), LaurentPoly.const(1))))


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


def zed_braid_fractions(b, d):
    """``zed_braid`` with one rational per term and crossing: each letter
    multiplies every term by exp(ε·a) in place.  Flip letters are refused,
    as by ``zed_braid``."""
    if any(kind == FLIP for kind, _, _ in b.letters):
        raise ValueError("flip letters have no arrow-valued expansion")
    n = b.n
    skel = strands(n)
    pos = list(range(1, n + 1))
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
                        nz.comps[m].add_term(w + (letter,) * k, c * coeff)
            z = nz
        pos[i - 1], pos[i] = pos[i], pos[i - 1]
    return z


def legal_moves_by_slot_triples(g):
    """``checks._legal_moves`` with every slot triple i < j < l offered to
    ``apply_move`` as a slide, C(2k − 1, 3) tries."""
    gaps = range(2 * g.k + 1)
    slots = range(1, 2 * g.k)
    out = [("r2", gt, go, sign, nested) for gt in gaps for go in gaps
           if gt != go for sign in (1, -1) for nested in (False, True)]
    tries = [(name, i) for i in slots for name in ("r1s", "r2del", "oc")]
    tries += [("r3",) + ijl for ijl in combinations(slots, 3)]
    for mv in tries:
        try:
            apply_move(g, *mv)
        except ValueError:
            continue
        out.append(mv)
    return out


def isolating_slot_triples(g):
    """The slot triples i < j < l whose pairs (i, i+1), (j, j+1), (l, l+1)
    are disjoint and hold both endpoints of exactly three arrows: the
    slides that ``apply_move`` goes on to test with ``_is_slide``."""
    out = []
    for ijl in combinations(range(1, 2 * g.k), 3):
        pairs = {x for i in ijl for x in (i, i + 1)}
        inside = [(t, h) for t, h, _ in g.arrows if t in pairs or h in pairs]
        if len(pairs) == 6 and len(inside) == 3 and all(
                t in pairs and h in pairs for t, h in inside):
            out.append(ijl)
    return out


def braid_closure_two_pass(b):
    """``gauss.braid_closure`` in two passes: record each strand's
    crossing passages in braid order, then number them along the closure,
    strand after strand."""
    n = b.n
    # first pass: record crossing passages in braid order, per strand
    pos = list(range(1, n + 1))  # pos[i] = strand currently at position i+1
    per_strand = {s: [] for s in range(1, n + 1)}
    cid = 0
    for kind, i, sgn in b.letters:
        if kind == "s":
            lo, hi = pos[i - 1], pos[i]
            # positive crossing: the strand moving from position i to i+1
            # passes over; negative crossing: it passes under
            over, under = (lo, hi) if sgn > 0 else (hi, lo)
            per_strand[over].append((cid, "o", sgn))
            per_strand[under].append((cid, "u", sgn))
            cid += 1
            pos[i - 1], pos[i] = hi, lo
        elif kind == "v":
            pos[i - 1], pos[i] = pos[i], pos[i - 1]
        # flips do not move strands or create crossings

    order = closure_order(pos)
    if len(order) != n:
        raise ValueError("braid closure is a link, not a knot")
    # second pass: slots along the long line, pass after pass
    endpoints = {}
    slot = 0
    for s in order:
        for cid_, role, sgn in per_strand[s]:
            slot += 1
            endpoints.setdefault(cid_, {})[role] = (slot, sgn)
    arrows = []
    for cid_ in sorted(endpoints):
        (t, sgn), (h, _) = endpoints[cid_]["o"], endpoints[cid_]["u"]
        arrows.append((t, h, sgn))
    return GaussDiagram(arrows)


def closure_order(top):
    """The strands that the closure runs through from strand 1 on, given
    the strand at each top position: the strand ending at top position p
    runs on as strand p."""
    after = {s: p for p, s in enumerate(top, 1)}
    order = [1]
    while after[order[-1]] != 1:
        order.append(after[order[-1]])
    return order


def close_word(z, order):
    """Close an expansion on strands(n) onto the long strand: each word is
    laid along the closure, strand by strand in ``order``, its endpoints
    on one strand in word order.  Words that close onto one diagram sum,
    over the same denominator."""
    leg = {s: i for i, s in enumerate(order)}
    out = TruncatedExpansion(LONG, z.d, z.den)
    for m in range(z.d + 1):
        acc = Counter()
        for w, c in z.comps[m].terms.items():
            ends = sorted((leg[s], j, e) for j, letter in enumerate(w)
                          for e, s in enumerate(letter))
            slot = {(j, e): x for x, (_, j, e) in enumerate(ends, 1)}
            acc[tuple(sorted((slot[j, 0], slot[j, 1])
                             for j in range(m)))] += c
        out.comps[m].terms = {g: c for g, c in acc.items() if c}
    return out


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


def support_shapes_by_combinations(arrows, d):
    """``expansion._support_shapes`` over ``itertools.combinations``: each
    support of at most d of the slot-sorted ``arrows`` sorts its endpoints
    by slot afresh."""
    shapes = Counter()
    for p in range(min(len(arrows), d) + 1):
        for sub in combinations(arrows, p):
            # endpoint 2c is the tail of sub[c], 2c + 1 its head
            order = sorted(range(2 * p), key=lambda e: sub[e >> 1][e & 1])
            neg = sum(1 << c for c in range(p) if sub[c][2] < 0)
            shapes[tuple(order), neg] += 1
    return shapes


def support_terms_flat(order, d):
    """``expansion._support_terms`` as one flat list, over
    ``itertools.product``: (m, diagram, d!/Π k_c!, odd mask of ks) for
    each composition ks of at most d over the arrows of ``order``."""
    p, out = len(order) // 2, []
    slot = [0] * (2 * p)
    for ks in product(range(1, d + 1), repeat=p):
        if sum(ks) > d:
            continue
        s = 1
        for e in order:
            slot[e], s = s, s + ks[e >> 1]
        num = math.factorial(d)
        for k in ks:
            num //= math.factorial(k)
        out.append((sum(ks), tuple((slot[2 * c] + j, slot[2 * c + 1] + j)
                                   for c in range(p) for j in range(ks[c])),
                    num, sum(1 << c for c in range(p) if ks[c] & 1)))
    return out


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


def tc_canonical(diagram):
    """The least diagram in the TC class of a canonical long diagram, the
    seed of each diagram's union-find when the long build had a column
    per diagram.

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


def per_product_place_long(context, gaps, arrows):
    """``arrows._place`` placing one product at a time, for any gaps:
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
            places = [lambda arrows, pos=pos: ctx[:pos] + arrows + ctx[pos:]
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


def cc_arrow_relators(m):
    """The CC relators of ``arrows._relators`` as ``Rat`` vectors, in the
    same order: each commutator block slid through another (an interleaving
    of the two blocks' legs minus the separated placement) is eliminated to
    arrows, and every term is put on its own by ``per_product_place_long``
    into each gap of each degree-(m−4) context."""
    if m < 4:
        return []

    def placed(a_positions):
        la, va = _commutator_block("a")
        lb, vb = _commutator_block("b")
        legs = [None] * 6
        b_positions = [p for p in range(6) if p not in a_positions]
        for leg, p in zip(la, a_positions):
            legs[p] = leg
        for leg, p in zip(lb, b_positions):
            legs[p] = leg
        return TrivalentDiagram(legs, va + vb)

    separated = stu_eliminate(placed((0, 1, 2)))
    bases = []
    for a_pos in combinations(range(6), 3):
        v = stu_eliminate(placed(a_pos)) - separated
        if not v.is_zero():
            bases.append(v)

    out = []
    for ctx in enumerate_diagrams(LONG, m - 4):
        for g in range(0, 2 * (m - 4) + 1):
            for base in bases:
                v = ArrowVector(LONG, m)
                for d, c in base.terms.items():
                    block = [(t - 1, h - 1) for t, h in d]
                    v.add_term(per_product_place_long(ctx, (g,) * 8, block),
                               c)
                if not v.is_zero():
                    out.append(v)
    return out


def _strand_letters(n):
    return [(p, q) for p in range(1, n + 1) for q in range(1, n + 1)
            if p != q]


def commutation_classes(n, m):
    """The words of length m on n strands, grouped by breadth-first search
    over swaps of two adjacent letters on disjoint strand pairs."""
    seen, classes = set(), []
    for w in product(_strand_letters(n), repeat=m):
        if w in seen:
            continue
        seen.add(w)
        cls = [w]
        for u in cls:  # grows while it is read
            for i in range(m - 1):
                a, b = u[i], u[i + 1]
                if not set(a) & set(b):
                    v = u[:i] + (b, a) + u[i + 2:]
                    if v not in seen:
                        seen.add(v)
                        cls.append(v)
        classes.append(cls)
    return classes


def raw_word_dim(n, m, relset):
    """Dimension of the strands(n) quotient in degree m built without
    canonical words: the columns are the commutation classes of raw words,
    and each TC/4T/6T instance is inserted into every raw word of degree
    m−2 at every position."""
    classes = commutation_classes(n, m)
    column = {w: i for i, cls in enumerate(classes) for w in cls}
    points = range(1, n + 1)
    instances = [[(tuple((p[t], p[h]) for t, h in arrows), sign)
                  for arrows, sign in terms]
                 for p in permutations(points, 3)
                 for name, terms in TWO_ARROW_RELATIONS.items()
                 if name in relset]
    ech = SparseEchelon()
    if m >= 2:
        for ctx in product(_strand_letters(n), repeat=m - 2):
            for pos in range(m - 1):
                for terms in instances:
                    row = {}
                    for arrows, sign in terms:
                        c = column[ctx[:pos] + arrows + ctx[pos:]]
                        row[c] = row.get(c, 0) + sign
                    ech.add(row)
    return len(classes) - ech.rank


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
    dict, coefficients as generated, until the union-find is final.  Its
    rows go to the echelon in generation order, where ``QuotientSpace``
    inserts them highest pivot first, so comparing the two also checks
    that the stored rows do not depend on the order.  Its ``project`` is
    the read path ``QuotientSpace`` had before it read coordinates off
    per-column images: fold, then reduce against the stored rows."""

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

    def project(self, v, den=1):
        """The fold-and-reduce read path: v's terms scaled to ints over
        their own denominator, folded onto the live classes, reduced against
        the stored rows and divided once.  It reads only what every build
        leaves (the union-find, the stored rows and the basis positions),
        so ``DictFoldQuotient.project(q, v, den)`` reduces v in any
        ``QuotientSpace`` q."""
        if (v.skeleton, v.m) != (self.skeleton, self.m):
            raise ValueError("degree/skeleton mismatch")
        terms, den_v = integral(v.terms)
        row = self._to_row([(self._column(d), c) for d, c in terms.items()])
        row = self._ech.reduce(row, den_v * den)
        if not row.keys() <= self._position.keys():
            raise AssertionError("reduced row touches a pivot class")
        coords = {self._position[r]: c for r, c in row.items()}
        return [coords.get(i, ZERO) for i in range(self.dim)]


# --------------------------------------------------------------------------
# The w-braid action letter by letter
# --------------------------------------------------------------------------

def braid_action_by_letters(b):
    """``wbraid.braid_action`` as a fold left to right: one full
    automorphism per letter, composed onto the running product."""
    aut = FreeAut.identity(b.n)
    for letter in b.letters:
        aut = aut_compose(aut, letter_action(b.n, letter))
    return aut


# --------------------------------------------------------------------------
# Z against the action on the free group: a letter (p, q) acts on the free
# algebra Q<X_1..X_n> as the derivation X_q -> [X_q, X_p], and the Magnus
# expansion x_i -> e^{X_i} carries F_n into that algebra.  Polynomials are
# dicts {word of generator indices: Rat}, truncated above a degree ``top``.
# --------------------------------------------------------------------------

def _poly_mul(u, v, top):
    out = {}
    for a, x in u.items():
        for b, y in v.items():
            if len(a) + len(b) <= top:
                out[a + b] = out.get(a + b, 0) + x * y
    return {w: c for w, c in out.items() if c}


def magnus_expansion(word, top):
    """The Magnus expansion of a free-group word ((generator, ±1), ...):
    the product of the e^{±X_i}, through degree ``top``."""
    out = {(): Rat(1)}
    for g, e in word:
        out = _poly_mul(out, {(g,) * k: rat(e ** k, math.factorial(k))
                              for k in range(top + 1)}, top)
    return out


def letter_derivation(poly, letter, top, sign=1):
    """The derivation of a letter (p, q), X_q -> sign·[X_q, X_p] and every
    other generator fixed, applied to a polynomial, through degree
    ``top``."""
    p, q = letter
    out = {}
    for w, c in poly.items():
        if len(w) < top:
            for k, x in enumerate(w):
                if x == q:
                    for rep, s in (((q, p), sign), ((p, q), -sign)):
                        key = w[:k] + rep + w[k + 1:]
                        out[key] = out.get(key, 0) + s * c
    return {w: c for w, c in out.items() if c}


def expansion_on_exponential(z, j, sign=1, first_letter_first=True):
    """Z(b) applied to e^{X_j}: each word of z acts by its letters'
    derivations, its first letter applied first (or last), through
    X-degree z.d + 1.  A word of length k raises the degree by k, so the
    words of z, at most d letters long, give every term of that degree."""
    top = z.d + 1
    base = magnus_expansion(((j, 1),), top)
    out = {}
    for comp in z.comps.values():
        for w, c in comp.terms.items():
            poly = base
            for letter in (w if first_letter_first else w[::-1]):
                poly = letter_derivation(poly, letter, top, sign)
            for key, v in poly.items():
                out[key] = out.get(key, 0) + Rat(c) / z.den * v
    return {w: c for w, c in out.items() if c}


def delete_strand_from_expansion(z, k):
    """ε_k on an expansion over strands(n): every word with a letter on
    strand k dropped, and the strands above k numbered one lower."""
    out = TruncatedExpansion(strands(z.skeleton[1] - 1), z.d, z.den)
    for m, comp in z.comps.items():
        for w, c in comp.terms.items():
            if all(k not in letter for letter in w):
                out.comps[m].add_term(tuple(tuple(p - (p > k) for p in letter)
                                            for letter in w), c)
    return out


# --------------------------------------------------------------------------
# The slide-move table
# --------------------------------------------------------------------------

# The legal slide configurations as the table ``gauss._is_slide`` replaced:
# three arrows (tail pair, tail offset, head pair, head offset, sign) on the
# slot pairs 0, 1, 2 of the move, sorted; the move flips every offset.
R3_PATTERNS = frozenset((
    ((0, 0, 1, 0, -1), (0, 1, 2, 0, -1), (1, 1, 2, 1, -1)),
    ((0, 0, 1, 0, -1), (0, 1, 2, 0, -1), (2, 1, 1, 1, 1)),
    ((0, 0, 1, 0, -1), (0, 1, 2, 1, 1), (1, 1, 2, 0, 1)),
    ((0, 0, 1, 0, -1), (0, 1, 2, 1, 1), (2, 0, 1, 1, -1)),
    ((0, 0, 1, 0, -1), (2, 0, 0, 1, 1), (2, 1, 1, 1, 1)),
    ((0, 0, 1, 0, -1), (2, 0, 1, 1, -1), (2, 1, 0, 1, -1)),
    ((0, 0, 1, 0, 1), (0, 1, 2, 0, 1), (1, 1, 2, 1, 1)),
    ((0, 0, 1, 0, 1), (0, 1, 2, 0, 1), (2, 1, 1, 1, -1)),
    ((0, 0, 1, 0, 1), (0, 1, 2, 1, -1), (1, 1, 2, 0, -1)),
    ((0, 0, 1, 0, 1), (0, 1, 2, 1, -1), (2, 0, 1, 1, 1)),
    ((0, 0, 1, 0, 1), (2, 0, 0, 1, -1), (2, 1, 1, 1, -1)),
    ((0, 0, 1, 0, 1), (2, 0, 1, 1, 1), (2, 1, 0, 1, 1)),
    ((0, 0, 1, 1, -1), (0, 1, 2, 1, -1), (1, 0, 2, 0, 1)),
    ((0, 0, 1, 1, -1), (0, 1, 2, 1, -1), (2, 0, 1, 0, -1)),
    ((0, 0, 1, 1, -1), (2, 0, 1, 0, -1), (2, 1, 0, 1, 1)),
    ((0, 0, 1, 1, 1), (0, 1, 2, 1, 1), (1, 0, 2, 0, -1)),
    ((0, 0, 1, 1, 1), (0, 1, 2, 1, 1), (2, 0, 1, 0, 1)),
    ((0, 0, 1, 1, 1), (2, 0, 1, 0, 1), (2, 1, 0, 1, -1)),
    ((0, 0, 2, 0, -1), (0, 1, 1, 0, -1), (1, 1, 2, 1, 1)),
    ((0, 0, 2, 0, -1), (0, 1, 1, 0, -1), (2, 1, 1, 1, -1)),
    ((0, 0, 2, 0, -1), (0, 1, 1, 1, 1), (1, 0, 2, 1, -1)),
    ((0, 0, 2, 0, -1), (0, 1, 1, 1, 1), (2, 1, 1, 0, 1)),
    ((0, 0, 2, 0, -1), (1, 0, 0, 1, 1), (1, 1, 2, 1, 1)),
    ((0, 0, 2, 0, -1), (1, 0, 2, 1, -1), (1, 1, 0, 1, -1)),
    ((0, 0, 2, 0, 1), (0, 1, 1, 0, 1), (1, 1, 2, 1, -1)),
    ((0, 0, 2, 0, 1), (0, 1, 1, 0, 1), (2, 1, 1, 1, 1)),
    ((0, 0, 2, 0, 1), (0, 1, 1, 1, -1), (1, 0, 2, 1, 1)),
    ((0, 0, 2, 0, 1), (0, 1, 1, 1, -1), (2, 1, 1, 0, -1)),
    ((0, 0, 2, 0, 1), (1, 0, 0, 1, -1), (1, 1, 2, 1, -1)),
    ((0, 0, 2, 0, 1), (1, 0, 2, 1, 1), (1, 1, 0, 1, 1)),
    ((0, 0, 2, 1, -1), (0, 1, 1, 1, -1), (1, 0, 2, 0, -1)),
    ((0, 0, 2, 1, -1), (0, 1, 1, 1, -1), (2, 0, 1, 0, 1)),
    ((0, 0, 2, 1, -1), (1, 0, 2, 0, -1), (1, 1, 0, 1, 1)),
    ((0, 0, 2, 1, 1), (0, 1, 1, 1, 1), (1, 0, 2, 0, 1)),
    ((0, 0, 2, 1, 1), (0, 1, 1, 1, 1), (2, 0, 1, 0, -1)),
    ((0, 0, 2, 1, 1), (1, 0, 2, 0, 1), (1, 1, 0, 1, -1)),
    ((0, 1, 1, 0, -1), (2, 0, 0, 0, 1), (2, 1, 1, 1, -1)),
    ((0, 1, 1, 0, 1), (2, 0, 0, 0, -1), (2, 1, 1, 1, 1)),
    ((0, 1, 1, 1, -1), (2, 0, 0, 0, -1), (2, 1, 1, 0, -1)),
    ((0, 1, 1, 1, -1), (2, 0, 1, 0, 1), (2, 1, 0, 0, 1)),
    ((0, 1, 1, 1, 1), (2, 0, 0, 0, 1), (2, 1, 1, 0, 1)),
    ((0, 1, 1, 1, 1), (2, 0, 1, 0, -1), (2, 1, 0, 0, -1)),
    ((0, 1, 2, 0, -1), (1, 0, 0, 0, 1), (1, 1, 2, 1, -1)),
    ((0, 1, 2, 0, 1), (1, 0, 0, 0, -1), (1, 1, 2, 1, 1)),
    ((0, 1, 2, 1, -1), (1, 0, 0, 0, -1), (1, 1, 2, 0, -1)),
    ((0, 1, 2, 1, -1), (1, 0, 2, 0, 1), (1, 1, 0, 0, 1)),
    ((0, 1, 2, 1, 1), (1, 0, 0, 0, 1), (1, 1, 2, 0, 1)),
    ((0, 1, 2, 1, 1), (1, 0, 2, 0, -1), (1, 1, 0, 0, -1)),
    ((1, 0, 0, 0, -1), (1, 1, 2, 0, -1), (2, 1, 0, 1, 1)),
    ((1, 0, 0, 0, -1), (1, 1, 2, 1, 1), (2, 0, 0, 1, -1)),
    ((1, 0, 0, 0, -1), (2, 0, 0, 1, -1), (2, 1, 1, 1, -1)),
    ((1, 0, 0, 0, -1), (2, 0, 1, 1, 1), (2, 1, 0, 1, 1)),
    ((1, 0, 0, 0, 1), (1, 1, 2, 0, 1), (2, 1, 0, 1, -1)),
    ((1, 0, 0, 0, 1), (1, 1, 2, 1, -1), (2, 0, 0, 1, 1)),
    ((1, 0, 0, 0, 1), (2, 0, 0, 1, 1), (2, 1, 1, 1, 1)),
    ((1, 0, 0, 0, 1), (2, 0, 1, 1, -1), (2, 1, 0, 1, -1)),
    ((1, 0, 0, 1, -1), (1, 1, 2, 1, -1), (2, 0, 0, 0, -1)),
    ((1, 0, 0, 1, -1), (2, 0, 0, 0, -1), (2, 1, 1, 1, 1)),
    ((1, 0, 0, 1, 1), (1, 1, 2, 1, 1), (2, 0, 0, 0, 1)),
    ((1, 0, 0, 1, 1), (2, 0, 0, 0, 1), (2, 1, 1, 1, -1)),
    ((1, 0, 2, 0, -1), (1, 1, 0, 0, -1), (2, 1, 0, 1, -1)),
    ((1, 0, 2, 0, -1), (1, 1, 0, 1, 1), (2, 1, 0, 0, 1)),
    ((1, 0, 2, 0, 1), (1, 1, 0, 0, 1), (2, 1, 0, 1, 1)),
    ((1, 0, 2, 0, 1), (1, 1, 0, 1, -1), (2, 1, 0, 0, -1)),
    ((1, 0, 2, 1, -1), (1, 1, 0, 1, -1), (2, 0, 0, 0, 1)),
    ((1, 0, 2, 1, 1), (1, 1, 0, 1, 1), (2, 0, 0, 0, -1)),
    ((1, 1, 0, 0, -1), (2, 0, 1, 0, 1), (2, 1, 0, 1, -1)),
    ((1, 1, 0, 0, 1), (2, 0, 1, 0, -1), (2, 1, 0, 1, 1)),
    ((1, 1, 0, 1, -1), (2, 0, 0, 0, 1), (2, 1, 1, 0, 1)),
    ((1, 1, 0, 1, -1), (2, 0, 1, 0, -1), (2, 1, 0, 0, -1)),
    ((1, 1, 0, 1, 1), (2, 0, 0, 0, -1), (2, 1, 1, 0, -1)),
    ((1, 1, 0, 1, 1), (2, 0, 1, 0, 1), (2, 1, 0, 0, 1)),
))
