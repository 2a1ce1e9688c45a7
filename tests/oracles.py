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
                           QuotientSpace, _class_products, _class_ranks,
                           _class_roles, _cuts, _place, _relators,
                           canonical_long, enumerate_diagrams, strands)
from wknots.expansion import TruncatedExpansion, wheels_reduce
from wknots.freegroup import aut_compose
from wknots.gauss import (GaussDiagram, _pd_crossing_sign, apply_move,
                          self_linking)
from wknots.jacobi import (TrivalentDiagram, _commutator_block, concat,
                           monomial_to_arrows, stu_eliminate)
from wknots.lieweights import lie_validate
from wknots.linalg import RatMatrix, SparseEchelon, integral
from wknots.rational import ZERO, Rat
from wknots.rings import (LaurentPoly, TruncSeries, laurent_at_exp,
                          laurent_normalize, series_log)
from wknots.wbraid import FLIP, braid_action, letter_action


def is_zero(v):
    f = getattr(v, "is_zero", None)
    return f() if f else not v


def add_terms(acc, pairs, scale=1):
    """Add scale times each (diagram, coefficient) of ``pairs`` into the
    dict ``acc``, and return it: ``ArrowVector`` is a value and does not
    add, so a sum is made in a dict and wrapped once."""
    for d, c in pairs:
        acc[d] = acc.get(d, 0) + c * scale
    return acc


def unit_expansion(skeleton, d):
    """The expansion 1: the empty diagram, over denominator 1."""
    return TruncatedExpansion(skeleton, [{(): 1}] + [{} for _ in range(d)], 1)


def juxtapose(a, b):
    """Product of two expansions on one skeleton by juxtaposition (long
    strand, ``jacobi.concat``) or concatenation (words): the numerators
    multiply, over the product of the denominators."""
    if (a.skeleton, a.d) != (b.skeleton, b.d):
        raise ValueError("mismatched expansions")
    nums = [{} for _ in range(a.d + 1)]
    for i in range(a.d + 1):
        for j in range(a.d + 1 - i):
            u, v = a.comps[i], b.comps[j]
            if a.skeleton == LONG:
                add_terms(nums[i + j], concat(u, v).terms.items())
            else:
                add_terms(nums[i + j], ((wu + wv, cu * cv)
                                        for wu, cu in u.terms.items()
                                        for wv, cv in v.terms.items()))
    return TruncatedExpansion(a.skeleton, nums, a.den * b.den)


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


def bareiss(a):
    """``linalg._bareiss`` as it ran before the sparse kernel: the
    determinant of the square int matrix `a` (a list of row lists,
    consumed) by dense fraction-free Bareiss elimination with row pivoting.

    Step k replaces each a[i][j] (i, j > k) by
    (a[k][k]·a[i][j] − a[i][k]·a[k][j]) // prev, prev being the previous
    pivot.  The division is exact: the new entry is the minor on rows
    0..k, i and columns 0..k, j.
    """
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        # the nonzero pivot of fewest bits
        p = min((i for i in range(k, n) if a[i][k]), default=None,
                key=lambda i: a[i][k].bit_length())
        if p is None:
            return 0
        if p != k:
            a[k], a[p], sign = a[p], a[k], -sign
        piv, tail = a[k][k], a[k][k + 1:]
        for i in range(k + 1, n):
            ai, f = a[i], a[i][k]
            ai[k + 1:] = [(piv * x - f * y) // prev
                          for x, y in zip(ai[k + 1:], tail)]
        prev = piv
    return sign * prev


def dense_det(rows):
    """``linalg.RatMatrix.det`` as it ran before the sparse kernel, on a
    dense square matrix of ``LaurentPoly`` entries: each row shifted by
    its least exponent and evaluated at X = 2^B, B from Hadamard's bound
    on the rows as given, then dense ``bareiss``, and the polynomial read
    off the balanced base-2^B digits."""
    rows = [[p.coeffs for p in r] for r in rows]
    square = math.prod(sum(sum(map(abs, cs.values())) ** 2 for cs in r)
                       for r in rows)
    B = (square.bit_length() + 3) // 2
    low = [min((e for cs in r for e in cs), default=0) for r in rows]
    v = bareiss([[sum(c << B * (e - s) for e, c in cs.items()) for cs in r]
                 for r, s in zip(rows, low)])
    half, coeffs, e = 1 << (B - 1), {}, sum(low)
    while v:
        coeffs[e] = d = ((v + half) & ((1 << B) - 1)) - half
        v, e = (v - d) >> B, e + 1
    return LaurentPoly(coeffs)


def difference_columns(rows):
    """A dense square matrix with each column j > 0 less column j − 1, by
    ring arithmetic, as sparse rows: dicts column -> nonzero entry."""
    return [{j: p for j, p in enumerate(
                [r[0]] + [r[j] - r[j - 1] for j in range(1, len(r))])
             if not is_zero(p)} for r in rows]


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


def concat_through_canonical_long(u, v):
    """``jacobi.concat`` passing every juxtaposed term through
    ``canonical_long``."""
    out = {}
    for du, cu in u.terms.items():
        for dv, cv in v.terms.items():
            shifted = [(t + 2 * u.m, h + 2 * u.m) for t, h in dv]
            key = canonical_long(list(du) + shifted)
            out[key] = out.get(key, 0) + cu * cv
    return ArrowVector(LONG, u.m + v.m, out)


def wirtinger_by_union_find(pd):
    """``alexander._wirtinger`` by union-find: the over-strand joins its
    incoming and outgoing edges into one arc, and the arcs are numbered in
    the order their first edge appears along the knot."""
    m = 2 * len(pd.crossings)
    parent = list(range(m + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    signed = []
    for a, b, c, d in pd.crossings:
        s = _pd_crossing_sign(a, b, c, d, m)
        over_in, over_out = (d, b) if s > 0 else (b, d)
        parent[find(over_in)] = find(over_out)
        signed.append((a, c, over_in, s))
    arc_of = {}
    for e in range(1, m + 1):
        arc_of.setdefault(find(e), len(arc_of))
    arcs = {e: arc_of[find(e)] for e in range(1, m + 1)}
    relations = []
    for a, c, over, s in signed:
        o, u, v = arcs[over], arcs[a], arcs[c]
        relations.append([(o, s), (u, 1), (o, -s), (v, -1)])
    return len(arc_of), relations


def gauss_faces(g):
    """The faces of the closed curve of the Gauss diagram g, read off its
    arrows with no PD code: walk each side of each edge with the face on
    the left, turning left at every crossing.  Edge e runs from slot e − 1
    to slot e (edge 1 from slot 2k).  At arrow (t, h, s) the ends, in
    counterclockwise order, are h in, t out, h out, t in when s > 0, and
    h in, t in, h out, t out when s < 0 (seen along the under-strand, the
    over-strand crosses from left to right when s > 0)."""
    m = 2 * g.k
    ccw = {}  # crossing -> its four ends (slot, "in" or "out"), ccw
    for t, h, s in g.arrows:
        ends = ([(h, "in"), (t, "out"), (h, "out"), (t, "in")] if s > 0
                else [(h, "in"), (t, "in"), (h, "out"), (t, "out")])
        for slot in (t, h):
            ccw[slot] = ends
    seen, faces = set(), 0
    for start in product(range(1, m + 1), (True, False)):
        if start in seen:
            continue
        faces += 1
        edge, forward = start
        while (edge, forward) not in seen:
            seen.add((edge, forward))
            # arrive at the slot the edge ends at, or starts at when walked
            # backward, and leave by the end just clockwise of the arrival
            end = (edge, "in") if forward else ((edge - 2) % m + 1, "out")
            ends = ccw[end[0]]
            slot, kind = ends[(ends.index(end) - 1) % 4]
            edge, forward = (slot, False) if kind == "in" else (slot % m + 1,
                                                                True)
    return faces


def series_mul(a, b):
    """The product of two power series given as coefficient lists of one
    length, truncated to that length."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def series_log_products(c):
    """``rings.series_log`` on the coefficient list c as the Mercator sum
    Σ (−1)^{k+1} (c−1)^k / k, one truncated product a term."""
    if c[0] != 1:
        raise ValueError("series_log requires constant term 1")
    u = [0] + list(c[1:])
    out, term = [ZERO] * len(c), [1] + [0] * (len(c) - 1)
    for k in range(1, len(c)):
        term = series_mul(term, u)
        out = [o + t * Rat((-1) ** (k + 1), k) for o, t in zip(out, term)]
    return out


def laplace_alexander_matrix(k, d):
    """The Alexander pair (series, polynomial) computed as two separate
    Laplace determinants over ℤ[X^±1]: one of the matrix, and one with
    its entries X^s − 1 replaced by e^{s·x} − 1 through x^d, X standing in
    for x.  Each entry of the second is scaled by d! to keep it integral,
    so its determinant, truncated at x^d, is divided by (d!)^n."""
    S, T = build_S(k), build_T(k)
    n, f = len(S), math.factorial(d)
    rows = []
    for i in range(n):
        e = LaurentPoly({m: f // math.factorial(m) * S[i][i] ** m
                         for m in range(1, d + 1)})
        rows.append([(LaurentPoly.const(f) if i == j else 0) - e * T[i][j]
                     for j in range(n)])
    det = laplace_det(rows, LaurentPoly.const(1)).coeffs
    return (TruncSeries(d, {m: Rat(det.get(m, 0), f ** n)
                            for m in range(d + 1)}),
            laurent_normalize(laplace_det(alexander_rows(k),
                                          LaurentPoly.const(1))))


def expansion_exp(e):
    """exp of an expansion with zero degree-0 part, over denominator 1, by
    repeated juxtaposition with one ``Rat`` per term: the reference for
    the normalization that ``zed_knot`` folds into its int numerators."""
    if e.comps[0].terms:
        raise ValueError("exponential needs a zero constant term")
    out = [{(): 1}] + [{} for _ in range(e.d)]
    term = unit_expansion(e.skeleton, e.d)
    for k in range(1, e.d + 1):
        term = juxtapose(term, e)
        scale = Rat(1, math.factorial(k) * term.den)
        for m in range(e.d + 1):
            add_terms(out[m], term.comps[m].terms.items(), scale)
    return TruncatedExpansion(e.skeleton, out, 1)


def arrow_side_prediction(g, d, flags=frozenset({"RI"})):
    """The Alexander prediction computed among arrow diagrams: build
    sl·a − c_1·(1-wheel) + Σ_{k≥2} c_k·(k-wheel) as an expansion,
    exponentiate it by repeated juxtaposition and read the result in wheel
    coordinates."""
    phi = series_log(laurent_at_exp(alexander_det(g).mirror(), d))
    nums = [{} for _ in range(d + 1)]
    if d >= 1:
        nums[1][((1, 2),)] = Rat(self_linking(g))
        add_terms(nums[1], monomial_to_arrows((("w", 1),)).terms.items(),
                  -phi[1])
    for k in range(2, d + 1):
        add_terms(nums[k], monomial_to_arrows((("w", k),)).terms.items(),
                  phi[k])
    return wheels_reduce(expansion_exp(TruncatedExpansion(LONG, nums, 1)),
                         flags)


def zed_braid_fractions(b, d):
    """``zed_braid`` with one rational per term and crossing: each letter
    multiplies every term by exp(ε·a) in place.  Flip letters are refused,
    as by ``zed_braid``."""
    if any(kind == FLIP for kind, _, _ in b.letters):
        raise ValueError("flip letters have no arrow-valued expansion")
    n = b.n
    skel = strands(n)
    pos = list(range(1, n + 1))
    z = unit_expansion(skel, d)
    for kind, i, sgn in b.letters:
        lo, hi = pos[i - 1], pos[i]
        if kind == "s":
            over, under = (lo, hi) if sgn > 0 else (hi, lo)
            letter = (over, under)
            nums = [{} for _ in range(d + 1)]
            for m in range(d + 1):
                for k in range(0, m + 1):
                    tail = (letter,) * k
                    add_terms(nums[m], ((w + tail, c) for w, c
                                        in z.comps[m - k].terms.items()),
                              Rat(sgn ** k, math.factorial(k)))
            z = TruncatedExpansion(skel, nums, 1)
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
    nums = [Counter() for _ in range(z.d + 1)]
    for m, acc in enumerate(nums):
        for w, c in z.comps[m].terms.items():
            ends = sorted((leg[s], j, e) for j, letter in enumerate(w)
                          for e, s in enumerate(letter))
            slot = {(j, e): x for x, (_, j, e) in enumerate(ends, 1)}
            acc[tuple(sorted((slot[j, 0], slot[j, 1])
                             for j in range(m)))] += c
    return TruncatedExpansion(LONG, nums, z.den)


def zed_knot_recursive(g, d, normalize=False):
    """``zed_knot`` by recursion over the multiplicities (k_1..k_n) of all
    arrows, with one rational per node and ``canonical_long`` per leaf."""
    arrows = list(g.canonical())
    nums = [{} for _ in range(d + 1)]
    B = d + 2  # sub-slot scale for parallel copies

    def rec(idx, used, placed, coeff):
        if idx == len(arrows):
            key = canonical_long(placed)
            nums[used][key] = nums[used].get(key, 0) + coeff
            return
        t, h, s = arrows[idx]
        k = 0
        while used + k <= d:
            copies = [(t * B + j, h * B + j) for j in range(k)]
            rec(idx + 1, used + k, placed + copies,
                coeff * Rat(s ** k, math.factorial(k)))
            k += 1

    rec(0, 0, [], Rat(1))
    z = TruncatedExpansion(LONG, nums, 1)
    if normalize:
        e = [{} for _ in range(d + 1)]
        if d >= 1:
            e[1][((1, 2),)] = Rat(-self_linking(g))
        z = juxtapose(z, expansion_exp(TruncatedExpansion(LONG, e, 1)))
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
        v = ArrowVector(LONG, m, add_terms({}, pairs, Rat(1)))
        if v.terms:
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


def per_product_two_arrow_relators(skeleton, m, relset, roles=None):
    """The TC/4T/6T relators of ``arrows._relators``, in the same order,
    each distinct product placed on its own by ``per_product_place_long``
    or by inserting its letters into a strand word; with ``roles``, only
    those at the role permutations p it lists (role r at point p[r])."""
    points = range(3) if skeleton == LONG else range(1, skeleton[1] + 1)
    instances = [[(tuple((p[t], p[h]) for t, h in arrows), sign)
                  for arrows, sign in terms]
                 for p in (permutations(points, 3) if roles is None
                           else roles)
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


def class_two_arrow_rows_by_cuts(m, relset, column):
    """``arrows._class_two_arrow_rows`` with the ``_cuts`` cuts alone: a
    placement is kept when a site is at every cut gap, and every instance
    of a kept placement yields its row, also where a lone-tail site could
    slide one gap left past a context tail."""
    names = frozenset(relset & {"4T", "6T"})
    if m < 2 or not names:
        return
    roles = _class_roles(relset)
    plans, _, _, _, instances, same = _class_products(names, roles)

    def one_diagram(k, l):
        one = same[(gaps[0] == gaps[1]) + 2 * (gaps[1] == gaps[2])][k][l]
        if one is None:
            return list(_place(ctx, gaps, [plans[k]])) == list(
                _place(ctx, gaps, [plans[l]]))
        return one

    for ctx, ranks in _class_ranks(m, names, roles):
        cuts = _cuts(ctx, relset)
        if len(cuts) > 3:
            continue
        for free in combinations_with_replacement(range(2 * len(ctx) + 1),
                                                  3 - len(cuts)):
            gaps = tuple(sorted(cuts + list(free)))
            col = [column[r] for r in ranks(gaps)]
            for get, ks, signs, _ in instances:
                cols = get(col)
                if len(set(cols)) == len(cols):
                    yield list(zip(cols, signs))
                    continue
                row = []
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

    separated = stu_eliminate(placed((0, 1, 2))).terms.items()
    bases = []
    for a_pos in combinations(range(6), 3):
        v = ArrowVector(LONG, 4, add_terms(
            dict(stu_eliminate(placed(a_pos)).terms), separated, -1))
        if v.terms:
            bases.append(v)

    out = []
    for ctx in enumerate_diagrams(LONG, m - 4):
        for g in range(0, 2 * (m - 4) + 1):
            for base in bases:
                v = ArrowVector(LONG, m, add_terms({}, (
                    (per_product_place_long(ctx, (g,) * 8,
                                            [(t - 1, h - 1) for t, h in d]), c)
                    for d, c in base.terms.items())))
                if v.terms:
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
            v = L.bracket(j, m).get(a, Rat(0))
            if v:
                out[(("p", m),)] = out.get((("p", m),), Rat(0)) - v
    elif g1[0] == "p" and g2[0] == "x":
        j, a = g2[1], g1[1]
        for m in range(1, L.r + 1):
            v = L.bracket(j, m).get(a, Rat(0))
            if v:
                out[(("p", m),)] = out.get((("p", m),), Rat(0)) + v
    return {m: c for m, c in out.items() if c}


def stack_pbw_normalize(terms, L):
    """Straighten a {word: coeff} dict into PBW order by swapping the first
    out-of-order adjacent pair of each word until none is left.  The
    coefficients are summed from ``ZERO``, so they come out ``Rat``."""
    out = {}
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
            out[mono] = out.get(mono, ZERO) + coeff
    return {mono: c for mono, c in out.items() if c}


def stack_pbw_mul(u, v, L):
    """Product of two single-factor PBW elements: concatenate, straighten."""
    raw = {}
    for m1, c1 in u.items():
        for m2, c2 in v.items():
            raw[m1 + m2] = raw.get(m1 + m2, Rat(0)) + c1 * c2
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
    total = {}
    for diagram, coeff in dvec.terms.items():
        seqs = _diagram_strand_words(dvec.skeleton, diagram)
        for idx in product(range(1, L.r + 1), repeat=len(diagram)):
            raws = [tuple((kind, idx[a]) for kind, a in seq) for seq in seqs]
            if dvec.skeleton == LONG:
                norm = stack_pbw_normalize({raws[0]: coeff}, L)
                for mono, c in norm.items():
                    total[mono] = total.get(mono, ZERO) + c
                continue
            parts = [stack_pbw_normalize({w: Rat(1)}, L) for w in raws]
            combos = [((), coeff)]
            for part in parts:
                combos = [(acc + (mono,), c * pc)
                          for acc, c in combos
                          for mono, pc in part.items()]
            for key, c in combos:
                total[key] = total.get(key, ZERO) + c
    return {key: c for key, c in total.items() if c}


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
    aut = tuple(((j, 1),) for j in range(1, b.n + 1))
    for letter in b.letters:
        aut = aut_compose(aut, letter_action(b.n, letter))
    return aut


def braid_action_alexander(b):
    """The Alexander determinant of ``b``'s closure read off its action on
    F_n: the Fox Jacobian of ``braid_action(b)`` abelianized (x_i -> X),
    minus I, with the row of position 1 and column 1 deleted.  It equals
    ``alexander_det(braid_closure(b))`` up to a unit +-X^k."""
    act = braid_action(b)
    return RatMatrix([
        {j - 2: fox_derivative(act[i - 1], j) - (1 if i == j else 0)
         for j in range(2, b.n + 1)}
        for i in range(2, b.n + 1)]).det(LaurentPoly.const(1))


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
        out = _poly_mul(out, {(g,) * k: Rat(e ** k, math.factorial(k))
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
    nums = [add_terms({}, ((tuple(tuple(p - (p > k) for p in letter)
                                  for letter in w), c)
                           for w, c in comp.terms.items()
                           if all(k not in letter for letter in w)))
            for comp in z.comps.values()]
    return TruncatedExpansion(strands(z.skeleton[1] - 1), nums, z.den)


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
