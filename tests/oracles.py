"""Reference implementations that the fast paths in ``src/`` are tested
against.  They are exponential and only fit small inputs."""

import math
from itertools import combinations_with_replacement, permutations

from wknots.alexander import alexander_det, build_S, build_T
from wknots.arrows import (LONG, ArrowVector, canonical_long, canonical_word,
                           enumerate_diagrams, strands)
from wknots.expansion import TruncatedExpansion, expansion_exp, wheels_reduce
from wknots.gauss import self_linking
from wknots.jacobi import monomial_to_arrows
from wknots.rational import rat
from wknots.rings import (LaurentPoly, TruncSeries, laurent_at_exp,
                          laurent_normalize, series_log)


def is_zero(v):
    f = getattr(v, "is_zero", None)
    return f() if f else not v


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
