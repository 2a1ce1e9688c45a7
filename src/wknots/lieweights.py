"""Lie-algebra weight systems into U(Ig), Ig = g* ⋊ g.

A finite-dimensional Lie algebra g with basis x_1..x_r and structure
constants c_jk^l induces the semidirect product Ig = g* ⋊ g, where g* is
abelian with dual basis φ^1..φ^r and g acts by the coadjoint action:

    [x_j, x_k] = Σ_l c_jk^l x_l,   [φ^a, φ^b] = 0,
    [x_j, φ^a] = −Σ_m c_jm^a φ^m.

An arrow diagram maps into U(Ig) (one tensor factor per strand) by summing
over a basis index per arrow: the tail contributes φ^i, the head x_i, read
off along each strand in order and multiplied left to right, then
straightened into the PBW order (all φ before all x, each block sorted).
"""

from .rational import Rat, rat
from .arrows import LONG


class LieData:
    """Structure constants of g; c maps (j, k) -> {l: rational}."""

    def __init__(self, r, c):
        self.r = int(r)
        self.c = {}
        for (j, k), row in c.items():
            row = {l: rat(v) for l, v in row.items() if v}
            if row:
                self.c[(j, k)] = row

    def bracket(self, j, k):
        """Coefficients of [x_j, x_k] on the basis, as {l: coeff}."""
        return self.c.get((j, k), {})


def lie_from_text(text):
    """Parse `dim=r` plus `c[j,k,l]=q` lines (q a rational literal)."""
    r = None
    c = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("dim="):
            r = int(ln[4:])
            continue
        if not (ln.startswith("c[") and "=" in ln):
            raise ValueError("bad line: %r" % ln)
        lhs, q = ln.split("=", 1)
        j, k, l = (int(x) for x in lhs[2:-1].split(","))
        c.setdefault((j, k), {})[l] = Rat(q)
    if r is None:
        raise ValueError("missing dim= line")
    return LieData(r, c)


def lie_validate(L):
    """Antisymmetry and the Jacobi identity, checked exactly."""
    r = L.r
    for j in range(1, r + 1):
        if L.bracket(j, j):
            return False
        for k in range(1, r + 1):
            bjk, bkj = L.bracket(j, k), L.bracket(k, j)
            for l in set(bjk) | set(bkj):
                if bjk.get(l, rat(0)) + bkj.get(l, rat(0)) != 0:
                    return False
    for j in range(1, r + 1):
        for k in range(1, r + 1):
            for l in range(1, r + 1):
                acc = {}
                for a, b, c in ((j, k, l), (k, l, j), (l, j, k)):
                    for m, u in L.bracket(a, b).items():
                        for p, v in L.bracket(m, c).items():
                            acc[p] = acc.get(p, rat(0)) + u * v
                if any(acc.values()):
                    return False
    return True


# standard fixtures
def lie_abelian(r):
    return LieData(r, {})


def lie_nonabelian2():
    """[x1, x2] = x2."""
    return LieData(2, {(1, 2): {2: 1}, (2, 1): {2: -1}})


def lie_sl2():
    """Basis (h, e, f) = (x1, x2, x3): [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    return LieData(3, {(1, 2): {2: 2}, (2, 1): {2: -2},
                       (1, 3): {3: -2}, (3, 1): {3: 2},
                       (2, 3): {1: 1}, (3, 2): {1: -1}})


# --------------------------------------------------------------------------
# PBW elements
# --------------------------------------------------------------------------
# generators: ("p", a) for φ^a, ("x", j) for x_j; PBW order sorts all φ
# before all x, each block by index.  A monomial is a tuple of generators;
# a PBWElement maps monomials (or tuples of per-strand monomials) to
# rationals.

class PBWElement:
    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for m, c in terms.items():
                self.add(m, c)

    def add(self, mono, coeff):
        c = self.terms.get(mono, rat(0)) + coeff
        if c:
            self.terms[mono] = c
        else:
            self.terms.pop(mono, None)

    def __eq__(self, other):
        return isinstance(other, PBWElement) and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        return "PBWElement(%r)" % (self.terms,)


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


def pbw_normalize(terms, L):
    """Straighten a {monomial: coeff} dict into PBW order."""
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


def pbw_mul(u, v, L):
    """Product of two single-factor PBW elements."""
    raw = {}
    for m1, c1 in u.terms.items():
        for m2, c2 in v.terms.items():
            raw[m1 + m2] = raw.get(m1 + m2, rat(0)) + c1 * c2
    return pbw_normalize(raw, L)


# --------------------------------------------------------------------------
# The weight system
# --------------------------------------------------------------------------

def _diagram_strand_words(skeleton, diagram):
    """Per-strand generator sequences of one diagram (indices symbolic:
    returns list of (strand sequences) where each entry is ("p"|"x",
    arrow number))."""
    if skeleton == LONG:
        n_strands = 1
        seqs = [[]]
        events = []
        for a, (t, h) in enumerate(diagram):
            events.append((t, ("p", a)))
            events.append((h, ("x", a)))
        for _, g in sorted(events):
            seqs[0].append(g)
        return seqs
    n = skeleton[1]
    seqs = [[] for _ in range(n)]
    for a, (p, q) in enumerate(diagram):
        seqs[p - 1].append(("p", a))
        seqs[q - 1].append(("x", a))
    return seqs


def weight_system(dvec, L):
    """Image of an ArrowVector in U(Ig)^(⊗ strands), PBW-normalized.

    Monomial keys are tuples of per-strand PBW monomials (a single strand
    for the long skeleton still uses a 1-tuple wrapper for uniformity
    only when the skeleton has several strands; the long strand returns
    plain monomials).
    """
    if not lie_validate(L):
        raise ValueError("invalid Lie structure constants")
    total = PBWElement()
    r = L.r
    for diagram, coeff in dvec.terms.items():
        seqs = _diagram_strand_words(dvec.skeleton, diagram)
        m = len(diagram)
        # sum over one basis index per arrow
        idx = [1] * m
        while True:
            raws = []
            for seq in seqs:
                raws.append(tuple((kind, idx[a]) for kind, a in seq))
            if dvec.skeleton == LONG:
                norm = pbw_normalize({raws[0]: coeff}, L)
                for mono, c in norm.terms.items():
                    total.add(mono, c)
            else:
                parts = [pbw_normalize({w: rat(1)}, L) for w in raws]
                combos = [((), coeff)]
                for part in parts:
                    combos = [(acc + (mono,), c * pc)
                              for acc, c in combos
                              for mono, pc in part.terms.items()]
                for key, c in combos:
                    total.add(key, c)
            # advance the index vector
            pos = m - 1
            while pos >= 0 and idx[pos] == r:
                idx[pos] = 1
                pos -= 1
            if pos < 0:
                break
            idx[pos] += 1
    return total
