"""Lie-algebra weight systems into U(Ig), Ig = g* ⋊ g.

A finite-dimensional Lie algebra g with basis x_1..x_r and structure
constants c_jk^l induces the semidirect product Ig = g* ⋊ g, where g* is
abelian with dual basis φ^1..φ^r and g acts by the coadjoint action:

    [x_j, x_k] = Σ_l c_jk^l x_l,   [φ^a, φ^b] = 0,
    [x_j, φ^a] = −Σ_m c_jm^a φ^m.

An arrow diagram maps into U(Ig) (one tensor factor per strand) by summing
over a basis index per arrow: the tail contributes φ^i, the head x_i, read
off along each strand in order and multiplied left to right in the PBW
basis (all φ before all x, each block sorted).

A generator is ("p", a) for φ^a or ("x", j) for x_j, so PBW order is
tuple order; a monomial is a tuple of generators.  A PBW element is a
plain dict from a monomial (on strands(n), a tuple of per-strand
monomials) to a nonzero coefficient.  ``LieData`` keeps int structure
constants as ints, so an integral algebra straightens in ints: a
coefficient stays an int until a division, and ``weight_system`` divides
only its final sums.
"""

import functools

from .rational import Rat
from .arrows import LONG
from .linalg import integral


class LieData:
    """Structure constants of g; c maps (j, k) -> {l: int or Rat}: an int
    constant stays an int, and any other is made a ``Rat``."""

    def __init__(self, r, c):
        self.r = int(r)
        if self.r < 0:
            raise ValueError("dimension %d is negative" % self.r)
        self.c = {}
        for (j, k), row in c.items():
            bad = [i for i in (j, k, *row) if not 1 <= i <= self.r]
            if bad:
                raise ValueError("index %s outside 1..%d" % (bad[0], self.r))
            row = {l: v if isinstance(v, int) else Rat(v)
                   for l, v in row.items() if v}
            if row:
                self.c[(j, k)] = row

    def bracket(self, j, k):
        """Coefficients of [x_j, x_k] on the basis, as {l: coeff}."""
        return self.c.get((j, k), {})

    @functools.cached_property
    def _times(self):
        """``times(mono, g)``: a PBW-normal monomial times one generator,
        straightened, as ((monomial, coeff), ...).  Built once per
        algebra, after checking its constants, and memoized."""
        if not lie_validate(self):
            raise ValueError("invalid Lie structure constants")
        # [g1, g2] for g1 after g2: [x_j, x_k] = Σ c_jk^l x_l and
        # [x_j, φ^a] = −Σ_m c_jm^a φ^m; duals commute
        bracket = {}
        for j in range(1, self.r + 1):
            for k in range(1, j):
                bracket[("x", j), ("x", k)] = [(("x", l), v) for l, v
                                               in self.bracket(j, k).items()]
            for a in range(1, self.r + 1):
                bracket[("x", j), ("p", a)] = [
                    (("p", m), -self.bracket(j, m)[a])
                    for m in range(1, self.r + 1) if a in self.bracket(j, m)]

        @functools.cache
        def times(mono, g):
            if not mono or mono[-1] <= g:
                return ((mono + (g,), 1),)
            # h·last·g = (h·g)·last + h·[last, g]
            h, last = mono[:-1], mono[-1]
            out = {}
            for n, c in times(h, g):
                for n2, c2 in times(n, last):
                    out[n2] = out.get(n2, 0) + c * c2
            for b, cb in bracket.get((last, g), ()):
                for n, c in times(h, b):
                    out[n] = out.get(n, 0) + cb * c
            return tuple((n, c) for n, c in out.items() if c)

        return times

    @functools.cached_property
    def _weights(self):
        """``weight(skeleton, diagram)``: one diagram's image in U(Ig), as
        ((key, coeff), ...), coefficients ints when the algebra is integral.

        Endpoints are read in slot order on the long strand, and letter by
        letter (tail strand first) on strands(n); each is multiplied onto
        its strand's monomial.  An arrow's basis index is summed at its
        first endpoint and carried to its second.  Keys are plain monomials
        on the long strand and tuples of per-strand monomials on
        strands(n).  Relators share their diagrams, so the walk is memoized
        once per algebra, keyed by the skeleton too (the same tuple can be
        a long and a strand diagram); entries grow with the degree, so the
        memo is bounded."""
        times, r = self._times, self.r

        @functools.lru_cache(maxsize=4096)
        def weight(skeleton, diagram):
            long = skeleton == LONG
            n = 1 if long else skeleton[1]
            ends = [(s, kind, a) for a, arrow in enumerate(diagram)
                    for s, kind in zip(arrow, "px")]
            if long:  # one strand, read in slot order
                ends = [(1, kind, a) for _, kind, a in sorted(ends)]
            # state: (open index per arrow or 0; monomial per strand)
            states = {((0,) * len(diagram), ((),) * n): 1}
            for s, kind, a in ends:
                s -= 1
                nxt = {}
                for (idx, monos), c in states.items():
                    if idx[a]:
                        choices = ((idx[a], idx[:a] + (0,) + idx[a + 1:]),)
                    else:
                        choices = [(i, idx[:a] + (i,) + idx[a + 1:])
                                   for i in range(1, r + 1)]
                    for i, idx2 in choices:
                        for mono, cm in times(monos[s], (kind, i)):
                            key = (idx2, monos[:s] + (mono,) + monos[s + 1:])
                            cm *= c
                            nxt[key] = nxt[key] + cm if key in nxt else cm
                states = {k: c for k, c in nxt.items() if c}
            return tuple((monos[0] if long else monos, c)
                         for (_, monos), c in states.items())

        return weight


def lie_validate(L):
    """Antisymmetry and the Jacobi identity, checked exactly."""
    r = L.r
    for j in range(1, r + 1):
        if L.bracket(j, j):
            return False
        for k in range(1, r + 1):
            bjk, bkj = L.bracket(j, k), L.bracket(k, j)
            for l in set(bjk) | set(bkj):
                if bjk.get(l, 0) + bkj.get(l, 0) != 0:
                    return False
    for j in range(1, r + 1):
        for k in range(1, r + 1):
            for l in range(1, r + 1):
                acc = {}
                for a, b, c in ((j, k, l), (k, l, j), (l, j, k)):
                    for m, u in L.bracket(a, b).items():
                        for p, v in L.bracket(m, c).items():
                            acc[p] = acc.get(p, 0) + u * v
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
# Products and the weight system
# --------------------------------------------------------------------------

def pbw_mul(u, v, L):
    """Product u·v of single-factor elements, u PBW-normal: u times each
    word of v, one generator at a time, dropping the monomials that cancel
    after each step.  ``pbw_mul({(): 1}, v, L)`` straightens v."""
    times = L._times
    out = {}
    for word, cv in v.items():
        acc = u
        for g in word:
            nxt = {}
            for mono, c in acc.items():
                for n, cn in times(mono, g):
                    nxt[n] = nxt.get(n, 0) + c * cn
            acc = {mono: c for mono, c in nxt.items() if c}
        for mono, c in acc.items():
            out[mono] = out.get(mono, 0) + c * cv
    return {mono: c for mono, c in out.items() if c}


def weight_system(dvec, L):
    """Image of an ArrowVector in U(Ig)^(⊗ strands), PBW-normalized.

    Each diagram's image is read from the algebra's memo (``_weights``).
    The coefficients are scaled to ints over one denominator, summed per
    key, and divided once at the end.
    """
    weight = L._weights
    terms, den = integral(dvec.terms)
    sums = {}
    for diagram, coeff in terms.items():
        for key, c in weight(dvec.skeleton, diagram):
            sums[key] = sums.get(key, 0) + coeff * c
    return {key: Rat(s, den) for key, s in sums.items() if s}
