"""The four benchmark workloads: seeded inputs, one timed operation per
input, and the correctness checks on their outputs.

Each workload has:

* ``prepare()`` -- builds ``self.items`` from the seed (no timing inside);
* ``warm()`` -- cache warm-up that users pay once per process;
* ``op(item, pass_index)`` -- one timed operation, returning
  ``(output, status)`` where status is ``"ok"`` or ``"failed"`` (the one
  known fault, see ``Invariants``); an unexpected result raises
  ``Mismatch``;
* ``digest(output)`` -- a value that must repeat in every pass, or None;
* ``verify(outputs)`` -- checks on the outputs of the first pass, returning
  a list of problems.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

# modules, not function names: the traced run replaces their functions
from wknots import alexander, arrows, expansion, gauss, jacobi, wbraid
from wknots.arrows import LONG, strands
from wknots.checks import ALL_CHECKS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# fixed corpora are drawn from this seed, whatever --seed says
CORPUS_SEED = 1405


class Mismatch(Exception):
    """An output that contradicts an independent computation."""


def random_closure(rng, crossings, virtual_rate, strand_counts=(3, 4, 5)):
    """A braid word with the given number of real crossings whose closure is
    a knot, and that closure."""
    while True:
        n = rng.choice(strand_counts)
        letters, real = [], 0
        while real < crossings:
            i = rng.randrange(1, n)
            if rng.random() < virtual_rate:
                letters.append(("v", i, 1))
            else:
                letters.append(("s", i, rng.choice((1, -1))))
                real += 1
        b = wbraid.BraidWord(n, tuple(letters))
        try:
            return b, gauss.braid_closure(b)
        except ValueError:
            continue


def resign(rng, b):
    """Give each real crossing of b a seeded sign without moving it.

    s_i and v_i S_i v_i put the same strand over the same strand at the same
    place, with opposite signs, so the closure's arrows keep their slots and
    only their signs change.
    """
    letters = []
    for kind, i, sgn in b.letters:
        if kind == "s" and rng.random() < 0.5:
            letters += [("v", i, 1), ("s", i, -sgn), ("v", i, 1)]
        else:
            letters.append((kind, i, sgn))
    return wbraid.BraidWord(b.n, tuple(letters))


def series_of_laurent(poly, shift, cap):
    """Coefficients of X^shift * poly(X) at X = e^x, through x^cap."""
    out = [Fraction(0)] * (cap + 1)
    for e, c in poly.coeffs.items():
        p = Fraction(1)
        for k in range(cap + 1):
            out[k] += Fraction(c) * p
            p = p * (e + shift) / (k + 1)
    return out


def series_matches_polynomial(series, poly, cap, span):
    """True when series == ±X^k * poly at X = e^x for some |k| <= span."""
    got = [Fraction(series[k]) for k in range(cap + 1)]
    for shift in range(-span, span + 1):
        want = series_of_laurent(poly, shift, cap)
        if got == want or got == [-c for c in want]:
            return True
    return False


# --------------------------------------------------------------------------
# quotients: cold builds of arrow-diagram quotients
# --------------------------------------------------------------------------

class Quotients:
    name = "quotients"
    min_passes = 7
    FAMILIES = ((LONG, ("TC", "4T")),
                (strands(3), ("TC", "4T")),
                (strands(3), ("TC", "6T")))
    DEGREES = tuple(range(5))
    RELATOR_SAMPLE = 20

    def __init__(self, seed):
        self.seed = seed

    def prepare(self):
        self.items = [(skel, m, rels) for skel, rels in self.FAMILIES
                      for m in self.DEGREES]
        self.long_dims = {m: len(jacobi.wheel_monomial_basis(m))
                          for m in self.DEGREES}

    def warm(self):
        pass

    def op(self, item, pass_index):
        skel, m, rels = item
        return arrows.quotient(skel, m, set(rels)), "ok"

    def digest(self, q):
        return q.dim, tuple(q.basis)

    def verify(self, outputs):
        problems = []
        spaces = dict(zip(self.items, outputs))
        rng = random.Random(self.seed)
        for m in self.DEGREES:
            q = spaces[(LONG, m, ("TC", "4T"))]
            if q.dim != self.long_dims[m]:
                problems.append("long m=%d: dim %d, wheel monomials %d"
                                % (m, q.dim, self.long_dims[m]))
            a = spaces[(strands(3), m, ("TC", "4T"))].dim
            b = spaces[(strands(3), m, ("TC", "6T"))].dim
            if a != b:
                problems.append("strands(3) m=%d: 4T %d vs 6T %d" % (m, a, b))
        for (skel, m, rels), q in spaces.items():
            rels_m = arrows.generate_relations(skel, m, set(rels))
            sample = rng.sample(rels_m, min(self.RELATOR_SAMPLE, len(rels_m)))
            if any(any(q.project(v)) for v in sample):
                problems.append("%r m=%d %s: a relator projects to nonzero"
                                % (skel, m, "+".join(rels)))
            for i, d in enumerate(q.basis):
                unit = [int(j == i) for j in range(q.dim)]
                if q.project_diagram(d) != unit:
                    problems.append("%r m=%d %s: basis diagram %d does not "
                                    "project to its unit vector"
                                    % (skel, m, "+".join(rels), i))
                    break
        return problems


# --------------------------------------------------------------------------
# invariants: Z in wheel coordinates against the Alexander prediction
# --------------------------------------------------------------------------

# w-braids whose closures have a non-palindromic Alexander polynomial; the
# bridge check fails on them (odd wheel-degree coordinates change sign)
W_BRAIDS = (
    "n=4\nS3 v2 S2 s1 s2",
    "n=3\nv2 v1 S1 s2 s1 s1 S1 v1 S1 s2",
    "n=4\ns3 v3 v2 v2 s1 v2 S3 s1 v2 v3 s2 v1 s2 s2 S1",
    "n=3\ns1 S2 S2 v1 v2 s1 S1 S1 s2 v2 S1 S1",
)


def wheel_degree(mono):
    return sum(g[1] for g in mono if g != "a")


def odd_wheels_flipped(coords):
    return [{mono: c * (-1) ** wheel_degree(mono) for mono, c in comp.items()}
            for comp in coords]


class Invariants:
    name = "invariants"
    min_passes = 4
    DEGREE = 5
    RELS = frozenset({"TC", "4T", "RI"})
    SEEDED_CROSSINGS = (5, 6, 7, 7, 8, 9, 10)

    def __init__(self, seed):
        self.seed = seed

    def prepare(self):
        rng = random.Random(self.seed)
        knots = [(name, gauss.pd_to_gauss(pd), False)
                 for name, pd in alexander.knot_inventory().items()]
        knots += [("w%d" % i,
                   gauss.braid_closure(wbraid.braid_from_text(t)), True)
                  for i, t in enumerate(W_BRAIDS)]
        for i, c in enumerate(self.SEEDED_CROSSINGS):
            _, g = random_closure(rng, c, 0.0, (3, 4))
            knots.append(("c%d" % i, g, False))
        self.items = []
        for name, g, virtual in knots:
            gaps = rng.sample(range(2 * g.k + 1), 2)
            sign, nested = rng.choice(((1, False), (-1, True)))
            self.items.append((name, g, virtual,
                               ("r2", gaps[0], gaps[1], sign, nested)))

    def warm(self):
        for m in range(self.DEGREE + 1):
            expansion.get_quotient(LONG, m, self.RELS)

    def op(self, item, pass_index):
        name, g, virtual, move = item
        z = expansion.zed_knot(g, self.DEGREE)
        got = expansion.wheels_reduce(z)
        want = expansion.predicted_from_alexander(g, self.DEGREE)
        moved = gauss.apply_move(g, *move)
        before = expansion.project_expansion(z, {"RI"})
        after = expansion.project_expansion(
            expansion.zed_knot(moved, self.DEGREE), {"RI"})
        if before != after:
            raise Mismatch("%s: projected Z changes under %r" % (name, move))
        if got == want:
            return got, "ok"
        if virtual and got == odd_wheels_flipped(want):
            return got, "failed"
        raise Mismatch("%s: wheels of Z %r, Alexander prediction %r"
                       % (name, got, want))

    def digest(self, coords):
        return coords

    def verify(self, outputs):
        return []


# --------------------------------------------------------------------------
# closures: Alexander polynomials of braid closures
# --------------------------------------------------------------------------

class Closures:
    name = "closures"
    min_passes = 7
    DEGREE = 5
    CLASSICAL = (10, 10, 11, 11, 12, 12, 12)
    VIRTUAL = (10, 10, 11, 11, 11, 12, 12, 12)

    def __init__(self, seed):
        self.seed = seed

    def prepare(self):
        fixed = random.Random(CORPUS_SEED)
        classical = [random_closure(fixed, c, 0.0) for c in self.CLASSICAL]
        fixed = random.Random(CORPUS_SEED + 1)
        shapes = [random_closure(fixed, c, 0.3)[0] for c in self.VIRTUAL]
        rng = random.Random(self.seed)
        virtual = [resign(rng, b) for b in shapes]
        self.items = [(g, True) for _, g in classical]
        self.items += [(gauss.braid_closure(b), False) for b in virtual]
        rng.shuffle(self.items)

    def warm(self):
        pass

    def op(self, item, pass_index):
        g, classical = item
        series, poly = alexander.alexander_matrix(g, self.DEGREE)
        fox = (alexander.alexander_fox(gauss.gauss_to_pd(g)) if classical
               else None)
        return (series, poly, fox), "ok"

    def digest(self, output):
        return output

    def verify(self, outputs):
        problems = []
        for (g, classical), (series, poly, fox) in zip(self.items, outputs):
            label = "%s %r" % ("classical" if classical else "virtual",
                               g.canonical())
            if abs(poly(1)) != 1:
                problems.append("%s: |A(1)| = %s" % (label, abs(poly(1))))
            if not series_matches_polynomial(series, poly, self.DEGREE,
                                             2 * g.k + 2):
                problems.append("%s: series is not A(e^x) up to a unit"
                                % label)
            if classical:
                if poly != fox:
                    problems.append("%s: matrix %s, Fox %s"
                                    % (label, poly, fox))
                if not poly.is_palindromic():
                    problems.append("%s: not palindromic" % label)
        return problems


# --------------------------------------------------------------------------
# suites: every verification suite in a fresh CLI process
# --------------------------------------------------------------------------

# The two slowest suites (about 10 s and 14 s, one process each) are left
# out: one sample of each per run made the figures of a run spread by
# 15-25 %, and what they run is timed elsewhere (strand quotient builds in
# quotients; the degree-5 RI quotient, zed_knot, wheels_reduce and
# predicted_from_alexander in invariants).
SLOW_SUITES = ("expansion-braid-relations", "alexander-wheels-bridge")


class Suites:
    name = "suites"
    min_passes = 3
    SUITES = tuple(name for name, _ in ALL_CHECKS if name not in SLOW_SUITES)
    tracer = None  # set by the traced run; children then trace themselves

    def __init__(self, seed):
        self.seed = seed

    def prepare(self):
        self.items = list(self.SUITES)

    def warm(self):
        pass

    def op(self, suite, pass_index):
        seed = str(self.seed * 1000 + pass_index)
        args = ["--machine", "check", "--suite", suite, "--seed", seed]
        env = dict(os.environ, PYTHONPATH=SRC)
        if self.tracer is None:
            out = subprocess.run([sys.executable, "-m", "wknots.cli"] + args,
                                 env=env, stdout=subprocess.PIPE, text=True)
            layers = None
        else:
            fd, path = tempfile.mkstemp(suffix=".json",
                                        dir=os.path.join(ROOT, ".bench_out"))
            os.close(fd)
            try:
                out = subprocess.run(
                    [sys.executable, os.path.join(HERE, "cli_child.py"), path]
                    + args, env=env, stdout=subprocess.PIPE, text=True)
                with open(path) as fh:
                    layers = json.load(fh)
            finally:
                os.remove(path)
            self.tracer.absorb(layers)
        lines = dict(ln.split("=", 1) for ln in out.stdout.splitlines()
                     if "=" in ln)
        if out.returncode != 0 or lines.get(suite) != "ok":
            raise Mismatch("suite %s (seed %s) exited %d: %s"
                           % (suite, seed, out.returncode, out.stdout.strip()))
        return lines, "ok"

    def digest(self, output):
        return None

    def verify(self, outputs):
        named = {k for lines in outputs for k, v in lines.items()
                 if not k.endswith("_detail")}
        expected = {name for name, _ in ALL_CHECKS} - set(SLOW_SUITES)
        if named != expected or len(expected) != 8:
            return ["machine output names %s, expected the eight suites %s"
                    % (sorted(named), sorted(expected))]
        return []


WORKLOADS = {w.name: w for w in (Quotients, Invariants, Closures, Suites)}
