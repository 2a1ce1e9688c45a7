"""Self-contained verification suites.

Each suite returns (ok, detail).  They are shared between the command-line
``check`` subcommand and the acceptance test gate, and exercise the
cross-module contracts: the braid action respects the group relations, the
expansion respects both the braid relations and the knot moves, the two
Alexander evaluations agree, the quotient dimensions match their
independent descriptions, and the weight systems kill every relator.
"""

import random
from itertools import combinations

from .rational import rat
from .freegroup import aut_is_basis_conjugating
from .wbraid import (SIGMA, VIRT, BraidWord, braid_action, braid_equal,
                     braid_skeleton, braid_invert, relation_table)
from .gauss import GaussDiagram, braid_closure, apply_move
from .alexander import alexander_matrix, alexander_fox, knot_inventory
from .arrows import LONG, ArrowVector, canonical_long, generate_relations
from .jacobi import (as_instances, ihx_instances, wheel_monomial_basis,
                     concat)
from .expansion import (zed_braid, zed_knot, get_quotient, project_expansion,
                        wheels_reduce, predicted_from_alexander)
from . import lieweights as lw
from .gauss import pd_to_gauss


def random_braid(rng, n, length):
    """A w-braid word; each letter is virtual with probability 0.3."""
    letters = []
    for _ in range(length):
        i = rng.randrange(1, n)
        if rng.random() < 0.3:
            letters.append((VIRT, i, 1))
        else:
            letters.append((SIGMA, i, rng.choice((1, -1))))
    return BraidWord(n, tuple(letters))


def random_knot_diagram(rng, length=7):
    """Closure of a random braid on 2-4 strands, retried until the closure
    is a knot."""
    while True:
        n = rng.randrange(2, 5)
        b = random_braid(rng, n, length)
        try:
            return braid_closure(b)
        except ValueError:
            continue


# --------------------------------------------------------------------------
# 1-3: the free-group action
# --------------------------------------------------------------------------

def check_action_well_defined(nmax=6):
    """The action agrees on both sides of every defining relation."""
    bad = []
    for n in range(2, nmax + 1):
        for name, lhs, rhs in relation_table(n, extended=True):
            if braid_action(lhs) != braid_action(rhs):
                bad.append((n, name))
    return not bad, "checked n=2..%d, %s" % (nmax, _failures(bad))


def _failures(bad):
    """The failure count, and the first failing case if there is one."""
    first = "; first: %r" % (bad[0],) if bad else ""
    return "%d failures%s" % (len(bad), first)


def _rewritten(rng, b):
    """A braid word equal to b in the group, obtained by inserting a
    cancelling pair and a conjugated relator."""
    letters = list(b.letters)
    pos = rng.randrange(len(letters) + 1)
    i = rng.randrange(1, b.n)
    if rng.random() < 0.5:
        pair = [(SIGMA, i, 1), (SIGMA, i, -1)]
    else:
        pair = [(VIRT, i, 1), (VIRT, i, 1)]
    letters[pos:pos] = pair
    out = BraidWord(b.n, tuple(letters))
    rels = relation_table(b.n)
    _, lhs, rhs = rels[rng.randrange(len(rels))]
    g = random_braid(rng, b.n, rng.randrange(3))
    relator = g * lhs * braid_invert(rhs) * braid_invert(g)
    return out * relator


def check_word_problem(seed=0, trials=1000):
    """Relator-rewritten pairs compare equal; pairs a, a·g σ_i^{±2} g⁻¹
    compare unequal.  Those share a's skeleton, so the free-group action
    decides them; they are distinct because σ_i² ≠ 1 and conjugation
    preserves that."""
    rng = random.Random(seed)
    bad = []
    for _ in range(trials):
        n = rng.randrange(2, 5)
        a = random_braid(rng, n, rng.randrange(1, 7))
        b = _rewritten(rng, a)
        if not braid_equal(a, b):
            bad.append(("should be equal", a.to_text(), b.to_text()))
    for _ in range(trials):
        n = rng.randrange(2, 5)
        a = random_braid(rng, n, rng.randrange(1, 7))
        g = random_braid(rng, n, rng.randrange(3))
        square = ((SIGMA, rng.randrange(1, n), rng.choice((1, -1))),) * 2
        b = a * g * BraidWord(n, square) * braid_invert(g)
        if braid_equal(a, b):
            bad.append(("should differ", a.to_text(), b.to_text()))
    return not bad, "%d equal + %d distinct pairs, %s" % (
        trials, trials, _failures(bad))


def check_basis_conjugating(seed=1, trials=500):
    """Every braid acts by a basis-conjugating automorphism."""
    rng = random.Random(seed)
    bad = []
    for _ in range(trials):
        b = random_braid(rng, rng.randrange(2, 6), rng.randrange(0, 9))
        ok, pi, _ = aut_is_basis_conjugating(braid_action(b))
        if not ok or [pi[i] for i in sorted(pi)] != list(braid_skeleton(b)):
            bad.append(b.to_text())
    return not bad, "%d braids, %s" % (trials, _failures(bad))


# --------------------------------------------------------------------------
# 4-5: the expansion
# --------------------------------------------------------------------------

def check_zed_relations(nmax=4, d=4):
    """The expansion agrees (in the quotient) on both sides of every
    braid relation."""
    bad = []
    for n in range(2, nmax + 1):
        for name, lhs, rhs in relation_table(n):
            zl = project_expansion(zed_braid(lhs, d))
            zr = project_expansion(zed_braid(rhs, d))
            if zl != zr:
                bad.append((n, name))
    return not bad, "n=2..%d at degree %d, %s" % (nmax, d, _failures(bad))


def _legal_moves(g):
    """Every applicable move instance on a diagram, each one once: the R2
    insertions, then the one-slot moves by slot, then the slides by slot
    triple.  The slide candidates are the arrow triples whose six
    endpoints fill three pairs of adjacent slots (the only triples that
    isolate three arrows), tried in slot order; ``apply_move`` decides
    each move."""
    gaps = range(2 * g.k + 1)
    out = [("r2", gt, go, sign, nested) for gt in gaps for go in gaps
           if gt != go for sign in (1, -1) for nested in (False, True)]
    tries = [(name, i) for i in range(1, 2 * g.k)
             for name in ("r1s", "r2del", "oc")]
    ends = (sorted(x for t, h, _ in trio for x in (t, h))
            for trio in combinations(g.arrows, 3))
    tries += sorted(("r3", s[0], s[2], s[4]) for s in ends
                    if s[1] == s[0] + 1 and s[3] == s[2] + 1
                    and s[5] == s[4] + 1)
    for mv in tries:
        try:
            apply_move(g, *mv)
        except ValueError:
            continue
        out.append(mv)
    return out


def check_zed_moves(seed=2, trials=200, d=4):
    """The projected expansion (with the rotation-number relation switched
    on) is unchanged by every knot move."""
    rng = random.Random(seed)
    bad = []
    tried = {}
    for _ in range(trials):
        if rng.random() < 0.35:
            # seed a slide-move triangle: closures of words containing
            # s_i s_{i+1} s_i carry legal three-arrow configurations
            while True:
                pre = random_braid(rng, 3, rng.randrange(0, 3))
                b = pre * BraidWord(3, ((SIGMA, 1, 1), (SIGMA, 2, 1),
                                        (SIGMA, 1, 1)))
                try:
                    g = braid_closure(b)
                    break
                except ValueError:
                    continue
        else:
            g = random_knot_diagram(rng, length=rng.randrange(3, 7))
        if not g.arrows or rng.random() < 0.3:
            # graft a kink at the end so the kink-flip move has a target,
            # and a crossingless diagram any move at all
            kk = g.k
            g = GaussDiagram(g.arrows +
                             ((2 * kk + 1, 2 * kk + 2, rng.choice((1, -1))),))
        by_kind = {}
        for mv in _legal_moves(g):
            by_kind.setdefault(mv[0], []).append(mv)
        kind = rng.choice(sorted(by_kind))
        mv = rng.choice(by_kind[kind])
        g2 = apply_move(g, mv[0], *mv[1:])
        tried[mv[0]] = tried.get(mv[0], 0) + 1
        za = project_expansion(zed_knot(g, d), flags={"RI"})
        zb = project_expansion(zed_knot(g2, d), flags={"RI"})
        if za != zb:
            bad.append((g, mv))
    names = ",".join("%s:%d" % kv for kv in sorted(tried.items()))
    return not bad, "%d cases (%s), %s" % (trials, names, _failures(bad))


# --------------------------------------------------------------------------
# 6-7: Alexander
# --------------------------------------------------------------------------

def check_alexander_oracles():
    """Matrix formula and Fox-calculus evaluation agree on the bundled
    knot inventory; every value satisfies A(1) = ±1 and is palindromic."""
    bad = []
    for name, pd in knot_inventory().items():
        fox = alexander_fox(pd)
        _, mat = alexander_matrix(pd_to_gauss(pd), d=2)
        if fox != mat:
            bad.append(name + ":mismatch")
        if abs(fox(1)) != 1:
            bad.append(name + ":A(1)")
        if not fox.is_palindromic():
            bad.append(name + ":palindrome")
    return not bad, "%d knots, failures: %s" % (
        len(knot_inventory()), bad or "none")


def check_main_theorem(names=("unknot", "3_1", "4_1", "5_1", "5_2"), d=5):
    """The wheels part of the expansion equals the image of the Alexander
    polynomial under x^k -> k-wheel."""
    inv = knot_inventory()
    bad = []
    for name in names:
        g = GaussDiagram(()) if name == "unknot" else pd_to_gauss(inv[name])
        got = wheels_reduce(zed_knot(g, d))
        want = predicted_from_alexander(g, d)
        if got != want:
            bad.append(name)
    return not bad, "degree %d on %s, failures: %s" % (
        d, "/".join(names), bad or "none")


# --------------------------------------------------------------------------
# 8-9: diagram spaces
# --------------------------------------------------------------------------

def check_dimensions(mmax=4):
    """Quotient dimensions match two independent descriptions: the wheel
    monomial count in each flag variant, and the six-term-relation
    presentation."""
    bad = []
    for flags, label in ((frozenset(), "plain"), (frozenset({"RI"}), "RI"),
                         (frozenset({"FI"}), "FI")):
        for m in range(mmax + 1):
            q = get_quotient(LONG, m, {"TC", "4T"} | set(flags))
            nm = len(wheel_monomial_basis(m, flags))
            if q.dim != nm:
                bad.append("long/%s/m=%d: %d vs %d" % (label, m, q.dim, nm))
    for skel in (LONG, ("strands", 2), ("strands", 3)):
        for m in range(min(mmax, 3) + 1):
            a = get_quotient(skel, m, {"TC", "4T"}).dim
            b = get_quotient(skel, m, {"TC", "6T"}).dim
            if a != b:
                bad.append("%r/m=%d: 4T %d vs 6T %d" % (skel, m, a, b))
    return not bad, "m<=%d, failures: %s" % (mmax, bad or "none")


def check_jacobi(mmax=4):
    """Antisymmetry and the Jacobi identity of trivalent diagrams vanish
    after elimination, and the commutator-slide relators vanish too."""
    bad = []
    for kind, vecs in (("AS", as_instances(mmax)), ("IHX", ihx_instances())):
        for vec in vecs:
            if vec.m > mmax:
                continue
            q = get_quotient(LONG, vec.m, {"TC", "4T"})
            if any(q.project(vec)):
                bad.append("%s/m=%d" % (kind, vec.m))
                break
    for m in range(4, mmax + 1):
        q = get_quotient(LONG, m, {"TC", "4T"})
        for vec in generate_relations(LONG, m, {"CC"}):
            if any(q.project(vec)):
                bad.append("CC/m=%d" % m)
                break
    return not bad, "m<=%d, failures: %s" % (mmax, bad or "none")


# --------------------------------------------------------------------------
# 10: weight systems
# --------------------------------------------------------------------------

def check_weight_systems(mmax=3, seed=3):
    """Every tails-commute and four-term relator maps to zero in U(Ig) for
    three Lie algebras, and the map is multiplicative under juxtaposition."""
    fixtures = [("abelian", lw.lie_abelian(2), mmax),
                ("nonabelian2", lw.lie_nonabelian2(), mmax),
                ("sl2", lw.lie_sl2(), min(mmax, 2))]
    bad = []
    for name, L, mcap in fixtures:
        for skel in (LONG, ("strands", 3)):
            for m in range(1, mcap + 1):
                for vec in generate_relations(skel, m, {"TC", "4T"}):
                    if not lw.weight_system(vec, L).is_zero():
                        bad.append("%s/%r/m=%d" % (name, skel, m))
                        break
    rng = random.Random(seed)
    for name, L, _ in fixtures:
        for _ in range(10):
            def rnd(m):
                slots = list(range(1, 2 * m + 1))
                rng.shuffle(slots)
                return canonical_long(tuple(
                    (slots[2 * i], slots[2 * i + 1]) for i in range(m)))
            mu, mv = rng.randrange(1, 3), rng.randrange(1, 3)
            du, dv = rnd(mu), rnd(mv)
            u = ArrowVector(LONG, mu, {du: rat(1)})
            v = ArrowVector(LONG, mv, {dv: rat(1)})
            lhs = lw.weight_system(concat(u, v), L)
            rhs = lw.pbw_mul(lw.weight_system(u, L),
                             lw.weight_system(v, L), L)
            if lhs != rhs:
                bad.append("%s/product" % name)
    return not bad, "m<=%d, failures: %s" % (mmax, bad or "none")


ALL_CHECKS = (
    ("action-well-defined", check_action_well_defined),
    ("word-problem", check_word_problem),
    ("basis-conjugating", check_basis_conjugating),
    ("expansion-braid-relations", check_zed_relations),
    ("expansion-move-invariance", check_zed_moves),
    ("alexander-dual-oracle", check_alexander_oracles),
    ("alexander-wheels-bridge", check_main_theorem),
    ("quotient-dimensions", check_dimensions),
    ("jacobi-relations", check_jacobi),
    ("weight-systems", check_weight_systems),
)
