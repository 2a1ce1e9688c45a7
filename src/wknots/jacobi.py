"""Trivalent arrow diagrams, STU elimination, and wheels.

A trivalent diagram lives on the long strand: its skeleton legs (in line
order) are tails or heads of directed edges, and its internal vertices are
"two in, one out".  Swapping the ordered pair of inputs of a vertex negates
the diagram (antisymmetry).  Every internal vertex is eliminated against
the skeleton by the two STU moves:

* head elimination — a vertex whose out-edge ends on a skeleton head with
  inputs (u, v) equals (head of u, head of v side by side) minus the same
  with the two heads swapped;
* tail elimination — a vertex one of whose inputs comes straight from a
  skeleton tail leg at p, with other input e and out-edge o, equals
  (head of e at p, tail of o at p+1) minus (tail of o at p, head of e
  at p+1).

The canonical stored form of every element is a pure-arrow ArrowVector.
"""

from functools import cache
from itertools import combinations, permutations

from .rational import rat
from .arrows import LONG, ArrowVector, canonical_long


class TrivalentDiagram:
    """legs: tuple of ("t"|"h", edge id) in skeleton order;
    verts: tuple of ((in1, in2), out) edge-id triples."""

    def __init__(self, legs, verts):
        self.legs = tuple((r, e) for r, e in legs)
        self.verts = tuple(((i1, i2), o) for (i1, i2), o in verts)
        sources, sinks = [], []
        for r, e in self.legs:
            (sources if r == "t" else sinks).append(e)
        for (i1, i2), o in self.verts:
            sinks.extend([i1, i2])
            sources.append(o)
        if sorted(sources) != sorted(set(sources)) or \
           sorted(sinks) != sorted(set(sinks)) or \
           sorted(sources) != sorted(sinks):
            raise ValueError("edges must each have one source and one sink")

    @property
    def degree(self):
        total = len(self.legs) + len(self.verts)
        if total % 2:
            raise ValueError("odd vertex count")
        return total // 2


def stu_eliminate(d):
    """Express a trivalent diagram as a pure-arrow ArrowVector."""
    out = ArrowVector(LONG, d.degree)

    def emit(legs, verts, coeff):
        if not verts:
            src = {e: i + 1 for i, (r, e) in enumerate(legs) if r == "t"}
            dst = {e: i + 1 for i, (r, e) in enumerate(legs) if r == "h"}
            arrows = [(src[e], dst[e]) for e in src]
            out.add_term(canonical_long(arrows), coeff)
            return
        tails = {e: i for i, (r, e) in enumerate(legs) if r == "t"}
        heads = {e: i for i, (r, e) in enumerate(legs) if r == "h"}
        for vi, ((i1, i2), o) in enumerate(verts):
            rest = verts[:vi] + verts[vi + 1:]
            if o in heads:
                p = heads[o]
                base = [l for l in legs]
                t1 = base[:p] + [("h", i1), ("h", i2)] + base[p + 1:]
                t2 = base[:p] + [("h", i2), ("h", i1)] + base[p + 1:]
                emit(t1, rest, coeff)
                emit(t2, rest, -coeff)
                return
            if i1 in tails or i2 in tails:
                if i2 in tails:
                    leg_e, other, sign = i2, i1, rat(1)
                else:
                    leg_e, other, sign = i1, i2, rat(-1)
                p = tails[leg_e]
                base = [l for l in legs]
                t1 = base[:p] + [("h", other), ("t", o)] + base[p + 1:]
                t2 = base[:p] + [("t", o), ("h", other)] + base[p + 1:]
                emit(t1, rest, coeff * sign)
                emit(t2, rest, -coeff * sign)
                return
        raise ValueError("not skeleton-reducible")

    emit(list(d.legs), d.verts, rat(1))
    return out


# --------------------------------------------------------------------------
# Wheels
# --------------------------------------------------------------------------

def wheel_diagram(k):
    """The k-wheel: k skeleton tails (spokes) feeding an internal k-cycle."""
    if k < 1:
        raise ValueError("wheel index must be >= 1")
    spokes = ["s%d" % i for i in range(k)]
    cycle = ["c%d" % i for i in range(k)]
    legs = [("t", s) for s in spokes]
    verts = [((cycle[i - 1], spokes[i]), cycle[i]) for i in range(k)]
    return TrivalentDiagram(legs, verts)


def wheel_to_arrows(k):
    """Arrow-diagram image of the k-wheel."""
    return stu_eliminate(wheel_diagram(k))


# --------------------------------------------------------------------------
# Products and monomials
# --------------------------------------------------------------------------

def concat(u, v):
    """Juxtaposition product of long-strand vectors (u to the left of v)."""
    if u.skeleton != LONG or v.skeleton != LONG:
        raise ValueError("long-strand vectors only")
    out = ArrowVector(LONG, u.m + v.m)
    for du, cu in u.terms.items():
        for dv, cv in v.terms.items():
            shifted = [(t + 2 * u.m, h + 2 * u.m) for t, h in dv]
            out.add_term(canonical_long(list(du) + shifted), cu * cv)
    return out


def arrow_vector(diagram):
    v = ArrowVector(LONG, len(diagram))
    v.add_term(canonical_long(diagram), rat(1))
    return v


# degree-1 generators: a plain (right) arrow, and the 1-wheel
D_RIGHT = ((1, 2),)
D_LEFT = ((2, 1),)


def generator_image(g):
    if g == "a":
        return arrow_vector(D_RIGHT)
    if isinstance(g, tuple) and g[0] == "w":
        return wheel_to_arrows(g[1])
    raise ValueError("unknown generator %r" % (g,))


def monomial_to_arrows(mono):
    """Arrow image of a generator multiset, multiplied by juxtaposition."""
    out = ArrowVector(LONG, 0)
    out.add_term((), rat(1))
    for g in mono:
        out = concat(out, generator_image(g))
    return out


def wheel_monomial_basis(m, flags=frozenset()):
    """Generator monomials of total degree m for a relation flag set.

    Generators: "a" (a single arrow) and ("w", k) (the k-wheel).  Under RI
    the 1-wheel dies (left and right arrows agree); under FI both die.
    Any other flag raises ``ValueError``.
    """
    flags = frozenset(flags)
    if not flags <= {"RI", "FI"}:
        raise ValueError("unknown flags %s; expected RI and/or FI"
                         % ",".join(sorted(flags - {"RI", "FI"})))
    gens = []
    if "FI" not in flags:
        gens.append(("a", 1))
        if "RI" not in flags:
            gens.append((("w", 1), 1))
    gens.extend((("w", k), k) for k in range(2, m + 1))

    out = []

    def rec(idx, left, mono):
        if left == 0:
            out.append(tuple(mono))
            return
        if idx == len(gens):
            return
        g, deg = gens[idx]
        count = 0
        while count * deg <= left:
            rec(idx + 1, left - count * deg, mono + [g] * count)
            count += 1
    rec(0, m, [])
    return sorted(out, key=lambda mono: [("a", 1) if g == "a" else g
                                         for g in mono])


# --------------------------------------------------------------------------
# Relator instances: AS, IHX, CC
# --------------------------------------------------------------------------

def as_instances(max_degree=4):
    """Antisymmetry relators: D + (D with one vertex's inputs swapped)."""
    out = []
    for k in range(2, max_degree + 1):
        d = wheel_diagram(k)
        (ins0, o0) = d.verts[0]
        flipped = TrivalentDiagram(d.legs,
                                   (((ins0[1], ins0[0]), o0),) + d.verts[1:])
        out.append(stu_eliminate(d) + stu_eliminate(flipped))
    return out


def _bracket3(order, leg_slots):
    """Two-vertex |[x,[y,z]]|-style diagram: inputs are skeleton tails at
    leg_slots[0..2] (line order), output a skeleton head at leg_slots[3];
    `order` names the nesting: ("xy",z) means [[x,y],z]."""
    x, y, z = "x", "y", "z"
    inner, outer = order
    pairs = {"xy": (x, y), "yz": (y, z), "xz": (x, z)}
    a, b = pairs[inner]
    verts = [((a, b), "m"), (("m", outer), "out")]
    roles = {}
    for name, slot in zip((x, y, z, "out"), leg_slots):
        roles[slot] = ("t" if name != "out" else "h", name)
    legs = [roles[s] for s in sorted(roles)]
    return TrivalentDiagram(legs, verts)


def ihx_instances():
    """Jacobi relators [[x,y],z] + [[y,z],x] − [[x,z],y], all leg orders."""
    out = []
    for slots in permutations(range(4)):
        a = _bracket3(("xy", "z"), slots)
        b = _bracket3(("yz", "x"), slots)
        c = _bracket3(("xz", "y"), slots)
        out.append(stu_eliminate(a) + stu_eliminate(b) - stu_eliminate(c))
    return out


def _commutator_block(tag):
    """Degree-2 block: vertex with two skeleton-tail inputs and a skeleton
    head output; legs in line order (tail, tail, head)."""
    e1, e2, o = tag + "1", tag + "2", tag + "o"
    return [("t", e1), ("t", e2), ("h", o)], [((e1, e2), o)]


@cache
def cc_blocks():
    """The commutators-commute blocks: one commutator block slid through
    another (an interleaving of the two blocks' legs minus the separated
    placement), each that is nonzero as {arrows on points 0..7: int}.  The
    blocks are alike, so a's legs at P or at the complement of P give the
    same one: a takes position 0.  ``arrows`` places them at every gap of
    every degree-(m−4) diagram."""

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
    blocks = []
    for a_pos in combinations(range(1, 6), 2):
        v = stu_eliminate(placed((0,) + a_pos)) - separated
        if not v.is_zero():
            blocks.append({tuple((t - 1, h - 1) for t, h in d): int(c)
                           for d, c in v.terms.items()})
    return tuple(blocks)
