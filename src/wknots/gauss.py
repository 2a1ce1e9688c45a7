"""Gauss diagrams for long w-knots, planar-diagram codes, and Reidemeister moves.

A w-knot is presented by a Gauss diagram: a long line with ``2k`` marked
slots ``1..2k`` and ``k`` signed arrows, each arrow pointing from its tail
slot (on the over-strand) to its head slot (on the under-strand).  Virtual
crossings are invisible at this level, so the virtual and mixed moves do
not change the diagram and are not moves here; the w-knot moves (R1
direction flip, R2, R3, and the overcrossings-commute move) are explicit
rewrites, the R3 gate a rule on its three arrows.
"""

from collections import Counter

from .wbraid import BraidWord, crossings

SIGNS = {"+": 1, "-": -1}


class GaussDiagram:
    """Signed arrow diagram on a long line with slots 1..2k.

    arrows -- tuple of (tail, head, sign), slots a permutation of 1..2k,
    stored sorted by tail slot whatever order they are given in.
    """

    def __init__(self, arrows):
        arrows = tuple(sorted((int(t), int(h), int(s))
                              for t, h, s in arrows))
        slots = sorted(x for t, h, _ in arrows for x in (t, h))
        if slots != list(range(1, 2 * len(arrows) + 1)):
            raise ValueError("arrow endpoints must cover slots 1..2k exactly once")
        if any(s not in (1, -1) for _, _, s in arrows):
            raise ValueError("arrow signs must be +1 or -1")
        self.arrows = arrows

    @property
    def k(self):
        return len(self.arrows)

    def __eq__(self, other):
        return isinstance(other, GaussDiagram) and self.arrows == other.arrows

    def __hash__(self):
        return hash(self.arrows)

    def canonical(self):
        """Arrows sorted by tail slot (slot labels are already canonical)."""
        return self.arrows

    def __repr__(self):
        return "GaussDiagram(%r)" % (list(self.canonical()),)


def gauss_to_text(d):
    lines = ["n=%d" % d.k]
    for t, h, s in d.canonical():
        lines.append("t=%d h=%d s=%s" % (t, h, "+" if s > 0 else "-"))
    return "\n".join(lines) + "\n"


def gauss_from_text(text):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    head = lines[0] if lines else ""
    if not (head.startswith("n=") and head[2:].isdecimal()):
        raise ValueError("bad header line %r: expected n=<k>" % head)
    k = int(head[2:])
    arrows = []
    for ln in lines[1:]:
        toks = ln.split()
        parts = dict(tok.partition("=")[::2] for tok in toks)
        if len(toks) != 3 or set(parts) != {"t", "h", "s"} \
                or not (parts["t"].isdecimal() and parts["h"].isdecimal()):
            raise ValueError("bad arrow line %r: expected "
                             "t=<slot> h=<slot> s=<+ or ->" % ln)
        if parts["s"] not in SIGNS:
            raise ValueError("bad sign %r in arrow line %r" % (parts["s"], ln))
        arrows.append((int(parts["t"]), int(parts["h"]), SIGNS[parts["s"]]))
    if len(arrows) != k:
        raise ValueError("header says %d arrows, found %d" % (k, len(arrows)))
    return GaussDiagram(arrows)


def self_linking(d):
    """Sum of crossing signs (writhe of the underlying diagram)."""
    return sum(s for _, _, s in d.arrows)


# --------------------------------------------------------------------------
# Planar diagram codes
# --------------------------------------------------------------------------

class PDCode:
    """Planar diagram code: list of crossings X[a,b,c,d].

    Edge labels 1..2k run along the knot; at each crossing the four labels
    are listed counterclockwise starting from the incoming under-strand.
    """

    def __init__(self, crossings):
        self.crossings = tuple(tuple(int(x) for x in c) for c in crossings)
        if any(len(c) != 4 for c in self.crossings):
            raise ValueError("each crossing needs four edge labels")
        labels = sorted(x for c in self.crossings for x in c)
        m = 2 * len(self.crossings)
        if labels != sorted(list(range(1, m + 1)) * 2):
            raise ValueError("edge labels must be 1..2k, each twice")

    def __repr__(self):
        return "PDCode(%r)" % (list(self.crossings),)


def pd_to_text(pd):
    return " ".join("X[%d,%d,%d,%d]" % c for c in pd.crossings) + "\n"


def pd_from_text(text):
    body = text.replace("\n", " ")
    crossings = []
    for chunk in body.split():
        chunk = chunk.strip().rstrip(",")
        if not chunk:
            continue
        labels = chunk[2:-1].split(",")
        if not (chunk.startswith("X[") and chunk.endswith("]")
                and all(x.isdecimal() for x in labels)):
            raise ValueError("bad crossing token %r: expected "
                             "X[<edge>,<edge>,<edge>,<edge>]" % chunk)
        crossings.append([int(x) for x in labels])
    return PDCode(crossings)


def _pd_crossing_sign(a, b, c, d, m):
    """Sign of X[a,b,c,d] with edges numbered along the knot, modulo m."""
    nxt = lambda x: x % m + 1
    # The under-strand enters at a and exits at c.  The over-strand runs
    # d->b (positive crossing) or b->d (negative crossing).
    if nxt(d) == b and nxt(b) == d:
        # only possible when m = 2: a lone kink's code does not determine
        # the over-strand direction
        raise ValueError("one-crossing code is ambiguous; sign undecidable")
    if nxt(d) == b:
        return 1
    if nxt(b) == d:
        return -1
    raise ValueError("crossing X[%d,%d,%d,%d] has no coherent over-strand" % (a, b, c, d))


def pd_to_gauss(pd):
    """Convert a planar diagram code to a Gauss diagram.

    Slot j on the long line is the point where edge j ends, i.e. the
    crossing passage between edges j and j+1.  Each crossing contributes
    an arrow from its over-incoming slot to its under-incoming slot.
    """
    m = 2 * len(pd.crossings)
    arrows = []
    for a, b, c, d in pd.crossings:
        s = _pd_crossing_sign(a, b, c, d, m)
        over_in = d if s > 0 else b
        arrows.append((over_in, a, s))
    return GaussDiagram(arrows)


def gauss_to_pd(g):
    """Planar-diagram code of the closure of a realizable Gauss diagram.

    Edge i of the closed knot ends at slot i (and edge i+1, cyclically,
    leaves it).  Only meaningful for diagrams realizable by a classical
    planar diagram; the conversion itself is purely combinatorial.
    """
    m = 2 * g.k
    nxt = lambda x: x % m + 1
    crossings = []
    for t, h, s in g.canonical():
        a, c = h, nxt(h)
        if s > 0:
            b, d = nxt(t), t
        else:
            b, d = t, nxt(t)
        crossings.append((a, b, c, d))
    return PDCode(crossings)


# --------------------------------------------------------------------------
# Braid closures
# --------------------------------------------------------------------------

def braid_closure(b):
    """Long-knot Gauss diagram of the (cut) trace closure of a braid word.

    Strands are named by their bottom positions, as in
    ``wbraid.crossings``.  The strand ending at top position p runs on as
    strand p, so the closure of ``b`` is a single component when its
    skeleton is an n-cycle; the long line is the closure cut open at the
    bottom of strand 1, and each strand's passages lie along it in word
    order.  Each real crossing gives an arrow from its over passage to its
    under passage; virtual letters give none.
    """
    if not isinstance(b, BraidWord):
        raise TypeError("expected a BraidWord")
    cross, top = crossings(b)
    passes = Counter(s for over, under, _ in cross for s in (over, under))
    after = dict(zip(top, range(1, b.n + 1)))  # strand -> the next strand
    slot, strand, total = {}, 1, 0  # slot[s]: the slot before strand s
    while strand not in slot:
        slot[strand] = total
        total += passes[strand]
        strand = after[strand]
    if len(slot) != b.n:
        raise ValueError("braid closure is a link, not a knot")
    arrows = []
    for over, under, sign in cross:
        slot[over] += 1
        slot[under] += 1
        arrows.append((slot[over], slot[under], sign))
    return GaussDiagram(arrows)


# --------------------------------------------------------------------------
# Reidemeister-type moves on Gauss diagrams
# --------------------------------------------------------------------------

def apply_move(d, move, *args):
    """Apply a named move to a Gauss diagram, returning a new diagram.

    Moves (an unknown name, or a move whose precondition fails, raises
    ``ValueError``):

    - ``("r1s", i)``         flip the direction of an isolated arrow whose
      endpoints are the adjacent slots i, i+1 (kink with the opposite
      rotation number; the sign is kept).
    - ``("r2", gap_t, gap_o, sign, nested)``  insert a cancelling pair of
      arrows: tails at gap ``gap_t``, heads at gap ``gap_o`` (gaps count
      0..2k positions between/around existing slots).  ``nested`` selects
      the nested rather than parallel pattern.
    - ``("r2del", i)``       delete an R2 pair whose tails occupy slots
      i, i+1 (detected automatically).
    - ``("r3", i, j, l)``    slide move on three arrows forming a triangle
      occupying slot pairs (i,i+1), (j,j+1), (l,l+1), in any order: each
      of the three arrows has its endpoint within each pair swapped.  The
      triangle must be braid-like (see ``_is_slide``).
    - ``("oc", i)``          swap two adjacent tails at slots i, i+1
      (overcrossings commute).
    """
    move = move.lower()
    arrows = list(d.arrows)
    if move == "r1s":
        (i,) = args
        for idx, (t, h, s) in enumerate(arrows):
            if {t, h} == {i, i + 1}:
                arrows[idx] = (h, t, s)
                return GaussDiagram(arrows)
        raise ValueError("no isolated arrow at slots (%d,%d)" % (i, i + 1))

    if move == "r2":
        gap_t, gap_o, sign, nested = args
        if gap_t == gap_o:
            raise ValueError("R2 tails and heads need distinct gaps")
        if not (0 <= gap_t <= 2 * d.k and 0 <= gap_o <= 2 * d.k):
            raise ValueError("gap out of range")
        # place new endpoints at fractional positions inside the gaps,
        # then re-pack all slot labels
        scaled = [(4 * t, 4 * h, s) for t, h, s in arrows]
        t1, t2 = 4 * gap_t + 1, 4 * gap_t + 2
        h1, h2 = 4 * gap_o + 1, 4 * gap_o + 2
        if nested:
            scaled += [(t1, h2, sign), (t2, h1, -sign)]
        else:
            scaled += [(t1, h1, sign), (t2, h2, -sign)]
        return GaussDiagram(_renumber(scaled))

    if move == "r2del":
        (i,) = args
        pair = [(idx, a) for idx, a in enumerate(arrows) if a[0] in (i, i + 1)]
        if len(pair) != 2:
            raise ValueError("slots (%d,%d) are not two tails" % (i, i + 1))
        (i1, a1), (i2, a2) = pair
        h1, h2 = a1[1], a2[1]
        parallel = a1[0] + 1 == a2[0] and h1 + 1 == h2 and a1[2] == -a2[2]
        nested = a1[0] + 1 == a2[0] and h2 + 1 == h1 and a1[2] == -a2[2]
        if not (parallel or nested) or abs(h1 - h2) != 1:
            raise ValueError("arrows at (%d,%d) do not form an R2 pair" % (i, i + 1))
        rest = [a for idx, a in enumerate(arrows) if idx not in (i1, i2)]
        return GaussDiagram(_renumber(rest))

    if move == "r3":
        i, j, l = args
        pairs = [(i, i + 1), (j, j + 1), (l, l + 1)]
        flat = [x for p in pairs for x in p]
        if len(set(flat)) != 6:
            raise ValueError("R3 slot pairs must be disjoint")
        swap, loc = {}, {}
        for pi, (a, bs) in enumerate(sorted(pairs)):
            swap[a], swap[bs] = bs, a
            loc[a], loc[bs] = (pi, 0), (pi, 1)
        touched = [idx for idx, (t, h, _) in enumerate(arrows)
                   if t in swap or h in swap]
        if len(touched) != 3 or any(
                arrows[idx][0] not in swap or arrows[idx][1] not in swap
                for idx in touched):
            raise ValueError("slot pairs do not isolate three arrows")
        pattern = tuple(sorted(
            loc[arrows[idx][0]] + loc[arrows[idx][1]] + (arrows[idx][2],)
            for idx in touched))
        if not _is_slide(pattern):
            raise ValueError("three-arrow configuration is not a slide move")
        for idx in touched:
            t, h, s = arrows[idx]
            arrows[idx] = (swap[t], swap[h], s)
        return GaussDiagram(arrows)

    if move == "oc":
        (i,) = args
        tails = [idx for idx, (t, _, _) in enumerate(arrows) if t in (i, i + 1)]
        if len(tails) != 2:
            raise ValueError("slots (%d,%d) are not two tails" % (i, i + 1))
        for idx in tails:
            t, h, s = arrows[idx]
            arrows[idx] = (i + 1 if t == i else i, h, s)
        return GaussDiagram(arrows)

    raise ValueError("unknown move %r" % move)


def _is_slide(pattern):
    """Whether three arrows ``(pair, offset, pair, offset, sign)`` on slot
    pairs 0, 1, 2 form a braid-like (not cyclically oriented) R3 triangle.

    The top pair holds two tails, the bottom pair two heads and the middle
    one of each, joined by the arrows tm, tb and mb.  With a, b the offsets
    of the tail and head of tm and c that of the head of tb, the triangle
    slides iff a = b or b = c, s_tm s_tb = (-1)^(b+c) and
    s_tb s_mb = (-1)^(a+b): the 72 braid-like configurations of the 960 on
    three slot pairs (Polyak, arXiv:0908.3127).  The set is closed under
    flipping every offset, so the move undoes itself.
    """
    ends = {(p, q): (op, oq, s) for p, op, q, oq, s in pattern}
    tails = [p for p, _, _, _, _ in pattern]
    top, mid, bot = sorted(range(3), key=lambda p: -tails.count(p))
    if set(ends) != {(top, mid), (top, bot), (mid, bot)}:
        return False
    (a, b, s_tm), (_, c, s_tb), (_, _, s_mb) = (
        ends[top, mid], ends[top, bot], ends[mid, bot])
    return ((a == b or b == c) and s_tm * s_tb == (-1) ** (b + c)
            and s_tb * s_mb == (-1) ** (a + b))


def _renumber(arrows):
    """Re-pack slot labels to 1..2k preserving order."""
    used = sorted(x for t, h, _ in arrows for x in (t, h))
    remap = {old: new for new, old in enumerate(used, start=1)}
    return [(remap[t], remap[h], s) for t, h, s in arrows]
