"""w-braid words, the action on the free group, and the word problem.

A braid word is a sequence of generators sigma_i^{+-1} (real crossings,
tokens `s<i>`/`S<i>`), s_i (virtual crossings, token `v<i>`) and, with
the extended flag, ring flips rho_i (token `f<i>`).  Words read left to
right as a movie bottom to top.

Every word is read in wB_n (with flips, in its extension by the ring
flips), where equality is decided through the basis-conjugating action
on F_n, which is faithful there.
"""

from __future__ import annotations

from functools import cache

from .freegroup import FreeAut, word_inverse, word_reduce

SIGMA, VIRT, FLIP = "s", "v", "f"


class BraidWord:
    """A braid word on n strands: `letters` is a tuple of (kind, index,
    sign), sign ±1 for SIGMA and +1 otherwise; flips need `extended`.
    An immutable value: equal and hashed by its three fields."""

    __slots__ = ("n", "letters", "extended")

    def __init__(self, n, letters, extended=False):
        for name, value in zip(self.__slots__, (n, letters, extended)):
            object.__setattr__(self, name, value)
        if self.n < 1:
            raise ValueError(f"a braid needs a strand, not n={self.n}")
        for kind, i, sign in self.letters:
            if kind in (SIGMA, VIRT):
                if not 1 <= i <= self.n - 1:
                    raise ValueError(f"generator index {i} out of range for n={self.n}")
            elif kind == FLIP:
                if not self.extended:
                    raise ValueError("flip letters need the extended flag")
                if not 1 <= i <= self.n:
                    raise ValueError(f"flip index {i} out of range for n={self.n}")
            else:
                raise ValueError(f"unknown letter kind {kind}")
            if kind == SIGMA and sign not in (1, -1):
                raise ValueError("sigma letters carry sign +-1")

    def _fields(self):
        return self.n, self.letters, self.extended

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "BraidWord(n=%r, letters=%r, extended=%r)" % self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return BraidWord, self._fields()

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("strand count mismatch")
        return BraidWord(self.n, self.letters + other.letters,
                         self.extended or other.extended)

    def to_text(self):
        toks = []
        for kind, i, sign in self.letters:
            if kind == SIGMA:
                toks.append(f"s{i}" if sign > 0 else f"S{i}")
            elif kind == VIRT:
                toks.append(f"v{i}")
            else:
                toks.append(f"f{i}")
        header = f"n={self.n}" + (" extended" if self.extended else "")
        return header + ("\n" + " ".join(toks) if toks else "")


_TOKENS = {"s": (SIGMA, 1), "S": (SIGMA, -1), "v": (VIRT, 1), "f": (FLIP, 1)}


def braid_from_text(text):
    """Parse the braid text format: header `n=<k> [extended]`, then
    whitespace-separated tokens s<i>, S<i>, v<i>, f<i>."""
    parts = text.split() or [""]
    head = parts[0]
    if not (head.startswith("n=") and head[2:].removeprefix("-").isdecimal()):
        raise ValueError(f"bad braid header {head!r}: expected "
                         "n=<strand count>")
    n = int(head[2:])
    rest = parts[1:]
    extended = False
    if rest and rest[0] == "extended":
        extended = True
        rest = rest[1:]
    letters = []
    for tok in rest:
        if tok[0] not in _TOKENS or not tok[1:].isdecimal():
            raise ValueError(f"bad braid token {tok!r}: expected s<i>, "
                             "S<i>, v<i> or f<i>")
        kind, sign = _TOKENS[tok[0]]
        letters.append((kind, int(tok[1:]), sign))
    return BraidWord(n, tuple(letters), extended=extended)


def word(n, tokens, extended=False):
    """Convenience constructor from tokens like 's1 S2 v1'."""
    return braid_from_text(f"n={n}" + (" extended" if extended else "") + " " + tokens)


# --- strands ----------------------------------------------------------------

def crossings(b: BraidWord):
    """Walk the word once.  Strands are named by their bottom positions.

    Returns each real crossing as (over, under, sign) in word order, and
    the strand at each position at the top.  At sigma_i^+ the strand
    moving from position i to i+1 passes over; at sigma_i^- it passes
    under.  Virtual letters swap two strands; flips move none."""
    pos = list(range(1, b.n + 1))  # pos[p-1]: the strand at position p
    out = []
    for kind, i, sign in b.letters:
        if kind == FLIP:
            continue
        lo, hi = pos[i - 1], pos[i]
        if kind == SIGMA:
            out.append((lo, hi, 1) if sign > 0 else (hi, lo, -1))
        pos[i - 1], pos[i] = hi, lo
    return out, tuple(pos)


def braid_skeleton(b: BraidWord):
    """The underlying permutation: position i at the bottom ends at
    position skeleton[i-1] at the top."""
    perm = [0] * b.n
    for p, strand in enumerate(crossings(b)[1], 1):
        perm[strand - 1] = p
    return tuple(perm)


# --- the action on F_n ------------------------------------------------------

def _gen(i):
    return ((i, 1),)


def letter_action(n, letter) -> FreeAut:
    kind, i, sign = letter
    images = [_gen(j) for j in range(1, n + 1)]
    if kind == SIGMA:
        if sign > 0:
            # xi_i -> xi_{i+1}; xi_{i+1} -> xi_{i+1}^-1 xi_i xi_{i+1}
            images[i - 1] = _gen(i + 1)
            images[i] = word_reduce([(i + 1, -1), (i, 1), (i + 1, 1)])
        else:
            images[i - 1] = word_reduce([(i, 1), (i + 1, 1), (i, -1)])
            images[i] = _gen(i)
    elif kind == VIRT:
        images[i - 1] = _gen(i + 1)
        images[i] = _gen(i)
    else:  # FLIP
        images[i - 1] = ((i, -1),)
    return FreeAut(n, images)


def braid_action(b: BraidWord) -> FreeAut:
    """The homomorphism into basis-conjugating automorphisms of F_n
    (with flips: symmetric automorphisms), as a right action.

    Built right to left: prepending a letter to a suffix that acts by B
    gives the images B(letter(x_j)), and a letter moves only x_i and
    x_{i+1}, so only those two of B's images change (a, c below)."""
    imgs = [_gen(j) for j in range(1, b.n + 1)]
    for kind, i, sign in reversed(b.letters):
        a = imgs[i - 1]
        if kind == FLIP:
            imgs[i - 1] = word_inverse(a)
            continue
        c = imgs[i]
        if kind == VIRT:
            imgs[i - 1], imgs[i] = c, a
        elif sign > 0:
            imgs[i - 1], imgs[i] = c, word_reduce(word_inverse(c) + a + c)
        else:
            imgs[i - 1], imgs[i] = word_reduce(a + c + word_inverse(a)), a
    return FreeAut._reduced(b.n, imgs)


def braid_equal(a: BraidWord, b: BraidWord) -> bool:
    """Decide equality in wB_n (extended: with flips): the same skeleton
    and the same action on F_n, which is faithful there."""
    if a.n != b.n:
        raise ValueError("strand count mismatch")
    if braid_skeleton(a) != braid_skeleton(b):
        return False
    return braid_action(a) == braid_action(b)


# --- structural operations ---------------------------------------------------

def braid_invert(b: BraidWord) -> BraidWord:
    """Reverse the word and invert each letter (s_i and rho_i are
    involutions)."""
    out = []
    for kind, i, sign in reversed(b.letters):
        out.append((kind, i, -sign if kind == SIGMA else sign))
    return BraidWord(b.n, tuple(out), b.extended)


def braid_delete_strand(b: BraidWord, k: int) -> BraidWord:
    """Delete the strand starting at bottom position k."""
    if not 1 <= k <= b.n:
        raise ValueError("strand index out of range")
    pos = k
    out = []
    for kind, i, sign in b.letters:
        if kind == FLIP:
            if i == pos:
                continue
            out.append((kind, i - (1 if i > pos else 0), sign))
            continue
        if i == pos:
            pos = i + 1
            continue
        if i + 1 == pos:
            pos = i
            continue
        out.append((kind, i - (1 if i > pos else 0), sign))
    return BraidWord(b.n - 1, tuple(out), b.extended)


def braid_clone_strand(b: BraidWord, k: int) -> BraidWord:
    """Double the strand starting at bottom position k into two parallel
    strands."""
    if not 1 <= k <= b.n:
        raise ValueError("strand index out of range")
    pos = k  # current position of the cloned strand (its left copy)
    out = []
    for kind, i, sign in b.letters:
        if kind == FLIP:
            if i == pos:
                out.append((FLIP, pos, sign))
                out.append((FLIP, pos + 1, sign))
            else:
                out.append((FLIP, i + (1 if i > pos else 0), sign))
            continue
        if i == pos:
            # clones at (i, i+1) cross the strand at (old) i+1, now i+2
            out.append((kind, i + 1, sign))
            out.append((kind, i, sign))
            pos = i + 1
        elif i + 1 == pos:
            # strand at old position i crosses both clones at (i+1, i+2)
            out.append((kind, i, sign))
            out.append((kind, i + 1, sign))
            pos = i
        else:
            out.append((kind, i + (1 if i > pos else 0), sign))
    return BraidWord(b.n + 1, tuple(out), b.extended)


# --- relation table ----------------------------------------------------------

# (i, j) instances of a relation on n strands; j is None for one index
_INSTANCES = {
    "i<n": lambda n: [(i, None) for i in range(1, n)],
    "i<n-1": lambda n: [(i, None) for i in range(1, n - 1)],
    "i<=n": lambda n: [(i, None) for i in range(1, n + 1)],
    "|i-j|>=2": lambda n: [(i, j) for i in range(1, n) for j in range(1, n)
                           if abs(i - j) >= 2],
    "i<j": lambda n: [(i, j) for i in range(1, n + 1)
                      for j in range(i + 1, n + 1)],
    "j!=i,i+1": lambda n: [(i, j) for i in range(1, n)
                           for j in range(1, n + 1) if j not in (i, i + 1)],
}

# The defining relations of wB_n, then the ring-flip relations of the
# extended group: (name, instances, left word, right word), the words in
# braid tokens over i, j and k = i + 1 ("" is the empty word).  Both sides
# of every entry act alike on F_n (the action-well-defined suite).  VR1 (the
# virtual kink) exists only at the knot level and has no braid-group
# counterpart, and UC (undercrossings commute) is deliberately absent: it
# fails in wB_n, and the tests assert that.
_RELATIONS = (
    ("R2a", "i<n", "s{i} S{i}", ""),
    ("R2b", "i<n", "S{i} s{i}", ""),
    ("R3", "i<n-1", "s{i} s{k} s{i}", "s{k} s{i} s{k}"),
    ("VR2", "i<n", "v{i} v{i}", ""),
    ("VR3", "i<n-1", "v{i} v{k} v{i}", "v{k} v{i} v{k}"),
    ("Ma", "i<n-1", "v{i} v{k} s{i}", "s{k} v{i} v{k}"),
    ("Mb", "i<n-1", "s{i} v{k} v{i}", "v{k} v{i} s{k}"),
    ("OC", "i<n-1", "s{i} s{k} v{i}", "v{k} s{i} s{k}"),
    ("VCss", "|i-j|>=2", "s{i} s{j}", "s{j} s{i}"),
    ("VCsv", "|i-j|>=2", "s{i} v{j}", "v{j} s{i}"),
    ("VCvv", "|i-j|>=2", "v{i} v{j}", "v{j} v{i}"),
    ("Finv", "i<=n", "f{i} f{i}", ""),
    ("Fcomm", "i<j", "f{i} f{j}", "f{j} f{i}"),
    ("Ffars", "j!=i,i+1", "f{j} s{i}", "s{i} f{j}"),
    ("Ffarv", "j!=i,i+1", "f{j} v{i}", "v{i} f{j}"),
    ("Fvlo", "i<n", "v{i} f{i}", "f{k} v{i}"),
    ("Fvhi", "i<n", "v{i} f{k}", "f{i} v{i}"),
    ("Fover", "i<n", "f{k} s{i}", "s{i} f{i}"),
    ("Funder", "i<n", "f{i} s{i}", "v{i} S{i} v{i} f{k}"),
)


@cache
def relation_table(n, extended=False):
    """All instances of the defining relations of wB_n (plus the flip
    relations, those with an `f` letter, when extended), as a tuple of
    (name, left BraidWord, right BraidWord) in the order of `_RELATIONS`."""
    out = []
    for name, instances, left, right in _RELATIONS:
        if "f" in left + right and not extended:
            continue
        for i, j in _INSTANCES[instances](n):
            lw, rw = (word(n, w.format(i=i, j=j, k=i + 1), extended)
                      for w in (left, right))
            out.append((f"{name}[i={i}]" if j is None
                        else f"{name}[i={i},j={j}]", lw, rw))
    return tuple(out)
