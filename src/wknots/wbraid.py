"""v/w-braid words, the action on the free group, and the word problem.

A braid word is a sequence of generators sigma_i^{+-1} (real crossings,
tokens `s<i>`/`S<i>`), s_i (virtual crossings, token `v<i>`) and, with
the extended flag, ring flips rho_i (token `f<i>`).  Words read left to
right as a movie bottom to top.

Equality of w-braids is decided through the basis-conjugating action on
F_n, which is faithful on wB_n; on vB_n the action is not faithful, so
only a sound one-sided refutation is offered there.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass
from functools import cache
from importlib import resources

from .freegroup import FreeAut, aut_compose, word_reduce

SIGMA, VIRT, FLIP = "s", "v", "f"


@dataclass(frozen=True)
class BraidWord:
    n: int
    letters: tuple  # of (kind, index, sign); sign is +-1 for SIGMA, +1 otherwise
    extended: bool = False
    group: str = "w"  # "w" or "v"

    def __post_init__(self):
        if self.group not in ("w", "v"):
            raise ValueError("group must be 'w' or 'v'")
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

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("strand count mismatch")
        return BraidWord(self.n, self.letters + other.letters,
                         self.extended or other.extended, self.group)

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


def braid_from_text(text):
    """Parse the braid text format: header `n=<k> [extended]`, then
    whitespace-separated tokens s<i>, S<i>, v<i>, f<i>."""
    parts = text.split()
    if not parts or not parts[0].startswith("n="):
        raise ValueError("braid text must start with n=<strand count>")
    n = int(parts[0][2:])
    rest = parts[1:]
    extended = False
    if rest and rest[0] == "extended":
        extended = True
        rest = rest[1:]
    letters = []
    for tok in rest:
        kind, idx = tok[0], int(tok[1:])
        if kind == "s":
            letters.append((SIGMA, idx, 1))
        elif kind == "S":
            letters.append((SIGMA, idx, -1))
        elif kind == "v":
            letters.append((VIRT, idx, 1))
        elif kind == "f":
            letters.append((FLIP, idx, 1))
        else:
            raise ValueError(f"bad braid token {tok!r}")
    return BraidWord(n, tuple(letters), extended=extended)


def word(n, tokens, extended=False):
    """Convenience constructor from tokens like 's1 S2 v1'."""
    return braid_from_text(f"n={n}" + (" extended" if extended else "") + " " + tokens)


# --- skeleton ---------------------------------------------------------------

def perm_identity(n):
    return tuple(range(1, n + 1))


def braid_skeleton(b: BraidWord):
    """The underlying permutation: position i at the bottom ends at
    position skeleton[i-1] at the top."""
    perm = list(perm_identity(b.n))
    for kind, i, _sign in b.letters:
        if kind in (SIGMA, VIRT):
            for j in range(b.n):
                if perm[j] == i:
                    perm[j] = i + 1
                elif perm[j] == i + 1:
                    perm[j] = i
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
    (with flips: symmetric automorphisms), as a right action."""
    aut = FreeAut.identity(b.n)
    for letter in b.letters:
        aut = aut_compose(aut, letter_action(b.n, letter))
    return aut


def braid_equal(a: BraidWord, b: BraidWord) -> bool:
    """Decide equality in wB_n (extended: with flips).

    Raises on v-braids: the action is not known to be faithful there,
    see braid_distinct for the sound one-sided test.
    """
    if a.n != b.n:
        raise ValueError("strand count mismatch")
    if a.group == "v" or b.group == "v":
        raise ValueError("equality is only decidable for w-braids; "
                         "use braid_distinct for a sound v-braid refutation")
    if braid_skeleton(a) != braid_skeleton(b):
        return False
    return braid_action(a) == braid_action(b)


def braid_distinct(a: BraidWord, b: BraidWord) -> bool:
    """Sound one-sided test usable for v-braids: True means definitely
    distinct; False is inconclusive for v-braids."""
    if a.n != b.n:
        raise ValueError("strand count mismatch")
    return braid_skeleton(a) != braid_skeleton(b) or braid_action(a) != braid_action(b)


# --- structural operations ---------------------------------------------------

def braid_invert(b: BraidWord) -> BraidWord:
    """Reverse the word and invert each letter (s_i and rho_i are
    involutions)."""
    out = []
    for kind, i, sign in reversed(b.letters):
        out.append((kind, i, -sign if kind == SIGMA else sign))
    return BraidWord(b.n, tuple(out), b.extended, b.group)


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
    return BraidWord(b.n - 1, tuple(out), b.extended, b.group)


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
    return BraidWord(b.n + 1, tuple(out), b.extended, b.group)


# --- relation table ----------------------------------------------------------

_ARITH = {ast.Add: operator.add, ast.Sub: operator.sub}
_COMPARE = {ast.Lt: operator.lt, ast.LtE: operator.le, ast.Gt: operator.gt,
            ast.GtE: operator.ge, ast.Eq: operator.eq, ast.NotEq: operator.ne}


def _expression(text, lineno):
    """Compile an index or guard expression over i, j, n into a function
    of the variable dict.  Allowed: integers, the names i, j, n, binary
    + and -, abs(), parentheses, chained comparisons, and/or."""

    def build(node):
        kind = type(node)
        if kind is ast.Constant and type(node.value) is int:
            return lambda env: node.value
        if kind is ast.Name and node.id in ("i", "j", "n"):
            return lambda env: env[node.id]
        if kind is ast.BinOp and type(node.op) in _ARITH:
            op, a, b = _ARITH[type(node.op)], build(node.left), build(node.right)
            return lambda env: op(a(env), b(env))
        if (kind is ast.Call and type(node.func) is ast.Name
                and node.func.id == "abs" and len(node.args) == 1
                and not node.keywords):
            a = build(node.args[0])
            return lambda env: abs(a(env))
        if kind is ast.Compare and all(type(o) in _COMPARE for o in node.ops):
            ops = [_COMPARE[type(o)] for o in node.ops]
            terms = [build(t) for t in [node.left] + node.comparators]

            def compare(env):
                vals = [t(env) for t in terms]
                return all(op(x, y) for op, x, y in zip(ops, vals, vals[1:]))
            return compare
        if kind is ast.BoolOp:
            parts = [build(v) for v in node.values]
            join = all if type(node.op) is ast.And else any
            return lambda env: join(p(env) for p in parts)
        raise ValueError("line %d of the relation table: %r is not allowed "
                         "in %r" % (lineno, ast.dump(node), text))

    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        raise ValueError("line %d of the relation table: cannot parse %r"
                         % (lineno, text)) from None
    return build(tree.body)


def _template_word(text, lineno):
    """Tokens `s<e>`, `S<e>`, `v<e>`, `f<e>` as (kind, index function);
    `-` is the empty word."""
    return tuple((tok[0], _expression(tok[1:].strip("<>"), lineno))
                 for tok in text.split() if tok != "-")


def parse_relation_templates(text):
    """Parse the relation-table format: `name | guard | left | right` lines;
    blank lines and `#` comments are skipped.  Guards and indices are
    compiled once, here."""
    templates = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = [p.strip() for p in line.split("|")]
        if len(fields) != 4:
            raise ValueError("line %d of the relation table: expected "
                             "name | guard | left | right" % lineno)
        name, guard, left, right = fields
        templates.append((name, "j" in guard, _expression(guard, lineno),
                          _template_word(left, lineno),
                          _template_word(right, lineno)))
    return templates


@cache
def relation_templates():
    return parse_relation_templates(resources.files("wknots.data").joinpath(
        "wbraid_relations.txt").read_text())


@cache
def relation_table(n, extended=False):
    """All instances of the defining relations of wB_n (plus the flip
    relations when extended), as a tuple of (name, left BraidWord, right
    BraidWord)."""
    out = []
    for name, two_index, guard, left, right in relation_templates():
        if not extended and any(k == "f" for k, _ in left + right):
            continue
        for i in range(1, n + 1):
            for j in range(1, n + 1) if two_index else (None,):
                env = {"i": i, "j": j, "n": n}
                if not guard(env):
                    continue
                lw, rw = (word(n, " ".join(k + str(idx(env)) for k, idx in w),
                               extended=extended) for w in (left, right))
                out.append((f"{name}[i={i},j={j}]" if two_index
                            else f"{name}[i={i}]", lw, rw))
    return tuple(out)
