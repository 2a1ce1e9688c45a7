"""Words in the free group F_n and endomorphisms given by generator images.

Words are tuples of (generator index, +-1) kept in reduced form; free
reduction alone solves the word problem, so the reduced word is the
normal form.
"""

from __future__ import annotations


def word_reduce(letters, n=None):
    """Freely reduce a raw letter sequence into a FreeWord tuple.

    letters: iterable of (index, sign) with 1-based indices, sign +-1.
    """
    out = []
    for idx, sign in letters:
        if sign not in (1, -1):
            raise ValueError(f"bad exponent sign {sign}")
        if idx < 1 or (n is not None and idx > n):
            raise ValueError(f"generator index {idx} out of range")
        if out and out[-1][0] == idx and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((idx, sign))
    return tuple(out)


def word_inverse(w):
    return tuple((i, -s) for i, s in reversed(w))


def word_mul(u, v):
    return word_reduce(list(u) + list(v))


def word_to_text(w):
    if not w:
        return "e"
    return " ".join(f"x{i}" if s > 0 else f"x{i}^-1" for i, s in w)


def word_from_text(text, n=None):
    """Parse the token form `x1 x2^-1 x1`; `e` is the identity."""
    text = text.strip()
    if text in ("", "e"):
        return ()
    letters = []
    for tok in text.split():
        gen = tok.removesuffix("^-1")
        if not (gen.startswith("x") and gen[1:].isdecimal()):
            raise ValueError(f"bad word token {tok!r}: expected x<i> or "
                             "x<i>^-1")
        letters.append((int(gen[1:]), 1 if gen == tok else -1))
    return word_reduce(letters, n)


class FreeAut:
    """An endomorphism of F_n given by the images of the generators.

    All automorphisms produced by this toolkit are invertible (they come
    from braid words); invertibility of an arbitrary FreeAut is not
    checked at construction.
    """

    __slots__ = ("n", "images")

    def __init__(self, n, images):
        if len(images) != n:
            raise ValueError("need one image per generator")
        self.n = n
        self.images = tuple(word_reduce(w, n) for w in images)

    @classmethod
    def _reduced(cls, n, images):
        """A FreeAut on images already reduced and in range, stored as
        they are."""
        a = cls.__new__(cls)
        a.n, a.images = n, tuple(images)
        return a

    @classmethod
    def identity(cls, n):
        return cls(n, [((i, 1),) for i in range(1, n + 1)])

    def __eq__(self, other):
        return isinstance(other, FreeAut) and self.n == other.n and self.images == other.images

    def __hash__(self):
        return hash((self.n, self.images))

    def __repr__(self):
        imgs = ", ".join(f"x{i+1}->{word_to_text(w)}" for i, w in enumerate(self.images))
        return f"FreeAut({imgs})"


def aut_apply(a: FreeAut, w):
    """Substitute generator images into w and reduce."""
    out = []
    for idx, sign in w:
        if not 1 <= idx <= a.n:
            raise ValueError(f"generator index {idx} out of range for rank {a.n}")
        img = a.images[idx - 1]
        out.extend(img if sign > 0 else word_inverse(img))
    return word_reduce(out, a.n)


def aut_compose(a: FreeAut, b: FreeAut) -> FreeAut:
    """Apply a, then b (composition matching braid concatenation as a
    right action: x // (a*b) = (x // a) // b)."""
    if a.n != b.n:
        raise ValueError("rank mismatch")
    return FreeAut._reduced(a.n, [aut_apply(b, img) for img in a.images])


def aut_is_basis_conjugating(a: FreeAut):
    """Detect images of the form w_i xi_{pi(i)} w_i^{-1}.

    Returns (ok, pi, conjugators); pi maps 1..n -> 1..n and conjugator
    w_i satisfies image_i = w_i xi_{pi(i)} w_i^-1 when ok.
    """
    perm = {}
    conj = []
    for i, img in enumerate(a.images, start=1):
        if len(img) % 2 == 0:
            return False, None, None
        mid = len(img) // 2
        w = img[:mid]
        core = img[mid]
        if img[mid + 1:] != word_inverse(w) or core[1] != 1:
            return False, None, None
        perm[i] = core[0]
        conj.append(w)
    if sorted(perm.values()) != list(range(1, a.n + 1)):
        return False, None, None
    return True, perm, conj
