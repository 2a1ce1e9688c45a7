"""Words in the free group F_n and endomorphisms given by generator images.

Words are tuples of (generator index, +-1) kept in reduced form; free
reduction alone solves the word problem, so the reduced word is the
normal form.  An endomorphism of F_n is the tuple of its n reduced
generator images, x_i's at index i - 1, so n is its length and two
endomorphisms are equal exactly when the tuples are.
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
    """Parse the token form `x1 x2^-1 x1`; `e` is the empty word."""
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


def aut_apply(a, w):
    """Substitute the generator images a (a tuple of n reduced words, the
    image of x_i at index i - 1) into w and reduce."""
    out = []
    for idx, sign in w:
        if not 1 <= idx <= len(a):
            raise ValueError(f"generator index {idx} out of range for rank {len(a)}")
        img = a[idx - 1]
        out.extend(img if sign > 0 else word_inverse(img))
    return word_reduce(out, len(a))


def aut_compose(a, b):
    """Apply a, then b (composition matching braid concatenation as a
    right action: x // (a*b) = (x // a) // b)."""
    if len(a) != len(b):
        raise ValueError("rank mismatch")
    return tuple(aut_apply(b, img) for img in a)


def aut_is_basis_conjugating(a):
    """The tuple (pi(1), .., pi(n)) if each image is w_i x_{pi(i)} w_i^-1
    for some word w_i and pi permutes 1..n; otherwise None."""
    pi = []
    for img in a:
        mid = len(img) // 2
        if len(img) % 2 == 0 or img[mid][1] != 1 \
                or img[mid + 1:] != word_inverse(img[:mid]):
            return None
        pi.append(img[mid][0])
    return tuple(pi) if sorted(pi) == list(range(1, len(a) + 1)) else None
