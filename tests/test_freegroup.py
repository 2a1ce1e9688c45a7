import random

import pytest

from wknots.freegroup import (FreeAut, word_reduce, word_from_text,
                              word_to_text, word_inverse, word_mul,
                              aut_apply, aut_compose,
                              aut_is_basis_conjugating)


def test_word_reduce_examples():
    assert word_reduce([(1, 1), (2, 1), (2, -1)]) == ((1, 1),)
    assert word_reduce([]) == ()
    assert word_reduce([(1, 1), (1, -1), (1, 1)]) == ((1, 1),)


def test_word_reduce_range_check():
    with pytest.raises(ValueError):
        word_reduce([(3, 1)], n=2)


def test_word_text_round_trip():
    for text in ("e", "x1", "x2^-1 x1 x2", "x1 x1 x3^-1"):
        assert word_to_text(word_from_text(text)) == text


def test_word_group_laws():
    rng = random.Random(1)
    for _ in range(50):
        ws = [word_reduce([(rng.randrange(1, 4), rng.choice((1, -1)))
                           for _ in range(rng.randrange(0, 6))])
              for _ in range(3)]
        a, b, c = ws
        assert word_mul(word_mul(a, b), c) == word_mul(a, word_mul(b, c))
        assert word_mul(a, word_inverse(a)) == ()


def test_aut_apply_examples():
    ident = FreeAut.identity(2)
    w = word_from_text("x1 x2")
    assert aut_apply(ident, w) == w
    swap = FreeAut(2, (word_from_text("x2"), word_from_text("x1")))
    assert aut_apply(swap, w) == word_from_text("x2 x1")
    conj = FreeAut(2, (word_from_text("x2 x1 x2^-1"), word_from_text("x2")))
    assert aut_apply(conj, word_from_text("x1 x1")) == \
        word_from_text("x2 x1 x1 x2^-1")


def test_aut_apply_range_check():
    for n, idx in ((2, 0), (3, -1), (2, -2), (2, 3)):
        with pytest.raises(ValueError, match="out of range"):
            aut_apply(FreeAut.identity(n), ((idx, 1),))


def test_aut_compose_laws():
    rng = random.Random(2)
    swap = FreeAut(2, (word_from_text("x2"), word_from_text("x1")))
    assert aut_compose(swap, swap) == FreeAut.identity(2)
    auts = []
    for _ in range(3):
        images = []
        for i in range(1, 4):
            conj = word_reduce([(rng.randrange(1, 4), rng.choice((1, -1)))
                                for _ in range(2)])
            images.append(word_mul(word_mul(word_inverse(conj), ((i, 1),)),
                                   conj))
        auts.append(FreeAut(3, tuple(images)))
    a, b, c = auts
    assert aut_compose(aut_compose(a, b), c) == \
        aut_compose(a, aut_compose(b, c))


def test_basis_conjugating_detection():
    conj = FreeAut(2, (word_from_text("x2 x1 x2^-1"), word_from_text("x2")))
    ok, pi, ws = aut_is_basis_conjugating(conj)
    assert ok and pi == {1: 1, 2: 2}
    sq = FreeAut(2, (word_from_text("x1 x1"), word_from_text("x2")))
    assert not aut_is_basis_conjugating(sq)[0]
