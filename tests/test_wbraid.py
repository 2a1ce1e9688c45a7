import copy
import hashlib
import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from wknots.freegroup import aut_apply, word_from_text, word_reduce
from wknots.wbraid import (FLIP, SIGMA, VIRT, BraidWord, word,
                           braid_from_text, braid_action, braid_skeleton,
                           braid_equal, braid_invert,
                           braid_delete_strand, braid_clone_strand,
                           relation_table)
from wknots.checks import random_braid

from oracles import braid_action_by_letters


def test_braid_text_round_trip():
    for text in ("n=2", "n=3\ns1 S2 v1", "n=4 extended\nf1 s3 v2 S1"):
        b = braid_from_text(text)
        assert braid_from_text(b.to_text()) == b


def test_braid_validation():
    with pytest.raises(ValueError):
        word(2, "s2")
    with pytest.raises(ValueError):
        word(3, "f1")  # flips need the extended flag
    for n in (0, -2):
        with pytest.raises(ValueError, match="needs a strand"):
            braid_from_text("n=%d" % n)


def test_braid_word_constructor():
    b = BraidWord(3, ((SIGMA, 1, 1), (VIRT, 2, 1)))
    assert (b.n, b.letters, b.extended) == (
        3, ((SIGMA, 1, 1), (VIRT, 2, 1)), False)
    b = BraidWord(n=2, letters=((FLIP, 2, 1),), extended=True)
    assert (b.n, b.extended) == (2, True)
    for args, kwargs in (((2,), {}), ((2, ()), {"group": "v"})):
        with pytest.raises(TypeError):
            BraidWord(*args, **kwargs)
    cases = [((0, ()), {}, "a braid needs a strand, not n=0"),
             ((2, ((SIGMA, 2, 1),)), {},
              "generator index 2 out of range for n=2"),
             ((2, ((FLIP, 1, 1),)), {}, "flip letters need the extended flag"),
             ((2, ((FLIP, 3, 1),)), {"extended": True},
              "flip index 3 out of range for n=2"),
             ((2, (("x", 1, 1),)), {}, "unknown letter kind x"),
             ((2, ((SIGMA, 1, 2),)), {}, "sigma letters carry sign +-1")]
    for args, kwargs, message in cases:
        with pytest.raises(ValueError) as err:
            BraidWord(*args, **kwargs)
        assert str(err.value) == message


def test_braid_word_is_an_immutable_value():
    a = BraidWord(3, ((SIGMA, 1, -1),))
    b = BraidWord(3, ((SIGMA, 1, -1),), False)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert hash(a) == hash((3, ((SIGMA, 1, -1),), False))
    for other in (BraidWord(3, ((SIGMA, 1, 1),)), BraidWord(4, a.letters),
                  BraidWord(3, a.letters, True)):
        assert a != other
    assert a.__eq__((3, a.letters, False)) is NotImplemented
    assert a != (3, a.letters, False) and a != "a"
    assert repr(a) == ("BraidWord(n=3, letters=(('s', 1, -1),), "
                       "extended=False)")
    for name in ("n", "letters", "extended", "other"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(a, name, 5)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(a, name)
    assert a == b and not hasattr(a, "other")
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_word_has_no_group_parameter():
    with pytest.raises(TypeError):
        word(2, "s1", group="v")


# (plain, extended) instance counts of relation_table(n), n = 1..8
RELATION_COUNTS = [(0, 1), (3, 10), (11, 29), (25, 59), (45, 100),
                   (71, 152), (103, 215), (141, 289)]


def test_relation_table_pinned():
    # names, words and order: check_word_problem draws relations by index
    assert [(len(relation_table(n)), len(relation_table(n, True)))
            for n in range(1, 9)] == RELATION_COUNTS
    h = hashlib.sha256()
    for n in range(1, 8):
        for extended in (False, True):
            for name, lhs, rhs in relation_table(n, extended):
                h.update(repr((name, lhs.to_text(), rhs.to_text())).encode())
    assert h.hexdigest() == ("6da91d3557804162d7fbb029d17d431d"
                             "586f96d3d5af7bc2d37d3b51bb90247e")


def test_relation_table_is_cached():
    assert relation_table(3) is relation_table(3)
    assert isinstance(relation_table(3, extended=True), tuple)


def test_generator_action_pinned():
    act = braid_action(word(2, "s1"))
    assert aut_apply(act, word_from_text("x1")) == word_from_text("x2")
    assert aut_apply(act, word_from_text("x2")) == \
        word_from_text("x2^-1 x1 x2")
    vact = braid_action(word(2, "v1"))
    assert aut_apply(vact, word_from_text("x1")) == word_from_text("x2")
    assert aut_apply(vact, word_from_text("x2")) == word_from_text("x1")


def test_action_respects_relations():
    for n in (2, 3, 4):
        for name, lhs, rhs in relation_table(n, extended=True):
            assert braid_action(lhs) == braid_action(rhs), name


@st.composite
def braid_words(draw):
    """w- and extended braids on 1-6 strands, up to 24 letters."""
    n = draw(st.integers(1, 6))
    extended = draw(st.booleans())
    kinds = ([SIGMA, VIRT] if n > 1 else []) + ([FLIP] if extended else [])
    letters = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=24)
                     if kinds else st.just([])):
        if kind == FLIP:
            letters.append((FLIP, draw(st.integers(1, n)), 1))
        else:
            letters.append((kind, draw(st.integers(1, n - 1)),
                            draw(st.sampled_from((1, -1)))
                            if kind == SIGMA else 1))
    return BraidWord(n, tuple(letters), extended)


@settings(max_examples=300, deadline=None)
@given(braid_words())
@example(BraidWord(1, ()))
@example(BraidWord(4, ()))
@example(BraidWord(1, ((FLIP, 1, 1),), extended=True))
@example(word(3, "f3 s2 S1 f3 v2", extended=True))
def test_action_matches_letter_by_letter_fold(b):
    assert braid_action(b) == braid_action_by_letters(b)


def test_word_problem_basics():
    a = word(3, "s1 s2 s1")
    b = word(3, "s2 s1 s2")
    assert braid_equal(a, b)
    assert braid_equal(word(3, "s1 S1 v2 v2"), word(3, ""))
    assert not braid_equal(word(3, "s1"), word(3, "s2"))
    assert not braid_equal(word(2, "s1"), word(2, "S1"))
    # the first images agree (x1 is fixed by both); a later one differs
    assert not braid_equal(word(3, "s2"), word(3, ""))
    # overcrossings commute
    assert braid_equal(word(3, "s1 s2 v1"), word(3, "v2 s1 s2"))


def test_undercrossings_commute_fails():
    # the UC counterpart of the OC relation is not a w-braid relation
    lhs = word(3, "v1 s2 s1")
    rhs = word(3, "s2 s1 v2")
    assert braid_action(lhs) != braid_action(rhs)
    assert not braid_equal(lhs, rhs)


def test_braid_invert():
    rng = random.Random(9)
    for _ in range(30):
        b = random_braid(rng, 4, 6)
        assert braid_equal(b * braid_invert(b), word(4, ""))


def test_skeleton():
    assert braid_skeleton(word(3, "s1 s2")) == (3, 1, 2)
    assert braid_skeleton(word(2, "s1 s1")) == (1, 2)


def random_extended_braid(rng, n, length):
    """An extended braid word: each letter a flip with probability 0.2, a
    virtual crossing with probability 0.2, and a crossing otherwise (on
    one strand, always a flip)."""
    letters = []
    for _ in range(length):
        x = rng.random()
        if x < 0.2 or n == 1:
            letters.append((FLIP, rng.randrange(1, n + 1), 1))
        elif x < 0.4:
            letters.append((VIRT, rng.randrange(1, n), 1))
        else:
            letters.append((SIGMA, rng.randrange(1, n), rng.choice((1, -1))))
    return BraidWord(n, tuple(letters), extended=True)


def test_skeleton_read_off_the_action():
    # x_i's image has exponent sum +-1 at x_{skeleton(i)} and 0 elsewhere,
    # so equal actions force equal skeletons
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randrange(1, 6)
        b = random_extended_braid(rng, n, rng.randrange(0, 9))
        pi = braid_skeleton(b)
        for i, img in enumerate(braid_action(b)):
            exps = [0] * (n + 1)
            for g, s in img:
                exps[g] += s
            assert abs(exps[pi[i]]) == 1 and sum(map(abs, exps)) == 1, \
                b.to_text()
    # v1 conjugates no image, yet its images x2, x1 tell it from e
    assert not braid_equal(word(2, "v1"), word(2, ""))


def strand_cases(seed, count, draw_braid):
    """(braid, strand) pairs: a braid on 2-4 strands with 0-6 letters, and
    one of its strands."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(2, 5)
        b = draw_braid(rng, n, rng.randrange(0, 7))
        yield b, rng.randrange(1, n + 1)


def flips(b):
    return sum(kind == FLIP for kind, _, _ in b.letters)


def assert_deletion_commutes(b, k):
    """Deleting strand k commutes with the action: kill the deleted
    generator on each side and renumber."""
    def project(w, kill, n):
        out = []
        for i, s in w:
            if i == kill:
                continue
            out.append((i - 1 if i > kill else i, s))
        return word_reduce(out, n - 1)

    n, pi = b.n, braid_skeleton(b)
    small = braid_delete_strand(b, k)
    act, sact = braid_action(b), braid_action(small)
    for j in range(1, n + 1):
        if j == k:
            continue
        jj = j - 1 if j > k else j
        lhs = aut_apply(sact, ((jj, 1),))
        rhs = project(aut_apply(act, ((j, 1),)), pi[k - 1], n)
        assert lhs == rhs, (b, k)
    return small


def assert_cloning_commutes(b, k):
    """Cloning strand k commutes with the action after the doubling
    substitution on both sides."""
    def double(w, k, n):
        out = []
        for i, s in w:
            i2 = i + 1 if i > k else i
            if i == k:
                if s > 0:
                    out.extend([(k, 1), (k + 1, 1)])
                else:
                    out.extend([(k + 1, -1), (k, -1)])
            else:
                out.append((i2, s))
        return word_reduce(out, n + 1)

    n, pi = b.n, braid_skeleton(b)
    big = braid_clone_strand(b, k)
    act, bact = braid_action(b), braid_action(big)
    # source doubling then big action equals action then target doubling
    for j in range(1, n + 1):
        src = double(((j, 1),), k, n)
        lhs = aut_apply(bact, src)
        rhs = double(aut_apply(act, ((j, 1),)), pi[k - 1], n)
        assert lhs == rhs, (b, k)
    return big


def test_delete_strand_compatible_with_action():
    for b, k in strand_cases(10, 150, random_braid):
        assert_deletion_commutes(b, k)


def test_clone_strand_compatible_with_action():
    for b, k in strand_cases(11, 150, random_braid):
        assert_cloning_commutes(b, k)


def test_delete_strand_compatible_with_action_on_extended_braids():
    # some deletions drop a flip of the deleted strand
    dropped = 0
    for b, k in strand_cases(6, 300, random_extended_braid):
        dropped += flips(assert_deletion_commutes(b, k)) < flips(b)
    assert dropped


def test_clone_strand_compatible_with_action_on_extended_braids():
    # some clones double a flip of the cloned strand
    doubled = 0
    for b, k in strand_cases(5, 300, random_extended_braid):
        doubled += flips(assert_cloning_commutes(b, k)) > flips(b)
    assert doubled
