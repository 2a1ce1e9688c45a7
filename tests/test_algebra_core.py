import math
import random

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wknots.rational import Rat, rat
from wknots.rings import (LaurentPoly, TruncSeries, laurent_at_exp,
                          laurent_normalize, series_log)
from wknots.linalg import SparseEchelon, integral

from oracles import FractionEchelon, series_log_products


def test_laurent_normalize_examples():
    p = LaurentPoly({1: 1, 0: -1, -1: 1})  # X - 1 + X^-1
    assert laurent_normalize(p) == LaurentPoly({0: 1, 1: -1, 2: 1})
    assert laurent_normalize(LaurentPoly({0: 1})) == LaurentPoly({0: 1})
    assert laurent_normalize(LaurentPoly({3: -1})) == LaurentPoly({0: 1})


def test_laurent_normalize_zero_rejected():
    with pytest.raises(ValueError):
        laurent_normalize(LaurentPoly({}))


def test_laurent_normalize_unit_orbit():
    rng = random.Random(5)
    for _ in range(50):
        p = LaurentPoly({e: rng.randrange(-4, 5)
                         for e in range(rng.randrange(1, 5))})
        if p.is_zero():
            continue
        base = laurent_normalize(p)
        for k in (-2, 1, 3):
            for sgn in (1, -1):
                q = p * LaurentPoly({k: sgn})
                assert laurent_normalize(q) == base
        assert laurent_normalize(base) == base


def test_series_log_mercator():
    s = TruncSeries.const(3, 1) + TruncSeries.x(3)
    l = series_log(s)
    assert [l[k] for k in range(4)] == [rat(0), rat(1),
                                        rat(Fraction(-1, 2)),
                                        rat(Fraction(1, 3))]


def test_exp_log_round_trips():
    # log(e^{kx}) = kx, and log turns products into sums
    rng = random.Random(11)
    for _ in range(20):
        d = rng.randrange(2, 7)
        k = rng.randrange(-3, 4)
        assert series_log(laurent_at_exp(LaurentPoly({k: 1}), d)) == \
            k * TruncSeries.x(d)
        u, v = (TruncSeries.const(d, 1) + TruncSeries(
            d, {e: rat(rng.randrange(-3, 4)) for e in range(1, d + 1)})
            for _ in range(2))
        assert series_log(u * v) == series_log(u) + series_log(v)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 9).flatmap(lambda d: st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    min_size=d, max_size=d)))
def test_series_log_recurrence_matches_products(tail):
    s = TruncSeries(len(tail), [1] + tail)
    assert series_log(s).coeffs == series_log_products(s).coeffs


def test_constants_hash_as_their_values():
    for c in (0, 3, -7):
        p, t = LaurentPoly.const(c), TruncSeries.const(4, c)
        assert p == c and hash(p) == hash(c)
        assert t == c and hash(t) == hash(c)
        assert len({p, c}) == 1 and c in {p} and p in {c}
        assert len({t, c}) == 1 and c in {t} and t in {c}
    assert hash(LaurentPoly()) == hash(0)
    assert hash(TruncSeries.const(2, 5)) == hash(TruncSeries.const(6, 5))
    assert hash(TruncSeries.const(3, rat(1, 2))) == hash(rat(1, 2))
    # equal non-constants still hash alike
    assert hash(LaurentPoly({1: 2, -1: 3})) == hash(LaurentPoly({-1: 3, 1: 2}))
    assert hash(TruncSeries.x(3) + 1) == hash(1 + TruncSeries.x(3))


def test_series_domain_errors():
    with pytest.raises(ValueError):
        series_log(TruncSeries.x(3))


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(30):
        ps = [LaurentPoly({e: rng.randrange(-3, 4) for e in
                           range(rng.randrange(-2, 1), rng.randrange(1, 4))})
              for _ in range(3)]
        a, b, c = ps
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        d = 4
        ss = [TruncSeries(d, {k: rat(rng.randrange(-3, 4))
                              for k in range(d + 1)}) for _ in range(3)]
        a, b, c = ss
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_integral_scales_to_one_denominator():
    assert integral({0: 2, 3: -5}) == ({0: 2, 3: -5}, 1)
    assert integral({0: rat(1, 2), 1: rat(-2, 3)}) == ({0: 3, 1: -4}, 6)
    assert integral({0: rat(3, 4), 1: 2, 2: rat(-1, 6)}) == (
        {0: 9, 1: 24, 2: -2}, 12)
    assert integral({0: 0, 1: rat(0), 2: rat(1, 3)}) == ({2: 1}, 3)
    assert integral({}) == ({}, 1)
    row, den = integral({0: rat(5, 2), 1: rat(4, 1)})
    assert all(type(v) is int for v in row.values()) and type(den) is int


def _oracle_rank(rows, dim):
    """Fraction-free Gaussian elimination over integers."""
    mat = [[int(r.get(c, 0)) for c in range(dim)] for r in rows]
    rank, prev = 0, 1
    for col in range(dim):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, len(mat)):
            for j in range(col + 1, dim):
                mat[i][j] = (mat[rank][col] * mat[i][j]
                             - mat[i][col] * mat[rank][j]) // prev
            mat[i][col] = 0
        prev = mat[rank][col]
        rank += 1
    return rank


def test_echelon_rank_against_fraction_free_oracle():
    rng = random.Random(3)
    dim = 20
    rows = []
    for _ in range(100):
        rows.append({c: rat(rng.randrange(-2, 3))
                     for c in rng.sample(range(dim), 4)})
    rows = [{c: v for c, v in r.items() if v} for r in rows]
    ech = SparseEchelon()
    for r in rows:
        ech.add(integral(r)[0])
    assert ech.rank == _oracle_rank(rows, dim)
    for r in rows:
        assert not ech.reduce(*integral(r))


def test_echelon_rank_order_invariant():
    rng = random.Random(4)
    rows = [{c: rat(rng.randrange(-2, 3)) for c in rng.sample(range(8), 3)}
            for _ in range(15)]
    rows = [{c: v for c, v in r.items() if v} for r in rows]
    ranks = set()
    for _ in range(5):
        rng.shuffle(rows)
        ech = SparseEchelon()
        for r in rows:
            ech.add(integral(r)[0])
        ranks.add(ech.rank)
    assert len(ranks) == 1


def test_echelon_insertion_order_invariant():
    # the RREF is canonical: generation, ascending, descending (highest
    # pivot first, as QuotientSpace inserts) and shuffled orders store the
    # same rows under the same column index, the all-Rat oracle's RREF
    rng = random.Random(16)
    rows = [{c: rng.choice((-3, -2, -1, 1, 1, 2, 3))
             for c in rng.sample(range(30), rng.randint(1, 5))}
            for _ in range(80)]
    keyed = sorted(rows, key=lambda r: sorted(r.items()))
    shuffled = rows[:]
    rng.shuffle(shuffled)
    oracle = FractionEchelon()
    for r in rows:
        oracle.add(r)
    results = []
    for order in (rows, keyed, keyed[::-1], shuffled):
        ech = SparseEchelon()
        for r in order:
            ech.add(r)
        assert {p: {c: Rat(v, r[p]) for c, v in r.items()}
                for p, r in ech.rows.items()} == oracle.rows
        results.append((ech.rows, {c: qs for c, qs in ech.holders.items()
                                   if qs}))
    assert all(res == results[0] for res in results)


def test_echelon_add_takes_int_rows():
    ech = SparseEchelon()
    assert ech.add({0: 2, 1: 0, 3: -4}) and ech.rows == {0: {0: 1, 3: -2}}
    with pytest.raises(TypeError):
        ech.add({1: rat(1, 2), 2: 1})


def test_echelon_reduce_takes_int_rows():
    ech = SparseEchelon()
    ech.add({0: 2, 3: -4})
    # zero values are dropped, and only the final values become Rat
    got = ech.reduce({0: 3, 1: 0, 2: 5, 3: 0}, 4)
    assert got == {2: rat(5, 4), 3: rat(3, 2)}
    assert all(type(v) is Rat for v in got.values())
    assert ech.reduce({1: 0, 2: 0}) == {}


_INTEGERS = st.integers(-4, 4).filter(bool)
_RATIONALS = st.builds(rat, _INTEGERS, st.integers(1, 4))


@st.composite
def sparse_rows(draw):
    """Rows over 10 columns: integer rows (whose pivots are often not ±1),
    rational rows, or mixed ones; values passed as int or ``Rat``."""
    kind = draw(st.sampled_from(("integer", "rational", "mixed")))
    values = {"integer": _INTEGERS, "rational": _RATIONALS,
              "mixed": _INTEGERS | _RATIONALS}[kind]
    rows = []
    for _ in range(draw(st.integers(1, 14))):
        cols = draw(st.lists(st.integers(0, 9), min_size=1, max_size=5,
                             unique=True))
        row = {}
        for c in cols:
            v = draw(values)
            row[c] = rat(v) if draw(st.booleans()) else v
        rows.append(row)
    return rows


@settings(max_examples=150, deadline=None)
@given(sparse_rows(), sparse_rows())
def test_echelon_matches_fraction_oracle(rows, probes):
    ech, oracle = SparseEchelon(), FractionEchelon()
    for row in rows:
        assert ech.add(integral(row)[0]) == oracle.add(dict(row))
        # each stored row over its pivot entry is the RREF row
        assert {p: {c: Rat(v, r[p]) for c, v in r.items()}
                for p, r in ech.rows.items()} == oracle.rows
        # stored rows: primitive int rows with a positive pivot entry
        for p, r in ech.rows.items():
            assert all(type(v) is int for v in r.values())
            assert math.gcd(*r.values()) == 1 and r[p] > 0
        # the column index lists pivot q under column c exactly when
        # c is off the pivot of row q
        columns = set(ech.holders).union(*ech.rows.values())
        for c in columns:
            assert ech.holders.get(c, set()) == {
                q for q, r in ech.rows.items() if c != q and c in r}
    assert ech.rank == oracle.rank
    assert ech.pivots() == oracle.pivots()
    for row in rows + probes:
        want = oracle.reduce(dict(row))
        got = ech.reduce(*integral(row))
        assert got == want
        assert all(type(v) is Rat for v in got.values())
        # the same row scaled to ints over a common denominator (the least
        # one and a multiple of it), divided back by reduce
        lcd = math.lcm(*(rat(v).denominator for v in row.values()))
        for den in (lcd, 6 * lcd):
            got = ech.reduce({c: int(v * den) for c, v in row.items()}, den)
            assert got == want
            assert all(type(v) is Rat for v in got.values())
