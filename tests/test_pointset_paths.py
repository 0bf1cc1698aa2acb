"""The two caches under the point-set hot path, against what they replace.

``RationalEnum`` and ``SignedRationalEnum`` keep one pair of integer
tables, numerators and denominators, and divide them in numpy for their
float values; each must equal ``float(Fraction(p, q))`` bit for bit.
``periodic.reduce`` memoizes normal forms by expression; a memoized result
must equal a fresh one, and ``TooComplex`` must never be memoized.  The
SHA-256 pins in ``test_dispatch_paths.py`` cover the bytes of the point sets
built on both.
"""
import threading
from fractions import Fraction
from itertools import count
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealgames import periodic
from idealgames import seqspace as sq
from idealgames import setexpr as sx

N_MAX = 200_001


def _enumerated(n: int) -> list[Fraction]:
    """The first n reduced fractions of (0,1) by denominator, computed independently."""
    out: list[Fraction] = []
    for q in count(2):
        for p in range(1, q):
            if gcd(p, q) == 1:
                out.append(Fraction(p, q))
                if len(out) == n:
                    return out


REFERENCE = _enumerated(N_MAX)
REFERENCE_FLOATS = np.array([float(q) for q in REFERENCE])


def _expected_values(limit: int, signed: bool) -> np.ndarray:
    if signed:
        terms = [REFERENCE[(n - 1) // 2] * (-1) ** (n + 1) for n in range(1, limit + 1)]
    else:
        terms = REFERENCE[:limit]
    return np.array([np.nan] + [float(t) for t in terms])


_EMPTY_TABLES = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


@pytest.fixture
def fresh_rationals(monkeypatch):
    """An empty enumeration, so growth starts from the first term."""
    monkeypatch.setattr(sq, "_RATIONALS", _EMPTY_TABLES)


# ---------------------------------------------------------------------------
# Rational enumerations


def _table_prefix(n: int) -> tuple[list[Fraction], bytes]:
    """The first n table entries as Fractions and as float64 bytes."""
    nums, dens = sq._rational_table(n)
    nums, dens = nums[:n], dens[:n]
    return list(map(Fraction, nums.tolist(), dens.tolist())), (nums / dens).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 99_999, N_MAX - 1, N_MAX])
def test_float_array_matches_fraction_conversion(n):
    fractions, floats = _table_prefix(n)
    assert floats == REFERENCE_FLOATS[:n].tobytes()
    assert fractions == REFERENCE[:n]


def test_float_array_grown_one_term_at_a_time(fresh_rationals):
    for n in range(1, 3001):
        assert sq.RationalEnum().term(n) == REFERENCE[n - 1]
    fractions, floats = _table_prefix(3000)
    assert floats == REFERENCE_FLOATS[:3000].tobytes()
    assert fractions == REFERENCE[:3000]


def test_float_array_is_read_only():
    for table in sq._rational_table(10):
        with pytest.raises(ValueError):
            table[0] = 0


@pytest.mark.parametrize("limit", [1, 2, 9_999, 10_000, N_MAX - 1, N_MAX])
@pytest.mark.parametrize("signed", [False, True])
def test_values_match_fraction_conversion(limit, signed):
    x = sq.SignedRationalEnum() if signed else sq.RationalEnum()
    assert x.values(limit).tobytes() == _expected_values(limit, signed).tobytes()


@pytest.mark.parametrize("n", [1, 2, 10**5, 10**5 + 1])
def test_term_is_the_exact_fraction(n):
    assert sq.RationalEnum().term(n) == REFERENCE[n - 1]
    q = REFERENCE[(n + 1) // 2 - 1]
    assert sq.SignedRationalEnum().term(n) == (q if n % 2 else -q)


def test_term_below_one_raises():
    with pytest.raises(ValueError):
        sq.RationalEnum().term(0)


def test_two_threads_agree_with_serial(fresh_rationals):
    limits = (150_001, 60_000)
    serial = [sq.RationalEnum().values(limit).tobytes() for limit in limits]
    for _ in range(3):
        sq._RATIONALS = _EMPTY_TABLES
        results: dict[int, bytes] = {}
        start = threading.Barrier(len(limits))

        def run(limit):
            start.wait()
            results[limit] = sq.RationalEnum().values(limit).tobytes()

        threads = [threading.Thread(target=run, args=(limit,)) for limit in limits]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [results[limit] for limit in limits] == serial


# ---------------------------------------------------------------------------
# Memoized normal form

_leaf = st.one_of(
    st.lists(st.integers(1, 60), max_size=4).map(lambda v: sx.Finite(tuple(v))),
    st.tuples(st.integers(1, 20), st.integers(1, 8)).map(
        lambda t: sx.ArithProg(*t)
    ),
    st.integers(1, 40).map(sx.Tail),
    st.sampled_from([
        sx.IntervalSchedule(sx.generator("odd2"), sx.EVENS),
        sx.IntervalSchedule(sx.generator("linear"), sx.Finite((2, 5))),
        sx.IntervalSchedule(sx.generator("pow2"), sx.EVENS),  # not eventually periodic
    ]),
)

_exprs = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: sx.Union(*t)),
        st.tuples(inner, inner).map(lambda t: sx.Inter(*t)),
        inner.map(sx.Compl),
    ),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(_exprs)
def test_memoized_reduce_matches_fresh(s):
    cached = periodic.reduce(s)
    assert periodic.reduce(s) is cached
    periodic.reduce.cache_clear()
    assert periodic.reduce.__wrapped__(s) == cached


def test_too_complex_is_never_memoized():
    # lcm of two primes near 10^6 is over MAX_PERIOD
    s = sx.Union(sx.ArithProg(1, 999_983), sx.ArithProg(1, 999_979))
    periodic.reduce.cache_clear()
    with pytest.raises(periodic.TooComplex):
        periodic.reduce(s)
    with pytest.raises(periodic.TooComplex):
        periodic.reduce(s)
    # only the two progressions are kept
    assert periodic.reduce.cache_info().currsize == 2
