import math
import threading
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealgames import setexpr as sx


def brute_members(s, limit):
    return [n for n in range(1, limit + 1) if s.member(n)]


class TestMember:
    def test_arith_prog_even(self):
        assert sx.member(sx.ArithProg(2, 2), 10) is True

    def test_complement(self):
        assert sx.member(sx.Compl(sx.ArithProg(2, 2)), 10) is False

    def test_interval_schedule_pow2(self):
        # oracle: expand [2,4) u [4,8) u [8,16) ... directly
        s = sx.IntervalSchedule(sx.generator("pow2"), sx.Tail(1))
        expanded = set()
        for j in range(1, 6):
            expanded.update(range(2**j, 2 ** (j + 1)))
        for n in range(1, 40):
            assert s.member(n) == (n in expanded)
        assert s.member(5) is True

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sx.member(sx.Tail(1), 0)


class TestPrefixCount:
    def test_finite(self):
        assert sx.prefix(sx.Finite((3, 7)), 10) == [3, 7]

    def test_odds(self):
        assert sx.prefix(sx.ArithProg(1, 2), 6) == [1, 3, 5]

    def test_inter_tail(self):
        s = sx.Inter(sx.ArithProg(2, 2), sx.Tail(5))
        # oracle: filter 1..10 by both predicates
        expected = [n for n in range(1, 11) if n % 2 == 0 and n >= 5]
        assert sx.prefix(s, 10) == expected == [6, 8, 10]

    def test_count_evens(self):
        assert len(sx.prefix(sx.ArithProg(2, 2), 100)) == 50

    def test_count_empty(self):
        assert len(sx.prefix(sx.Finite(()), 100)) == 0

    def test_count_schedule_truncated(self):
        # oracle: enumerate [2,4) u [4,8) u [8,16) clipped at 15
        s = sx.IntervalSchedule(sx.generator("pow2"), sx.Tail(1))
        expected = len([n for n in range(1, 16) if 2 <= n])
        assert len(sx.prefix(s, 15)) == expected == 14


class TestGenerators:
    def test_exp_e(self):
        g = sx.generator("expE")
        assert [g.value(n) for n in range(1, 4)] == [
            math.ceil(math.e), math.ceil(math.e**2), math.ceil(math.e**3)]

    def test_esum_recurrence(self):
        g = sx.generator("esum")
        vals = [g.value(n) for n in range(1, 5)]
        assert vals[0] == 2
        for a, b in zip(vals, vals[1:]):
            assert b == math.ceil(math.e * a) + 1

    def test_first_index_at_least(self):
        g = sx.generator("pow2")
        assert g.first_index_at_least(5) == 3
        lin = sx.generator("linear")
        assert lin.first_index_at_least(17) == 17

    def test_unknown_generator(self):
        with pytest.raises(Exception):
            sx.generator("nope")


_leaf = st.one_of(
    st.lists(st.integers(1, 200), max_size=5).map(lambda v: sx.Finite(tuple(v))),
    st.tuples(st.integers(1, 30), st.integers(1, 10)).map(
        lambda t: sx.ArithProg(*t)
    ),
    st.integers(1, 100).map(sx.Tail),
)


def _exprs(depth=2):
    return st.recursive(
        _leaf,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: sx.Union(*t)),
            st.tuples(inner, inner).map(lambda t: sx.Inter(*t)),
            inner.map(sx.Compl),
        ),
        max_leaves=6,
    )


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(_exprs(), _exprs(), st.integers(1, 10_000))
    def test_de_morgan(self, a, b, n):
        lhs = sx.Compl(sx.Union(a, b)).member(n)
        rhs = sx.Inter(sx.Compl(a), sx.Compl(b)).member(n)
        assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(_exprs(), st.integers(1, 300), st.integers(0, 300))
    def test_prefix_monotone(self, s, n1, extra):
        p1 = sx.prefix(s, n1)
        p2 = sx.prefix(s, n1 + extra)
        assert p2[: len(p1)] == p1

    @settings(max_examples=40, deadline=None)
    @given(_exprs(), st.integers(1, 500))
    def test_count_matches_prefix_and_member(self, s, limit):
        p = sx.prefix(s, limit)
        assert p == brute_members(s, limit)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 400))
    def test_indicator_matches_member_on_schedules(self, limit):
        for gen in ("pow2", "expE", "linear", "esum", "odd2"):
            for sel in (sx.Tail(1), sx.ArithProg(2, 2), sx.Finite((1, 3, 4))):
                s = sx.IntervalSchedule(sx.generator(gen), sel)
                ind = sx.indicator(s, limit)
                assert [int(v) for v in ind[1:]] == [
                    int(s.member(n)) for n in range(1, limit + 1)
                ]


class TestIntervalHelper:
    def test_interval_expr(self):
        s = sx.interval(5, 9)
        assert brute_members(s, 20) == [5, 6, 7, 8, 9]

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            sx.interval(5, 4)


class TestMemoizationThreadSafety:
    def test_parallel_value_queries(self, monkeypatch):
        # esum, a recurrence, is the one generator that keeps its terms; a
        # fresh copy makes the threads walk them together.  A ceil that
        # sleeps hands the interpreter to another thread inside every step
        # of the walk, so without the lock two threads append a term twice.
        expected = [2]
        while len(expected) < 40:
            expected.append(math.ceil(sx.E_EXACT * expected[-1]) + 1)

        def slow_ceil(v):
            time.sleep(0.001)
            return math.ceil(v)

        monkeypatch.setattr(sx, "math", types.SimpleNamespace(ceil=slow_ceil))
        g = sx.Generator("esum", sx._esum())
        results = []
        start = threading.Barrier(4)

        def worker():
            start.wait(timeout=60)
            results.append([g.value(i) for i in range(1, 41)])

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 4
