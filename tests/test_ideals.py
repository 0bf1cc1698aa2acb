import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealgames import dsl, ideals as il, setexpr as sx
from idealgames.errors import HorizonTooSmall, OutsideFragment

SQUARES = sx.Finite(tuple(k * k for k in range(1, 101)))


class TestSymbolic:
    def test_evens_not_density0(self):
        v = il.classify_symbolic(il.density0(), sx.ArithProg(2, 2))
        assert v.value is il.VerdictValue.NOT_IN

    def test_evens_in_fubini(self):
        v = il.classify_symbolic(il.fubini_odd(), sx.ArithProg(2, 2))
        assert v.value is il.VerdictValue.IN

    def test_finite_summable(self):
        v = il.classify_symbolic(il.summable(), sx.Finite(tuple(range(1, 20))))
        assert v.value is il.VerdictValue.IN

    def test_cofinite_not_fin(self):
        v = il.classify_symbolic(il.fin(), sx.Tail(10))
        assert v.value is il.VerdictValue.NOT_IN

    def test_geometric_schedule_decided_by_bounds(self):
        s = sx.IntervalSchedule(sx.generator("pow2"), sx.EVENS)
        for ideal in il.BUILTINS:
            v = il.classify_symbolic(ideal, s)
            assert v.value is il.VerdictValue.NOT_IN

    def test_outside_fragment(self):
        s = sx.Compl(sx.IntervalSchedule(sx.generator("pow2"), sx.EVENS))
        with pytest.raises(OutsideFragment):
            il.classify_symbolic(il.density0(), s)

    def test_density_below_the_smallest_float_is_not_zero(self):
        # ap(1, 10^400) has density 10^-400, which rounds to 0.0; its part in
        # the even-indexed pow2 blocks has upper density >= 1/(2 * 10^400).
        s = dsl.parse_set(f"inter(ap(1,{10**400}),compl(isch(pow2,ap(1,2))))")
        with pytest.raises(OutsideFragment):
            il.classify_symbolic(il.density0(), s)

    def test_fin_size_of_a_far_finite_set(self):
        # 2^30000 has more digits than str() prints by default.
        cases = {
            "isch(pow2,{3})": "finite, size=8",
            "isch(pow2,{30000})": "finite, size>=2^30000",
            "isch(pow2,compl(tail(20000)))": "finite, size>=2^19999",
        }
        for text, evidence in cases.items():
            v = il.classify(il.fin(), dsl.parse_set(text))
            assert (v.value, v.evidence) == (il.VerdictValue.IN, evidence), text

    def test_verdict_serialization(self):
        v = il.classify_symbolic(il.fin(), sx.Finite((1, 2)))
        d = v.as_dict()
        assert set(d) == {"value", "mode", "evidence"}
        assert d["value"] == "InIdeal" and d["mode"] == "Symbolic"


class TestHorizon:
    def test_squares_density_in(self):
        # oracle: count of squares <= 1e4 is 100; dhat = max count/n on [N/2, N]
        counts = np.cumsum(sx.indicator(SQUARES, 10_000))
        dhat = max(counts[n] / n for n in range(5000, 10_001))
        assert dhat < 0.02
        v = il.classify_horizon(il.density0(), SQUARES, 10_000)
        assert v.value is il.VerdictValue.IN
        assert f"{dhat:.6g}"[:6] in v.evidence

    def test_evens_reciprocal_sum_not_in(self):
        # oracle: harmonic partial sum over evens = H(5000)/2 > 4
        s = sum(1.0 / a for a in range(2, 10_001, 2))
        assert s > 4.0
        v = il.classify_horizon(il.summable(), sx.ArithProg(2, 2), 10_000)
        assert v.value is il.VerdictValue.NOT_IN

    def test_odds_not_fin(self):
        v = il.classify_horizon(il.fin(), sx.ArithProg(1, 2), 1000)
        assert v.value is il.VerdictValue.NOT_IN
        assert "count=500" in v.evidence

    def test_small_horizon_rejected(self):
        with pytest.raises(HorizonTooSmall):
            il.classify_horizon(il.fin(), sx.Tail(1), 99)

    def test_summable_in_needs_certificate(self):
        v = il.classify_horizon(il.summable(), sx.Finite((2, 3)), 100)
        assert v.value is il.VerdictValue.IN
        # no certificate for an infinite set below the bound: undecided
        v2 = il.classify_horizon(il.summable(), sx.ArithProg(1, 7), 200)
        assert v2.value is il.VerdictValue.UNDECIDED


def _members(horizon: int, *members: int) -> np.ndarray:
    ind = np.zeros(horizon + 1, dtype=bool)
    ind[list(members)] = True
    return ind


def _counts(ideal, ind, horizon, tail_upper=None):
    v = il.classify_horizon_counts(ideal, ind, horizon, tail_upper)
    assert v.mode == f"Horizon({horizon})"
    return v.value, v.evidence


class TestHorizonBoundaries:
    """Each threshold is strict on the side the docs state."""

    def test_dhat_on_either_threshold_is_undecided(self):
        assert _counts(il.density0(), _members(100, 50), 100) == (
            il.VerdictValue.UNDECIDED, "dhat=0.02")
        assert _counts(il.density0(), _members(100, 1, 2, 3, 4, 50), 100) == (
            il.VerdictValue.UNDECIDED, "dhat=0.1")

    @pytest.mark.parametrize("ideal, stat", [(il.fin(), "count"),
                                             (il.fubini_odd(), "odd-count")])
    def test_counts_read_not_in_from_the_cutoff(self, ideal, stat):
        odds = range(1, 2 * il.COUNT_CUTOFF, 2)
        below = _members(1000, *odds[:-1])
        assert _counts(ideal, below, 1000) == (
            il.VerdictValue.UNDECIDED, f"{stat}={il.COUNT_CUTOFF - 1}")
        assert _counts(ideal, _members(1000, *odds), 1000) == (
            il.VerdictValue.NOT_IN, f"{stat}={il.COUNT_CUTOFF}")

    def test_certified_tail_must_end_below_the_bound(self):
        ind = _members(100, 1, 2)  # recip-sum = 1.5
        assert _counts(il.summable(), ind, 100, 2.5) == (
            il.VerdictValue.UNDECIDED, "recip-sum=1.5")
        assert _counts(il.summable(), ind, 100, 2.4) == (
            il.VerdictValue.IN, "recip-sum=1.5, certified tail<=2.4")

    def test_integer_statistics_print_as_integers(self):
        ind = np.ones(10**6 + 1, dtype=bool)
        ind[0] = False
        assert _counts(il.fin(), ind, 10**6) == (
            il.VerdictValue.NOT_IN, "count=1000000")
        assert _counts(il.fubini_odd(), ind, 10**6) == (
            il.VerdictValue.NOT_IN, "odd-count=500000")


def full_blocks_within(gen: sx.Generator, s: sx.SetExpr, limit: int) -> int:
    """How many full blocks of gen at or below the limit s contains."""
    ind = sx.indicator(s, limit)
    hits = 0
    n = 1
    while True:
        lo, hi = gen.block(n)
        if hi > limit + 1:
            return hits
        if ind[lo:hi].all():
            hits += 1
        n += 1


class TestWitness:
    def test_density0_iota(self):
        w = il.talagrand_witness(il.density0())
        assert [w.value(n) for n in range(1, 5)] == [2, 4, 8, 16]
        # oracle: union of even-indexed blocks has dhat >= 1/3 at horizon 2^20
        s = sx.IntervalSchedule(w, sx.EVENS)
        counts = np.cumsum(sx.indicator(s, 2**20))
        dhat = max(counts[n] / n for n in range(2**19, 2**20 + 1))
        assert dhat >= 1 / 3

    def test_fin_iota(self):
        w = il.talagrand_witness(il.fin())
        assert [w.value(n) for n in range(1, 4)] == [1, 2, 3]

    def test_summable_iota_and_block_mass(self):
        w = il.talagrand_witness(il.summable())
        assert [w.value(n) for n in range(1, 4)] == [2, 7, 21]
        # oracle: every block carries reciprocal mass >= 1
        for n in range(1, 10):
            lo, hi = w.block(n)
            assert sum(1.0 / i for i in range(lo, hi)) >= 1.0

    def test_fubini_iota(self):
        w = il.talagrand_witness(il.fubini_odd())
        assert [w.value(n) for n in range(1, 5)] == [1, 3, 5, 7]
        # every block {2n-1, 2n} contains an odd number
        for n in range(1, 50):
            lo, hi = w.block(n)
            assert any(v % 2 == 1 for v in range(lo, hi))

    def test_full_blocks_within(self):
        w = il.talagrand_witness(il.density0())
        s = sx.IntervalSchedule(w, sx.Finite((1, 2, 5)))
        assert full_blocks_within(w, s, 100) == 3
        assert full_blocks_within(w, s, 40) == 2

    def test_soundness_all_ideals(self):
        for ideal in il.BUILTINS:
            rep = il.witness_soundness_report(ideal, trials=20, seed=3)
            assert rep.fraction == 1.0, (ideal.kind, rep.failures)

    def test_soundness_report_shape(self):
        rep = il.witness_soundness_report(il.fin(), trials=5, seed=1, horizon=1000)
        d = rep.as_dict()
        assert d["trials"] == 5 and 0 <= d["fraction"] <= 1


class TestMaximalStub:
    def test_cannot_instantiate(self):
        with pytest.raises(TypeError):
            il.MaximalIdealStub()


_leaf = st.one_of(
    st.lists(st.integers(1, 100), max_size=5).map(lambda v: sx.Finite(tuple(v))),
    st.tuples(st.integers(1, 20), st.integers(1, 6)).map(
        lambda t: sx.ArithProg(*t)
    ),
    st.integers(1, 50).map(sx.Tail),
)

_exprs = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: sx.Union(*t)),
        st.tuples(inner, inner).map(lambda t: sx.Inter(*t)),
        inner.map(sx.Compl),
    ),
    max_leaves=5,
)


def _calibrated_expression(rng):
    """Random expressions inside the horizon classifier's calibrated domain.

    The horizon rules are count/density/sum proxies; they are only claimed
    to agree with exact verdicts away from their thresholds (small finite
    components, periodic densities not in the Undecided gap), so the
    agreement sample stays in that regime.
    """

    def leaf():
        pick = rng.randrange(6)
        if pick == 0:
            vals = tuple(sorted(rng.sample(range(1, 101), rng.randint(0, 4))))
            return sx.Finite(vals)
        if pick == 1:
            return sx.ArithProg(rng.randint(1, 12), rng.randint(1, 4))
        if pick == 2:
            return sx.Tail(rng.randint(1, 20))
        if pick == 3:
            gen = sx.generator(rng.choice(["pow2", "expE", "esum"]))
            sel = sx.Tail(1) if rng.random() < 0.5 else sx.ArithProg(2, 2)
            return sx.IntervalSchedule(gen, sel)
        if pick == 4:
            gen = sx.generator(rng.choice(["linear", "odd2"]))
            sel = sx.Finite(tuple(sorted(rng.sample(range(1, 9), 3))))
            return sx.IntervalSchedule(gen, sel)
        return sx.ArithProg(rng.randint(1, 2), 2)

    def build(depth):
        if depth == 0:
            return leaf()
        pick = rng.randrange(4)
        if pick == 0:
            return sx.Union(build(depth - 1), leaf())
        if pick == 1:
            return sx.Inter(build(depth - 1), leaf())
        if pick == 2:
            return sx.Compl(build(depth - 1))
        return leaf()

    return build(rng.randint(0, 2))


class TestInvariants:
    def test_agreement_symbolic_vs_horizon(self):
        # A decided symbolic verdict is never contradicted at the horizon,
        # over 200 seeded random expressions per the calibrated regime.
        import random

        rng = random.Random(2024)
        checked = 0
        for _ in range(200):
            s = _calibrated_expression(rng)
            for ideal in il.BUILTINS:
                try:
                    symbolic = il.classify_symbolic(ideal, s)
                except OutsideFragment:
                    continue
                horizon = il.classify_horizon(ideal, s, 100_000)
                if horizon.value is il.VerdictValue.UNDECIDED:
                    continue
                assert horizon.value is symbolic.value, (
                    ideal.kind,
                    s.to_dsl(),
                    symbolic.as_dict(),
                    horizon.as_dict(),
                )
                checked += 1
        assert checked >= 200

    @settings(max_examples=50, deadline=None)
    @given(_exprs, _exprs, st.sampled_from(range(4)))
    def test_subset_monotone(self, b, c, which):
        # A = B n C is a subset of B; In verdicts are downward closed.
        ideal = il.BUILTINS[which]
        a = sx.Inter(b, c)
        try:
            vb = il.classify_symbolic(ideal, b)
            va = il.classify_symbolic(ideal, a)
        except OutsideFragment:
            return
        if vb.value is il.VerdictValue.IN:
            assert va.value is il.VerdictValue.IN

    @settings(max_examples=50, deadline=None)
    @given(_exprs)
    def test_summable_inside_density0(self, s):
        try:
            vs = il.classify_symbolic(il.summable(), s)
            vd = il.classify_symbolic(il.density0(), s)
        except OutsideFragment:
            return
        if vs.value is il.VerdictValue.IN:
            assert vd.value is il.VerdictValue.IN

    def test_defaults_validated(self):
        with pytest.raises(ValueError):
            il.Ideal("nope")

    def test_an_ideal_is_its_kind(self):
        # The horizon thresholds are constants, so an echoed name replays.
        with pytest.raises(TypeError):
            il.Ideal("summable", sum_bound=1.0)
        assert il.Ideal("summable") == il.summable()
