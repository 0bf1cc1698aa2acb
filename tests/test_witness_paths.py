"""The two paths under witness soundness reports, against their references.

``indicator`` fills an interval schedule over an affine generator by one
scalar ``np.repeat`` of its selector, and density0's horizon statistic sums
only the upper half of the indicator.  The references are exact membership
and the full-length int64 cumulative count those paths replaced; the pins
fix one report per built-in ideal.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idealgames import ideals as il
from idealgames import setexpr as sx

# Not registered: blocks [3j + 2, 3j + 5), the first one at 5.
AFFINE_3_2 = sx.Generator("affine-3-2", fn=lambda n: 3 * n + 2, affine=(3, 2))
AFFINE_GENS = [sx.generator("linear"), sx.generator("odd2"), AFFINE_3_2]

_leaf = st.one_of(
    st.lists(st.integers(1, 80), max_size=5).map(lambda v: sx.Finite(tuple(v))),
    st.tuples(st.integers(1, 20), st.integers(1, 9)).map(lambda t: sx.ArithProg(*t)),
    st.integers(1, 60).map(sx.Tail),
)
_selectors = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: sx.Union(*t)),
        st.tuples(inner, inner).map(lambda t: sx.Inter(*t)),
        inner.map(sx.Compl),
    ),
    max_leaves=5,
)


@st.composite
def _schedule_and_limit(draw):
    gen = draw(st.sampled_from(AFFINE_GENS))
    a, b = gen.affine
    first = a + b  # start of block 1
    limit = draw(
        st.one_of(
            st.integers(1, max(first - 1, 1)),  # below the first block
            # the last slot of a block, the first of the next, and one past it
            st.tuples(st.integers(1, 120), st.integers(-1, 1)).map(
                lambda t: max(1, a * t[0] + b + t[1])
            ),
            st.integers(1, 600),
        )
    )
    return sx.IntervalSchedule(gen, draw(_selectors)), limit


@settings(max_examples=300, deadline=None)
@given(_schedule_and_limit())
def test_affine_schedule_indicator_matches_member(case):
    s, limit = case
    ind = sx.indicator(s, limit)
    assert ind.dtype == bool and ind.shape == (limit + 1,)
    assert not ind[0]
    assert ind[1:].tolist() == [s.member(n) for n in range(1, limit + 1)]


def _reference_density0(ind, horizon):
    cum = np.cumsum(ind)
    lo = max(horizon // 2, 1)
    dhat = float((cum[lo : horizon + 1] / np.arange(lo, horizon + 1)).max())
    row = il._ROWS[il.DENSITY0]
    if dhat < row.in_ideal[1]:
        value = il.VerdictValue.IN
    elif dhat > row.not_in[1]:
        value = il.VerdictValue.NOT_IN
    else:
        value = il.VerdictValue.UNDECIDED
    return il.Verdict(value, f"Horizon({horizon})", f"dhat={dhat:.6g}")


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(1, 5), st.integers(6, 4001)),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
    st.sampled_from([(0.02, 0.10), (0.3, 0.5), (0.001, 0.999)]),
)
def test_density0_upper_half_matches_full_cumsum(horizon, seed, p, thetas):
    ind = np.random.default_rng(seed).random(horizon + 1) < p
    ind[0] = False
    row = il._ROWS[il.DENSITY0]
    row = row._replace(in_ideal=(row.in_ideal[0], thetas[0]),
                       not_in=(row.not_in[0], thetas[1]))
    # Patched in the body: Hypothesis rejects function-scoped fixtures.
    with mock.patch.dict(il._ROWS, {il.DENSITY0: row}):
        got = il.classify_horizon_counts(il.density0(), ind, horizon)
        assert got == _reference_density0(ind, horizon)


def test_density0_tiny_horizons_read_from_slot_one():
    # lo == 1 for horizons 1, 2 and 3; every membership pattern.
    for horizon in (1, 2, 3):
        for bits in range(2**horizon):
            ind = np.array([False] + [bool(bits >> i & 1) for i in range(horizon)])
            got = il.classify_horizon_counts(il.density0(), ind, horizon)
            assert got == _reference_density0(ind, horizon)


@pytest.mark.parametrize("horizon", [10**3, 10**5])
def test_density0_float_divisor_is_bit_exact(horizon):
    # The counts divide by float64 indices; the quotients, and so dhat, are
    # the bits an int64 divisor gives.
    rng = np.random.default_rng(horizon)
    lo = horizon // 2
    for p in (0.0, 0.015, 0.02, 0.05, 0.1, 0.5, 1.0, *rng.random(5)):
        ind = rng.random(horizon + 1) < p
        ind[0] = False
        counts = np.cumsum(ind)[lo:]
        got = counts / il._arange(lo, horizon + 1, np.float64)
        want = counts / np.arange(lo, horizon + 1, dtype=np.int64)
        assert got.tobytes() == want.tobytes()
        assert il.classify_horizon_counts(il.density0(), ind, horizon) == (
            _reference_density0(ind, horizon)
        )


def _report(kind, trials):
    return {"ideal": kind, "trials": trials, "horizon": 100_000, "seed": 13}


# A witness whose blocks [2j + 99990, 2j + 99992) start just below the
# horizon: every trial fails, so its reports pin each statistic's evidence.
LATE = sx.Generator("late", fn=lambda n: 2 * n + 99_990, affine=(2, 99_990))
LATE_TRIALS = [(0, 3, [2]), (1, 2, [3, 5, 11]), (2, 2, [5, 7, 9])]
LATE_VERDICTS = {
    "fin": [("Undecided", "count=5"), ("Undecided", "count=7"),
            ("Undecided", "count=5")],
    "density0": [("InIdeal", "dhat=5e-05"), ("InIdeal", "dhat=7e-05"),
                 ("InIdeal", "dhat=5e-05")],
    "summable": [("Undecided", "recip-sum=5.00018e-05"),
                 ("Undecided", "recip-sum=7.00021e-05"),
                 ("Undecided", "recip-sum=5.00014e-05")],
    "fubini-odd": [("Undecided", "odd-count=2"), ("Undecided", "odd-count=3"),
                   ("Undecided", "odd-count=2")],
}


def test_witness_reports_pinned_per_ideal():
    for ideal in il.BUILTINS:
        own = il.witness_soundness_report(ideal, trials=6, seed=13, horizon=100_000)
        assert own.as_dict() == {**_report(ideal.kind, 6), "fraction": 1.0,
                                 "failures": []}
        late = il.witness_soundness_report(
            ideal, witness=LATE, trials=3, seed=13,
            horizon=100_000,
        )
        failures = [
            {"trial": trial, "offset": offset, "extras": extras,
             "verdict": {"value": value, "mode": "Horizon(100000)",
                         "evidence": evidence}}
            for (trial, offset, extras), (value, evidence)
            in zip(LATE_TRIALS, LATE_VERDICTS[ideal.kind])
        ]
        assert late.as_dict() == {**_report(ideal.kind, 3), "fraction": 0.0,
                                  "failures": failures}
