import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealgames import ideals as il, periodic, setexpr as sx

_leaf = st.one_of(
    st.lists(st.integers(1, 60), max_size=4).map(lambda v: sx.Finite(tuple(v))),
    st.tuples(st.integers(1, 20), st.integers(1, 8)).map(
        lambda t: sx.ArithProg(*t)
    ),
    st.integers(1, 40).map(sx.Tail),
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


@settings(max_examples=80, deadline=None)
@given(_exprs, st.integers(1, 2000))
def test_normal_form_membership_agrees(s, n):
    p = periodic.reduce(s)
    assert p is not None
    assert p.member(n) == s.member(n)


@settings(max_examples=40, deadline=None)
@given(_exprs)
def test_density_matches_counting(s):
    p = periodic.reduce(s)
    d = p.density()
    # oracle: counting far beyond the threshold over full periods
    start = p.threshold
    span = p.period * 50
    cnt = sum(1 for n in range(start, start + span) if s.member(n))
    assert Fraction(cnt, span) == d


@settings(max_examples=40, deadline=None)
@given(_exprs)
def test_finiteness_matches_counting(s):
    p = periodic.reduce(s)
    horizon_hits = sum(
        1 for n in range(p.threshold, p.threshold + 3 * p.period) if s.member(n)
    )
    assert p.is_finite == (horizon_hits == 0)


@settings(max_examples=40, deadline=None)
@given(_exprs)
def test_odd_part_matches_counting(s):
    p = periodic.reduce(s)
    start = p.threshold + (p.threshold % 2)
    hits = sum(
        1
        for n in range(start, start + 4 * p.period)
        if n % 2 == 1 and s.member(n)
    )
    assert p.odd_part_finite() == (hits == 0)


def test_odd_part_decided_by_residues_at_any_period():
    big = 10**12
    # Over an even period a residue class keeps its parity.
    assert periodic.reduce(sx.ArithProg(2, big)).odd_part_finite()
    assert not periodic.reduce(sx.ArithProg(3, big)).odd_part_finite()
    assert periodic.Periodic(big, frozenset({0, 2, big - 2}), 1, ()).odd_part_finite()
    # Over an odd period every class meets the odd integers.
    assert not periodic.reduce(sx.ArithProg(2, big + 1)).odd_part_finite()
    assert periodic.Periodic(big + 1, frozenset(), 1, ((1, 4),)).odd_part_finite()
    # isch(odd2, ap(1, big)): blocks {2j-1, 2j} at j = 1 mod big.
    odd2 = sx.generator("odd2")
    wide = periodic.reduce(sx.IntervalSchedule(odd2, sx.ArithProg(1, big)))
    assert wide.period == 2 * big and not wide.odd_part_finite()


def test_affine_schedule_of_many_residues_is_too_complex():
    # compl(ap(1, 999999)) keeps 999,998 residues, so odd2's blocks over it
    # would list about 2*10^6; the count, not the period, is refused.
    odd2 = sx.generator("odd2")
    many = sx.IntervalSchedule(odd2, sx.Compl(sx.ArithProg(1, 999_999)))
    with pytest.raises(periodic.TooComplex):
        periodic.reduce(many)
    assert il.classify(il.density0(), many).value is il.VerdictValue.NOT_IN
    wide = periodic.reduce(sx.IntervalSchedule(odd2, sx.ArithProg(1, 10**12)))
    assert len(wide.residues) == 2


def test_affine_schedule_reduces_exactly():
    # blocks of odd2 are {2n-1, 2n}; an even-indexed selection is periodic
    s = sx.IntervalSchedule(sx.generator("odd2"), sx.EVENS)
    p = periodic.reduce(s)
    assert p is not None
    for n in range(1, 500):
        assert p.member(n) == s.member(n)
    assert p.density() == Fraction(1, 2)


def test_geometric_schedule_not_reducible():
    s = sx.IntervalSchedule(sx.generator("pow2"), sx.EVENS)
    assert periodic.reduce(s) is None


def test_explicit_schedule_blocks_stay_symbolic():
    # huge generator values must not be expanded element by element
    s = sx.IntervalSchedule(sx.generator("pow2"), sx.Finite((60, 62)))
    p = periodic.reduce(s)
    assert p is not None
    assert p.is_finite
    assert p.blocks == ((2**60, 2**61), (2**62, 2**63))
    assert p.member(2**60) and not p.member(2**61)


def test_tail_certificate():
    p = periodic.reduce(sx.Finite((2, 3, 4, 200)))
    assert p.tail_reciprocal_upper(100) == 1.0 / 200
    assert p.tail_reciprocal_upper(300) == 0.0
    infinite = periodic.reduce(sx.ArithProg(1, 3))
    assert infinite.tail_reciprocal_upper(100) is None


def test_complement_of_a_wide_progression_is_too_complex():
    # The complement would list MAX_PERIOD residues; it is refused before
    # any is built, and the bounds layer decides the set instead.
    wide = sx.Compl(sx.ArithProg(1, periodic.MAX_PERIOD + 1))
    tracemalloc.start()
    try:
        with pytest.raises(periodic.TooComplex):
            periodic.reduce(wide)
        evidence = [
            il.classify_symbolic(ideal, wide).evidence
            for ideal in (il.fin(), il.density0(), il.summable())
        ]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert evidence == [
        "infinite", "upper density >= 0.999999", "reciprocal sum diverges"
    ]
    # A set of MAX_PERIOD residues takes tens of megabytes.
    assert peak < 2**21


# ---------------------------------------------------------------------------
# Block algebra against the sort-and-merge construction it replaced


def _reference_rebase(p, period, threshold):
    """Rebase by listing every block, old and new, and sorting them again."""
    residues = frozenset(r for r in range(period) if r % p.period in p.residues)
    blocks = list(p.blocks)
    if threshold > p.threshold and p.residues:
        blocks += [(n, n + 1) for n in range(p.threshold, threshold)
                   if n % p.period in p.residues]
    return periodic.Periodic(period, residues, threshold, periodic.merge_blocks(blocks))


def _reference_intersection(a, b):
    return tuple(
        (max(a_lo, b_lo), min(a_hi, b_hi))
        for a_lo, a_hi in a
        for b_lo, b_hi in b
        if max(a_lo, b_lo) < min(a_hi, b_hi)
    )


def _reference_combine(a, b, op):
    period = a.period * b.period // math.gcd(a.period, b.period)
    threshold = max(a.threshold, b.threshold)
    ra = _reference_rebase(a, period, threshold)
    rb = _reference_rebase(b, period, threshold)
    if op == "union":
        residues = ra.residues | rb.residues
        blocks = periodic.merge_blocks(ra.blocks + rb.blocks)
    else:
        residues = ra.residues & rb.residues
        blocks = _reference_intersection(ra.blocks, rb.blocks)
    return periodic.Periodic(period, residues, threshold, blocks)


_blocks = st.lists(st.tuples(st.integers(1, 120), st.integers(1, 12))).map(
    lambda runs: periodic.merge_blocks((lo, lo + n) for lo, n in runs)
)


@st.composite
def _forms(draw):
    """A normal form: merged blocks below a threshold, then a residue set."""
    blocks = draw(_blocks)
    floor = blocks[-1][1] if blocks else 1
    threshold = draw(st.integers(floor, floor + 30))
    period = draw(st.integers(1, 12))
    residues = draw(st.frozensets(st.integers(0, period - 1)))
    return periodic.Periodic(period, residues, threshold, blocks)


@settings(max_examples=300, deadline=None)
@given(_forms(), st.integers(1, 6), st.integers(0, 80))
def test_rebase_equals_sort_and_merge(p, factor, extra):
    period, threshold = p.period * factor, p.threshold + extra
    assert periodic._rebase(p, period, threshold) == _reference_rebase(p, period, threshold)


@settings(max_examples=300, deadline=None)
@given(_forms(), _forms(), st.sampled_from(["union", "inter"]))
def test_combine_equals_sort_and_merge(a, b, op):
    assert periodic._combine(a, b, op) == _reference_combine(a, b, op)


@settings(max_examples=300, deadline=None)
@given(_blocks, _blocks)
def test_block_union_and_intersection_equal_sort_and_merge(a, b):
    assert periodic._union_blocks(a, b) == periodic.merge_blocks(a + b)
    assert periodic._intersect_blocks(a, b) == _reference_intersection(a, b)


def test_rebase_to_the_same_shape_is_the_operand():
    p = periodic.reduce(sx.Union(sx.Finite((1, 2, 9)), sx.ArithProg(12, 5)))
    assert periodic._rebase(p, p.period, p.threshold) is p
