import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealgames import dsl, ideals as il, periodic, setexpr as sx

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
    assert periodic.Periodic((1,), ((big, frozenset({0, 2, big - 2})),)).odd_part_finite()
    # Over an odd period every class meets the odd integers.
    assert not periodic.reduce(sx.ArithProg(2, big + 1)).odd_part_finite()
    assert periodic.Periodic((1, 4), (periodic._ALL, periodic._NONE)).odd_part_finite()
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
    assert p.runs() == ((2**60, 2**61), (2**62, 2**63))
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
# Piece algebra and size guards


def _check_pieces(p):
    """The invariants of a normal form: starts rise strictly from 1,
    neighbouring patterns differ, and no residue and every residue are the
    shared patterns."""
    assert p.starts[0] == 1 and len(p.starts) == len(p.patterns)
    assert all(x < y for x, y in zip(p.starts, p.starts[1:]))
    assert all(x != y for x, y in zip(p.patterns, p.patterns[1:]))
    for q in p.patterns:
        period, residues = q
        assert all(0 <= r < period for r in residues)
        if not residues:
            assert q is periodic._NONE
        elif len(residues) == period:
            assert q is periodic._ALL


@st.composite
def _forms(draw):
    """A normal form from rising pieces of random patterns, and the
    membership those pieces give."""
    raw = draw(st.lists(
        st.tuples(st.integers(1, 40), st.integers(1, 12), st.sets(st.integers(0, 11))),
        min_size=1, max_size=8,
    ))
    pieces, start = [], 1
    for gap, period, residues in raw:
        pieces.append((start, periodic._pattern(period, {r % period for r in residues})))
        start += gap

    def member(n):
        period, residues = [q for lo, q in pieces if lo <= n][-1]
        return n % period in residues

    starts, patterns = [], []
    for start, pattern in pieces:
        periodic._append(starts, patterns, start, pattern)
    return periodic.Periodic(tuple(starts), tuple(patterns)), member


@settings(max_examples=300, deadline=None)
@given(_forms(), _forms())
def test_combine_and_complement_agree_with_member(a, b):
    (a, in_a), (b, in_b) = a, b
    union = periodic._combine(a, b, "union")
    inter = periodic._combine(a, b, "inter")
    compl = periodic._complement(a)
    for p in (a, b, union, inter, compl):
        _check_pieces(p)
        below = [n for n in range(1, p.threshold) if p.member(n)]
        assert p.block_count() == len(below)
        assert p.runs() == periodic.merge_blocks((n, n + 1) for n in below)
    for n in range(1, 2001):
        assert a.member(n) == in_a(n)
        assert union.member(n) == (in_a(n) or in_b(n))
        assert inter.member(n) == (in_a(n) and in_b(n))
        assert compl.member(n) == (not in_a(n))
    # A form combined with the neutral set is that form.
    nothing, everything = periodic.reduce(sx.Finite(())), periodic.reduce(sx.Tail(1))
    assert periodic._combine(a, nothing, "union") == a
    assert periodic._combine(everything, a, "inter") == a
    assert periodic._complement(compl) == a


_BIG = 10**9
_wide_leaf = st.one_of(
    st.lists(st.integers(1, _BIG), max_size=4).map(lambda v: sx.Finite(tuple(v))),
    st.tuples(st.integers(1, _BIG), st.integers(1, _BIG)).map(lambda t: sx.ArithProg(*t)),
    st.integers(1, _BIG).map(sx.Tail),
)


def _wide_node(inner):
    return st.one_of(
        st.tuples(inner, inner).map(lambda t: sx.Union(*t)),
        st.tuples(inner, inner).map(lambda t: sx.Inter(*t)),
        inner.map(sx.Compl),
        st.tuples(st.sampled_from(["linear", "odd2"]), inner).map(
            lambda t: sx.IntervalSchedule(sx.generator(t[0]), t[1])
        ),
    )


_wide_exprs = _wide_node(_wide_node(_wide_node(_wide_leaf) | _wide_leaf) | _wide_leaf)


def _size_bounds(s):
    """The piece count and stored residues that ``reduce``'s docstring
    bounds its form of s by."""
    if isinstance(s, sx.Finite):
        return 2 * len(s.values) + 1, 0
    if isinstance(s, (sx.ArithProg, sx.Tail)):
        return 2, 1
    if isinstance(s, sx.IntervalSchedule):
        pieces, residues = _size_bounds(s.selector)
        return pieces + 1, residues + periodic.MAX_PERIOD
    if isinstance(s, sx.Compl):
        pieces, residues = _size_bounds(s.inner)
        return pieces, residues + periodic.MAX_PERIOD
    (lp, lr), (rp, rr) = _size_bounds(s.left), _size_bounds(s.right)
    return lp + rp, lr + rr + periodic.MAX_PERIOD


@settings(max_examples=150, deadline=None)
@given(_wide_exprs)
def test_reduce_stays_within_its_size_bounds(s):
    # Sized by what it stores, not by time: parameters up to 10^9 either
    # give a form within the stated bounds or TooComplex.
    try:
        p = periodic.reduce(s)
    except periodic.TooComplex:
        return
    _check_pieces(p)
    max_pieces, max_residues = _size_bounds(s)
    assert len(p.starts) <= max_pieces
    shared = (periodic._NONE, periodic._ALL)
    stored = {id(q): len(q[1]) for q in p.patterns if not any(q is x for x in shared)}
    assert sum(stored.values()) <= max_residues
    probes = {1, _BIG + 1} | {n + d for n in p.starts for d in (-1, 0, 1)}
    for n in sorted(probes - {0}):
        assert p.member(n) == s.member(n), n


@pytest.mark.parametrize("text, density", [
    ("union(ap(1,2),finite{1999999})", "1/2"),
    ("union(ap(1,3),tail(1500000))", "1"),
])
def test_far_pieces_reduce_in_a_few_pieces(text, density):
    # A point or a tail far out is one more piece, not a list of the runs
    # of the progression below it.
    s = dsl.parse_set(text)
    periodic.reduce.cache_clear()
    tracemalloc.start()
    try:
        p = periodic.reduce(s)
        verdict = il.classify(il.density0(), s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(p.starts) <= 3 and p.density() == Fraction(density)
    assert (verdict.value, verdict.mode) == (il.VerdictValue.NOT_IN, "Symbolic")
    assert verdict.evidence == f"density={density}"
    assert peak < 2**20
