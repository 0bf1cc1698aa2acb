"""The game builders' index search, against the exact predicates it replaces.

``games._next_indices`` and ``games._passes`` decide whole chunks of
indices in float64 and re-decide every index near a boundary exactly.  The
property below compares them, over every descriptor class with balls and
windows centred on values of x (so that terms land exactly on boundaries),
with the exact predicates at every index up to 10**4.  The other tests
count calls rather than time them.
"""
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from idealgames import dsl
from idealgames import games as gm
from idealgames import ideals as il
from idealgames import seqspace as sq
from idealgames import setexpr as sx
from idealgames.errors import ExhaustedIndices, SteeringStuck

N = 10_000

_values = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)
_rules = st.one_of(
    st.sampled_from([sq.RULE_INV, sq.RULE_IDENT, sq.RULE_ALTSIGN]),
    _values.map(lambda c: sq.TermRule("const", c)),
)
_sets = st.sampled_from(
    [sx.EVENS, sx.ODDS, sx.ArithProg(2, 5), sx.Finite((1, 4, 9, 16)), sx.Tail(50)]
)
_base = st.one_of(
    st.builds(sq.AlternatingPair, _values, _values),
    st.builds(sq.ExplicitTail, st.lists(_values, max_size=8).map(tuple), _rules),
    st.builds(sq.PiecewiseOnSet, _sets, _rules, _rules),
    st.just(sq.RationalEnum()),
    st.just(sq.SignedRationalEnum()),
)
_transforms = st.one_of(
    st.lists(st.integers(1, 60), min_size=1, max_size=6, unique=True).map(
        lambda v: sq.Subseq(tuple(sorted(v)))
    ),
    st.permutations(range(1, 9)).map(lambda p: sq.Perm(tuple(p))),
    st.just(sq.Subseq.from_set(sx.ODDS)),
)
_descriptors = st.one_of(_base, st.builds(sq.Transformed, _base, _transforms))


def _exhausted(last: int, cap: int):
    return pytest.raises(
        ExhaustedIndices, match=re.escape(f"no admissible index in ({last}, {cap}]")
    )


@settings(max_examples=12, deadline=None)
@given(x=_descriptors, data=st.data())
def test_decisions_equal_the_exact_predicates(x, data):
    terms = [Fraction(x.term(i)) for i in range(1, N + 1)]
    pick = lambda: terms[data.draw(st.integers(1, N)) - 1]
    center = pick()
    # The radius reaches another term, which then lies on the sphere.
    ball = gm.Ball.of(center, abs(pick() - center))
    lo, hi = sorted((pick(), pick()))
    cases = [
        (gm._in_ball(ball), [ball.contains(v) for v in terms]),
        (gm._off_ball(ball), [not ball.contains(v) for v in terms]),
        (gm._in_window(lo, hi), [lo < v < hi for v in terms]),
    ]
    for test, want in cases:
        assert gm._passes(x, test, list(range(1, N + 1))) == want
        after = data.draw(st.integers(0, N))
        k = data.draw(st.integers(1, 60))
        passing = [i for i in range(after + 1, N + 1) if want[i - 1]]
        if len(passing) >= k:
            assert gm._next_indices(x, test, after, k, N) == passing[:k]
        else:
            with _exhausted(passing[-1] if passing else after, N):
                gm._next_indices(x, test, after, k, N)


def _count_calls(monkeypatch, cls, name):
    calls = []
    real = getattr(cls, name)

    def counting(self, n):
        calls.append(n)
        return real(self, n)

    monkeypatch.setattr(cls, name, counting)
    return calls


def test_stuck_series_decides_few_terms_exactly(monkeypatch):
    # series --seq ratenum-signed --rounds 6 --c-step 20 --oracles random:4
    monkeypatch.setenv("IDEALGAMES_HORIZON_CAP", str(10**6))
    calls = _count_calls(monkeypatch, sq.SignedRationalEnum, "term")
    oracles = [gm.RandomExtensionOracle(4, k) for k in range(1, 7)]
    with pytest.raises(SteeringStuck,
                       match=re.escape("no admissible index in (40, 1000000]")):
        gm.steer_series(sq.SignedRationalEnum(), lambda k: 20 * k, 6,
                        oracles=oracles)
    # The exact scan evaluated every index up to the cap, 10**6 of them.
    assert len(calls) < 1_000


def test_terms_without_a_float_are_decided_exactly():
    huge = Fraction(10**400)
    x = sq.ExplicitTail((huge, 0, huge), sq.RULE_IDENT)
    with pytest.raises(OverflowError):
        x.values(5)
    ball = gm.Ball.of(0, 5)
    assert gm._next_indices(x, gm._in_ball(ball), 0, 3, 100) == [2, 4, 5]
    assert gm._passes(x, gm._off_ball(ball), [1, 2, 3]) == [True, False, True]
    far = gm.Ball.of(huge, 1)
    assert gm._next_indices(x, gm._in_ball(far), 0, 2, 100) == [1, 3]
    with _exhausted(3, 100):
        gm._next_indices(x, gm._in_ball(far), 0, 3, 100)


class _TermOnly(sq.SeqDescriptor):
    """A descriptor without bulk values: n for odd n, 0 for even n."""

    def term(self, n):
        return n % 2 * n


def test_a_descriptor_without_values_is_decided_exactly():
    test = gm._in_window(Fraction(1, 2), Fraction(100))
    assert gm._next_indices(_TermOnly(), test, 0, 5, 1000) == [1, 3, 5, 7, 9]
    assert gm._passes(_TermOnly(), test, [1, 2, 99, 100]) == [True, False, True, False]


def test_indices_below_one_are_decided_exactly():
    # A tampered transcript may name any index; values() has none below 1.
    x = sq.AlternatingPair(0, 1)
    ball = gm.Ball.of(1, Fraction(1, 2))
    idx = [-3, 0, 2, 5]
    assert gm._passes(x, gm._in_ball(ball), idx) == [
        ball.contains(x.term(i)) for i in idx
    ]


def _smallest_unused_off_ball(x, ball, used, k):
    """Brute force: the k smallest values outside ``used`` whose terms avoid
    the ball."""
    found, v = [], 0
    while len(found) < k:
        v += 1
        if v not in used and not ball.contains(x.term(v)):
            found.append(v)
    return found


@pytest.mark.parametrize("seq", ["alt(1/4,3/2)", "ratenum-signed"])
@pytest.mark.parametrize("seed", [1, 7, 12])
def test_pi_fill_takes_the_smallest_unused_ball_avoiding_values(seq, seed):
    x = dsl.parse_seq(seq)
    ball = gm.Ball.of(Fraction(1, 4), Fraction(1, 2))
    oracles = [gm.RandomExtensionOracle(seed, k) for k in range(1, 7)]
    t = gm.build_perm_game(x, il.density0(), ball, oracles, gm.LinearPlayerI(7), 6)
    prev = ()
    for r in t.rounds:
        fill = _smallest_unused_off_ball(x, ball, set(prev), r.c - 1 - len(prev))
        assert r.A == prev + tuple(fill)
        prev = r.B


class _Counted(gm.ForcingOracle):
    """Records, per refinement, the term calls it made and the stem sizes."""

    def __init__(self, x, calls):
        super().__init__(x)
        self.calls = calls
        self.log = []

    def refine(self, cyl):
        before = len(self.calls)
        out = super().refine(cyl)
        self.log.append((len(cyl.stem), len(out.stem), len(self.calls) - before))
        return out


def test_shared_forcing_oracle_sums_each_index_once(monkeypatch):
    x = sq.SignedRationalEnum()
    rounds = 8
    fresh = gm.steer_series(x, lambda k: 20 * k, rounds, oracles=[
        gm.ForcingOracle(x) if k % 2 == 0 else gm.TrivialOracle()
        for k in range(1, rounds + 1)
    ])
    calls = _count_calls(monkeypatch, sq.SignedRationalEnum, "term")
    force = _Counted(x, calls)
    shared = gm.steer_series(x, lambda k: 20 * k, rounds, oracles=[
        force if k % 2 == 0 else gm.TrivialOracle() for k in range(1, rounds + 1)
    ])
    assert shared.to_jsonl() == fresh.to_jsonl()
    assert len(force.log) == rounds // 2
    summed = 0
    for a_len, b_len, n_calls in force.log:
        # New stem indices are summed once; each appended index costs at
        # most an exact probe, a near-boundary re-decision and its sum.
        assert n_calls <= (a_len - summed) + 3 * (b_len - a_len)
        summed = b_len
