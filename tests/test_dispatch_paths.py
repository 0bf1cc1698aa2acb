"""Term rules, point sets and the cluster/limit dispatch against references.

``TermRule`` looks each kind up in one rule table; ``_ChainRule`` below keeps
the per-method ``if kind ==`` chains it replaced, as the reference.  The
cluster, limit and accumulation point sets share one candidate loop, and one
function maps "cluster"/"limit" to a point set; the pins fix their output
bytes and were recorded on the code before either change.
"""
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

import numpy as np
import pytest

from idealgames import convergence as cv
from idealgames import ideals as il
from idealgames import mc
from idealgames import seqspace as sq
from idealgames import setexpr as sx

KINDS = ("const", "inv", "ident", "altsign")
CONST_VALUES = (0, 1, -1, Fraction(1, 2), Fraction(-3, 4))
GRID = tuple(
    Fraction(v)
    for v in ("-3", "-1", "-3/4", "-1/2", "0", "1/7", "1/3", "1/2", "3/4",
              "1", "3/2", "2", "7/2", "10", "200")
)
BOUNDS = [(lo, hi) for lo in GRID for hi in GRID]


@dataclass(frozen=True)
class _ChainRule:
    """The if-chain form of TermRule, kept as the reference."""

    kind: str
    value: object = 0

    def __call__(self, n):
        if self.kind == "const":
            return self.value
        if self.kind == "inv":
            return Fraction(1, n)
        if self.kind == "ident":
            return n
        if self.kind == "altsign":
            return -1 if n % 2 else 1
        raise ValueError(self.kind)

    def bulk(self, idx):
        if self.kind == "const":
            return np.full(idx.shape, float(self.value))
        if self.kind == "inv":
            return 1.0 / idx
        if self.kind == "ident":
            return idx.astype(np.float64)
        if self.kind == "altsign":
            return np.where(idx % 2 == 1, -1.0, 1.0)
        raise ValueError(self.kind)

    def hit_indices(self, lo, hi):
        if self.kind == "const":
            c = Fraction(self.value)
            return sx.Tail(1) if lo <= c <= hi else sx.Finite(())
        if self.kind == "ident":
            lo_i = max(1, ceil(lo))
            hi_i = floor(hi)
            if hi_i < lo_i:
                return sx.Finite(())
            return sx.interval(lo_i, hi_i)
        if self.kind == "inv":
            if hi <= 0:
                return sx.Finite(())
            start = max(1, ceil(1 / hi))
            if lo <= 0:
                return sx.Tail(start)
            stop = floor(1 / lo)
            if stop < start:
                return sx.Finite(())
            return sx.interval(start, stop)
        if self.kind == "altsign":
            return _chain_parity(lo <= -1 <= hi, lo <= 1 <= hi)
        raise ValueError(self.kind)

    def specials(self):
        if self.kind == "const":
            return (float(self.value),)
        if self.kind == "inv":
            return (0.0,)
        if self.kind == "altsign":
            return (-1.0, 1.0)
        return ()


def _chain_parity(odd, even):
    if odd and even:
        return sx.Tail(1)
    if odd:
        return sx.ODDS
    if even:
        return sx.EVENS
    return sx.Finite(())


def _rule_pairs():
    for kind in KINDS:
        for value in CONST_VALUES:
            yield sq.TermRule(kind, value), _ChainRule(kind, value)


RULE_IDS = [f"{k}-{v}" for k in KINDS for v in CONST_VALUES]


@pytest.mark.parametrize("pair", list(_rule_pairs()), ids=RULE_IDS)
def test_rule_matches_chain_reference(pair):
    rule, ref = pair
    for n in range(1, 201):
        got, want = rule(n), ref(n)
        assert got == want and type(got) is type(want), (n, got, want)
    idx = np.arange(1, 201)
    got, want = rule.bulk(idx), ref.bulk(idx)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert rule.specials() == ref.specials()
    for lo, hi in BOUNDS:
        assert rule.hit_indices(lo, hi).to_dsl() == ref.hit_indices(lo, hi).to_dsl(), (
            lo, hi)


@pytest.mark.parametrize("v0", CONST_VALUES)
@pytest.mark.parametrize("v1", CONST_VALUES)
def test_alternating_pair_hit_set_matches_reference(v0, v1):
    x = sq.AlternatingPair(v0, v1)
    for lo, hi in BOUNDS:
        want = _chain_parity(lo <= Fraction(v0) <= hi, lo <= Fraction(v1) <= hi)
        assert x.hit_set(lo, hi).to_dsl() == want.to_dsl(), (lo, hi)


def test_rule_keeps_eq_hash_repr():
    assert sq.TermRule("const", 0) == sq.CONST_ZERO
    assert hash(sq.TermRule("inv")) == hash(sq.RULE_INV)
    assert sq.TermRule("const", 1) != sq.TermRule("const", 2)
    assert repr(sq.RULE_ALTSIGN) == "TermRule(kind='altsign', value=0)"
    assert [f.name for f in sq.TermRule.__dataclass_fields__.values()] == [
        "kind", "value"]


def test_bad_rule_kind_fails_when_built():
    with pytest.raises(ValueError):
        sq.TermRule("bogus")


def test_bad_kind_rejected_by_preserve_outcome():
    x = sq.AlternatingPair(0, 1)
    with pytest.raises(ValueError, match="kind must be 'cluster' or 'limit'"):
        cv.preserve_outcome("gamma", x, sq.Subseq((1, 3)), il.density0(), 1000, 0.05)


def test_bad_kind_rejected_by_estimate_preservation():
    x = sq.AlternatingPair(0, 1)
    with pytest.raises(ValueError, match="kind must be 'cluster' or 'limit'"):
        mc.estimate_preservation(x, il.density0(), "gamma", 100, 1000, 0.05, seed=1)
    with pytest.raises(ValueError, match="at least 100 samples"):
        mc.estimate_preservation(x, il.density0(), "gamma", 99, 1000, 0.05, seed=1)


@pytest.mark.parametrize("undecided,flagged", [((), False), ((3.0,), False),
                                               ((2.0, 3.0), True)])
def test_undecided_flag_past_a_quarter(undecided, flagged):
    x = sq.ExplicitTail((0, 1, 2, 3), sq.CONST_ZERO)
    V = il.VerdictValue

    def verdict_at(vals, c):
        return V.UNDECIDED if c in undecided else V.NOT_IN if c < 2 else V.IN

    ps = cv._point_set(x, 100, 0.05, verdict_at)
    assert ps.points == (0.0, 1.0)
    assert ps.undecided == undecided
    assert ps.flags == ((cv.UNDECIDED_FLAG,) if flagged else ())


SQUARES = sx.Finite(tuple(k * k for k in range(1, 101)))
MATRIX_SEQUENCES = (
    sq.AlternatingPair(0, 1),
    sq.ExplicitTail((), sq.RULE_INV),
    sq.PiecewiseOnSet(SQUARES, sq.RULE_IDENT, sq.CONST_ZERO),
    sq.RationalEnum(),
    sq.SignedRationalEnum(),
)


def _pointset_bytes(ps):
    return json.dumps(
        [list(ps.points), ps.resolution, list(ps.flags), list(ps.undecided)]
    ).encode()


# SHA-256 over the cluster, limit and accumulation point sets of the
# criterion-01 5x4 matrix at horizon 10^4 and eps 0.05, with zero always
# printed as 0.0.
MATRIX_SHA256 = "91c23db4186f89ba80a3f5827e8dbb2017a3efa103e5f773f7889c5800e051c3"


def test_criterion_01_point_sets_pinned():
    h = hashlib.sha256()
    for x in MATRIX_SEQUENCES:
        for ideal in il.BUILTINS:
            h.update(_pointset_bytes(cv.cluster_points(x, ideal, 10_000, 0.05)))
            h.update(_pointset_bytes(cv.limit_points(x, ideal, 10_000, eps=0.05)))
        h.update(_pointset_bytes(cv.accumulation_points(x, 10_000, 0.05)))
    assert h.hexdigest() == MATRIX_SHA256


MC_CASES = (
    (sq.AlternatingPair(0, 1), il.density0()),
    (sq.AlternatingPair(0, 1), il.summable()),
    (sq.ExplicitTail((), sq.RULE_INV), il.density0()),
    (sq.AlternatingPair(1, 0), il.fubini_odd()),
)

# SHA-256 over json.dumps(as_dict(), sort_keys=True) of the merged report and
# then each batch report, samples=100 in batches of 30, horizon=2000.
MC_BATCH_SHA256 = {
    "cluster": "57a42edf7253a4883bc5fa1432052148aaa00944ad260bf8cd2dce8e7c230642",
    "limit": "2efe2645f9a63ef4db07eded1f6389579a68577dd19c5821f7259c01e0a86494",
}


@pytest.mark.parametrize("kind", ["cluster", "limit"])
def test_batched_reports_pinned(kind):
    h = hashlib.sha256()
    for x, ideal in MC_CASES:
        merged, batches = mc.estimate_preservation(
            x, ideal, kind, 100, 2000, 0.05, seed=7, batch_size=30
        )
        assert [b.config["batch_end"] for b in batches] == [30, 60, 90, 100]
        assert "batch_end" not in merged.config
        for report in (merged, *batches):
            h.update(json.dumps(report.as_dict(), sort_keys=True).encode())
    assert h.hexdigest() == MC_BATCH_SHA256[kind]
