"""Point sets of transformed sequences gathered from one evaluation of x,
against the direct per-transform path, plus a Monte Carlo digest pin.

``preserve_outcome`` evaluates x once, through the last index its
transforms read, and gathers the values and grid codes of each
Transformed(x, t) at t's indices.  That needs ``x.values(m)`` to be a
prefix of ``x.values(T)`` for m <= T, checked first.  The reference below
is the direct path it replaced: it evaluates Transformed(x, t) itself,
snaps its values with ``np.unique`` and compares every value with every
candidate.  The pin fixes the bytes of a ratenum/summable estimate and of
its first outcomes, recorded on the code before the gather was written.
"""
import hashlib
import json
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idealgames import convergence as cv
from idealgames import dsl
from idealgames import ideals as il
from idealgames import mc
from idealgames import seqspace as sq
from idealgames import setexpr as sx
from idealgames.errors import OutsideFragment

# ---------------------------------------------------------------------------
# Prefix property of bulk evaluation

_nums = st.fractions(-3, 3, max_denominator=6)
_rules = st.one_of(
    st.sampled_from([sq.RULE_IDENT, sq.RULE_INV, sq.RULE_ALTSIGN]),
    _nums.map(lambda v: sq.TermRule("const", v)),
)
# Infinite sets only, so that set tails never run out of members.
_infinite_sets = st.one_of(
    st.builds(sx.ArithProg, st.integers(1, 9), st.integers(1, 5)),
    st.builds(sx.Tail, st.integers(1, 40)),
    st.builds(
        sx.IntervalSchedule,
        st.sampled_from(["linear", "pow2", "odd2"]).map(sx.generator),
        st.sampled_from([sx.Tail(1), sx.EVENS]),
    ),
    st.lists(st.integers(1, 60), max_size=6).map(
        lambda v: sx.Compl(sx.Finite(tuple(sorted(set(v)))))
    ),
)
_transforms = st.one_of(
    st.lists(st.integers(1, 400), max_size=10, unique=True).map(
        lambda v: sq.Subseq(tuple(sorted(v)))
    ),
    _infinite_sets.map(sq.Subseq.from_set),
    st.permutations(range(1, 9)).map(lambda p: sq.Perm(tuple(p))),
)
_base_seqs = st.one_of(
    st.builds(sq.AlternatingPair, _nums, _nums),
    st.builds(sq.ExplicitTail, st.lists(_nums, max_size=4).map(tuple), _rules),
    st.just(sq.RationalEnum()),
    st.just(sq.SignedRationalEnum()),
    st.builds(sq.PiecewiseOnSet, _infinite_sets, _rules, _rules),
)
_seqs = st.recursive(
    _base_seqs,
    lambda inner: st.builds(sq.Transformed, inner, _transforms),
    max_leaves=3,
)


@settings(max_examples=200, deadline=None)
@given(_seqs, st.integers(1, 300), st.integers(0, 900))
def test_values_are_prefixes(x, m, extra):
    short, long = x.values(m), x.values(m + extra)
    assert short.shape == (m + 1,) and np.isnan(short[0])
    assert short[1:].tobytes() == long[1 : m + 1].tobytes(), x.label()


# ---------------------------------------------------------------------------
# The direct path, kept as the reference


def _ref_candidates(x, vals, eps):
    pitch = eps / 2.0
    cands = list(np.unique(np.round(vals / pitch) + 0.0) * pitch)
    for s in x.specials():
        if not any(abs(s - c) <= pitch * 1e-9 for c in cands):
            cands.append(s)
    return np.sort(np.asarray(cands))


def _ref_point_set(x, limit, eps, verdict_at):
    vals = x.values(limit)[1:]
    cands = _ref_candidates(x, vals, eps)
    kept, undecided = [], []
    for c in cands.tolist():
        value = verdict_at(vals, c)
        if value is il.VerdictValue.NOT_IN:
            kept.append(c)
        elif value is il.VerdictValue.UNDECIDED:
            undecided.append(c)
    flags = ()
    if len(cands) and len(undecided) > 0.25 * len(cands):
        flags = (cv.UNDECIDED_FLAG,)
    return cv.PointSet(tuple(kept), eps, flags, tuple(undecided))


def _ref_accumulation(x, limit, eps, min_hits=50):
    def captures(vals, c):
        hits = int((np.abs(vals - c) <= eps).sum())
        return il.VerdictValue.NOT_IN if hits >= min_hits else il.VerdictValue.IN

    return _ref_point_set(x, limit, eps, captures)


def _ref_cluster(x, ideal, limit, eps):
    def hit_verdict(vals, c):
        hits = np.abs(vals - c) <= eps
        if ideal.kind == il.FIN:
            n = int(hits.sum())
            return il.VerdictValue.NOT_IN if n >= il.COUNT_CUTOFF else il.VerdictValue.IN
        expr = x.hit_set(Fraction(c) - Fraction(eps), Fraction(c) + Fraction(eps))
        if expr is not None:
            try:
                return il.classify_symbolic(ideal, expr).value
            except OutsideFragment:
                pass
        ind = np.zeros(limit + 1, dtype=bool)
        ind[1:] = hits
        return il.classify_horizon_counts(ideal, ind, limit).value

    return _ref_point_set(x, limit, eps, hit_verdict)


def _ref_limit(x, ideal, limit, eps, depth=6):
    splits = [round(j * limit / depth) for j in range(depth + 1)]

    def witness_verdict(vals, c):
        witness = np.zeros(limit + 1, dtype=bool)
        for j in range(1, depth + 1):
            lo, hi = splits[j - 1], splits[j]
            witness[lo + 1 : hi + 1] = np.abs(vals[lo:hi] - c) <= eps * 2.0**-j
        return il.classify_horizon_counts(ideal, witness, limit).value

    return _ref_point_set(x, limit, eps, witness_verdict)


_REF = {"cluster": _ref_cluster, "limit": _ref_limit}


def _bits(ps):
    """A point set with its floats as hex, so -0.0 and 0.0 differ."""
    return (
        tuple(map(float.hex, ps.points)),
        float.hex(ps.resolution),
        ps.flags,
        tuple(map(float.hex, ps.undecided)),
    )


# ---------------------------------------------------------------------------
# Gathered point sets against the reference

LIMIT = 1000
SEQS = ["alt(0,1)", "inv", "piecewise(ap(2,2),inv,altsign)", "ratenum",
        "ratenum-signed",
        # grid codes -0.0 (odd n) and 0.0 (large even n), both read as 0.0
        "piecewise(ap(2,2),inv,-1/1000)"]
EPSILONS = [0.04, 0.05, 0.0625]
TRANSFORMS = [
    sq.sample_subseq(mc.child_seed(7, 0), LIMIT),
    sq.sample_subseq(mc.child_seed(7, 1), LIMIT),
    sq.Subseq.from_set(sx.ArithProg(2, 2)),
    sq.Perm((3, 1, 2, 6, 5, 4)),
    # reads past 2 * LIMIT, so a shared x takes the direct path for it
    sq.Subseq((1, 3 * LIMIT)),
]


def _prepared(kind, x, ideal, eps):
    return cv._Prepared(kind, x, ideal, LIMIT, eps, 2 * LIMIT)


@pytest.mark.parametrize("text", SEQS)
@pytest.mark.parametrize("eps", EPSILONS)
def test_gathered_point_sets_match_direct_path(text, eps):
    x = dsl.parse_seq(text)
    for ideal in il.BUILTINS:
        for kind, ref in _REF.items():
            prep = _prepared(kind, x, ideal, eps)
            ref_base = ref(x, ideal, LIMIT, eps)
            assert _bits(prep.pointset) == _bits(ref_base)
            for t in TRANSFORMS:
                want = ref(sq.Transformed(x, t), ideal, LIMIT, eps)
                for base in (prep, None):
                    got = cv.preserve_outcome(kind, x, t, ideal, LIMIT, eps, base=base)
                    assert _bits(got.transformed) == _bits(want), (kind, ideal.kind, t)
                    assert got.base is prep.pointset or _bits(got.base) == _bits(ref_base)
                    assert got.matched == (cv.hausdorff(ref_base.points, want.points) <= eps)
                    assert got.decided == (not ref_base.undecided and not want.undecided)
    prep = _prepared("cluster", x, il.fin(), eps)
    for t in TRANSFORMS[:-1]:
        y = sq.Transformed(x, t)
        gathered = cv._Gathered(y, prep.view(t.indices(LIMIT)))
        got = cv.accumulation_points(gathered, LIMIT, eps)
        assert _bits(got) == _bits(_ref_accumulation(y, LIMIT, eps))


SQUARES = sx.Finite(tuple(k * k for k in range(1, 101)))
LIMIT_SEQS = [
    sq.AlternatingPair(0, 1),
    sq.ExplicitTail((), sq.RULE_INV),
    sq.PiecewiseOnSet(SQUARES, sq.RULE_IDENT, sq.CONST_ZERO),
    sq.RationalEnum(),
    sq.SignedRationalEnum(),
]


@pytest.mark.parametrize("x", LIMIT_SEQS, ids=lambda x: x.label()[:9])
@pytest.mark.parametrize("limit", [100, 1001, 10_000])
@pytest.mark.parametrize("depth", [1, 6, 7])
def test_limit_points_match_window_by_window_witness(x, limit, depth):
    # One tolerance array per call against a witness filled window by window.
    for ideal in il.BUILTINS:
        got = cv.limit_points(x, ideal, limit, 0.05, depth)
        assert _bits(got) == _bits(_ref_limit(x, ideal, limit, 0.05, depth)), ideal.kind


def test_interleaved_calls_on_one_x_match_separate_calls():
    # Every view writes its hit tests into buffers of its own, so a call
    # made between two others, on the same x or on a shared base, changes
    # neither: each result is the reference's for that call alone.
    x, eps = dsl.parse_seq("piecewise(ap(2,2),inv,altsign)"), 0.05
    for ideal in il.BUILTINS:
        preps = {kind: _prepared(kind, x, ideal, eps) for kind in _REF}
        calls = [lambda: cv.accumulation_points(x, LIMIT, eps)]
        want = [_ref_accumulation(x, LIMIT, eps)]
        for kind, ref in _REF.items():
            calls.append(lambda kind=kind: cv.point_set(kind, x, ideal, LIMIT, eps))
            want.append(ref(x, ideal, LIMIT, eps))
            for t in TRANSFORMS:
                calls.append(lambda kind=kind, t=t: cv.preserve_outcome(
                    kind, x, t, ideal, LIMIT, eps, base=preps[kind]
                ).transformed)
                want.append(ref(sq.Transformed(x, t), ideal, LIMIT, eps))
        got = []
        for i, call in enumerate(calls):
            got.append(_bits(call()))
            calls[7 * i % len(calls)]()
        assert got == [_bits(w) for w in want], ideal.kind


def test_base_prepared_for_another_call_is_refused():
    x, t = dsl.parse_seq("alt(0,1)"), TRANSFORMS[0]
    prep = _prepared("cluster", x, il.fin(), 0.05)
    for kind, y, ideal, limit, eps in [
        ("limit", x, il.fin(), LIMIT, 0.05),
        ("cluster", dsl.parse_seq("alt(1,0)"), il.fin(), LIMIT, 0.05),
        ("cluster", x, il.density0(), LIMIT, 0.05),
        ("cluster", x, il.fin(), LIMIT // 2, 0.05),
        ("cluster", x, il.fin(), LIMIT, 0.04),
    ]:
        with pytest.raises(ValueError, match="base was prepared for another"):
            cv.preserve_outcome(kind, y, t, ideal, limit, eps, base=prep)


# ---------------------------------------------------------------------------
# Digest pin

# SHA-256 over the reports and batches of a ratenum/summable estimate (cluster
# and limit, 100 samples, N=2000, batches of 40) and over the first ten
# outcomes of each, recorded before x was evaluated once per estimate.
RATENUM_SHA256 = "de6aa37689a9a583f62fb5bb986ce7b6028aaf1ab932d7bfb058c0a1dfe4e5d7"


def _ratenum_digest() -> str:
    x, ideal, horizon, eps, seed = sq.RationalEnum(), il.summable(), 2000, 0.05, 424_242

    def point_set(ps):
        return [list(ps.points), ps.resolution, list(ps.flags), list(ps.undecided)]

    h = hashlib.sha256()
    for kind in ("cluster", "limit"):
        report, batches = mc.estimate_preservation(
            x, ideal, kind, 100, horizon, eps, seed=seed, batch_size=40
        )
        h.update(json.dumps(
            [report.as_dict(), [b.as_dict() for b in batches]], sort_keys=True
        ).encode())
        for i in range(10):
            sigma = sq.sample_subseq(mc.child_seed(seed, i), horizon)
            o = cv.preserve_outcome(kind, x, sigma, ideal, horizon, eps)
            h.update(json.dumps(
                [o.matched, o.decided, point_set(o.base), point_set(o.transformed)]
            ).encode())
    return h.hexdigest()


def test_ratenum_summable_estimate_pinned():
    assert _ratenum_digest() == RATENUM_SHA256


def test_ratenum_pin_holds_while_other_threads_grow_the_tables(monkeypatch):
    # Readers of the rational tables take no lock.  With the switch interval
    # cut to a microsecond, threads interleave inside every growth step;
    # each must still read the enumeration's values, and the pinned
    # estimate its bytes.
    reference = sq.RationalEnum().values(200_000)
    monkeypatch.setattr(sq, "_RATIONALS", (np.empty(0, np.int64), np.empty(0, np.int64)))
    errors, digests = [], []

    def grow(first):
        for m in range(first, 200_001, 37_501):
            if sq.RationalEnum().values(m).tobytes() != reference[: m + 1].tobytes():
                errors.append(("values", m))

    def read(seed):
        rng = np.random.default_rng(seed)
        for n in rng.integers(1, 200_001, 300).tolist():
            if float(sq.RationalEnum().term(n)) != reference[n]:
                errors.append(("term", n))

    def pin():
        digests.append(_ratenum_digest())

    work = [(pin, ())] + [(grow, (i * 9_001 + 1,)) for i in range(3)]
    work += [(read, (i,)) for i in range(3)]
    threads = [threading.Thread(target=f, args=a) for f, a in work]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert digests == [RATENUM_SHA256]
