"""Random subsequence sampling against its bit-loop reference, plus digest pins.

``sample_subseq`` unpacks the inclusion draw with numpy; the reference below
reads the same draw one bit at a time.  The pins fix the bytes of the
criterion-08 Monte Carlo reports and of pi-game transcripts with long stems,
recorded on the code before sampling and the permutation fill were rewritten.
"""
import hashlib
import json
import random

import pytest

from idealgames import ideals as il
from idealgames import mc
from idealgames import replay
from idealgames import seqspace as sq
from idealgames import setexpr as sx

LIMITS = list(range(1, 71)) + [1000, 10_000]
SEEDS = [mc.child_seed(424_242, i) for i in range(50)]


def _reference_stem(seed, limit):
    bits = sq.draw_inclusion_bits(seed, limit)
    return tuple(n for n in range(1, limit + 1) if (bits >> (n - 1)) & 1)


@pytest.mark.parametrize("limit", LIMITS)
def test_sample_matches_bit_loop(limit):
    for seed in SEEDS:
        sigma = sq.sample_subseq(seed, limit)
        assert sigma.stem == _reference_stem(seed, limit), (seed, limit)
        assert all(type(v) is int for v in sigma.stem)
        assert sigma.tail == "shift"


@pytest.mark.parametrize("limit", LIMITS)
def test_sample_from_generator_consumes_same_stream(limit):
    for seed in SEEDS[:10]:
        ours, ref = random.Random(seed), random.Random(seed)
        assert sq.sample_subseq(ours, limit).stem == _reference_stem(ref, limit)
        assert ours.random() == ref.random(), (seed, limit)


@pytest.mark.parametrize(
    "stem", [(3, 2), (1, 4, 4), (2, 2), (0, 1), (0,), (1, 5, 3),
             # fields a Subseq label cannot carry, given as keyword arguments
             {"stem": (), "tail": "foo"},
             {"stem": (), "tail": "shift", "tail_set": sx.EVENS},
             {"stem": (1, 2), "tail": "set", "tail_set": sx.EVENS},
             {"stem": (), "tail": "set"}]
)
def test_bad_stem_rejected(stem):
    with pytest.raises(ValueError):
        sq.Subseq(**stem) if isinstance(stem, dict) else sq.Subseq(stem)


def test_equal_stems_equal_and_hash_equal():
    a = sq.sample_subseq(SEEDS[0], 500)
    b = sq.Subseq(tuple(a.stem))
    assert a == b and hash(a) == hash(b)
    assert a.label() == b.label()
    assert sq.Subseq((1, 2)) != sq.Subseq((1, 3))
    assert sq.Subseq() == sq.Subseq(())
    assert repr(sq.Subseq((1, 2))) == "Subseq(stem=(1, 2), tail='shift', tail_set=None)"


def test_indices_returns_a_fresh_array():
    sigma = sq.Subseq((2, 5, 9))
    first = sigma.indices(5)
    assert first.tolist() == [0, 2, 5, 9, 10, 11]
    first[1:] = -1
    assert sigma.indices(2).tolist() == [0, 2, 5]
    assert sigma.indices(5).tolist() == [0, 2, 5, 9, 10, 11]


# SHA-256 over json.dumps(as_dict(), sort_keys=True) of the three criterion-08
# cases at samples=100, horizon=2000, recorded before sampling used numpy.
MC_SHA256 = "fc4eda0b2c2e1690c3665c426c0e17a8e37a8510bc6f023ac3ab5fbae4b30835"


def test_criterion_08_reports_pinned():
    cases = [
        (sq.AlternatingPair(0, 1), il.fin()),
        (sq.AlternatingPair(0, 1), il.summable()),
        (sq.AlternatingPair(1, 0), il.fubini_odd()),
    ]
    h = hashlib.sha256()
    for x, ideal in cases:
        report, _ = mc.estimate_preservation(
            x, ideal, "cluster", 100, 2000, 0.05, seed=424_242
        )
        h.update(json.dumps(report.as_dict(), sort_keys=True).encode())
    assert h.hexdigest() == MC_SHA256


def _pi_game(oracles, seq="alt(0,1)", radius="1/2"):
    return {
        "command": "generic",
        "mode": "pi-game",
        "seq": seq,
        "ideal": "density0",
        "rounds": 5,
        "ball": {"center": "0", "radius": radius},
        "strat_i": "linear:400",
        "oracles": oracles,
    }


# SHA-256 of to_jsonl() and the stem length, recorded while the permutation
# fill still rescanned from index 1 for every position.
PI_GAME_PINS = [
    (_pi_game("trivial"), 2398,
     "0f3f19e3319d6c52a28c7948443034297548462ac61168143263930cfe4fac30"),
    (_pi_game("random:11"), 2392,
     "d240b169b04b793800777f7caf1b95b3220af2d7643a2002f57c688e166121e2"),
    (_pi_game("random:5", seq="alt(1/4,3/2)"), 2392,
     "fe5cd04ea167509a9d48868075b2b977c3a1f1c9cdfeb7f1ccd48795e4ce6560"),
    # Runs of consecutive ball-avoiding indices, unlike the alternating pairs.
    (_pi_game("random:3", seq="ratenum", radius="1/4"), 2111,
     "489d634b11c782aecd81a72229a2d4737e0f9312895b41696750d4d8e3380ced"),
]


@pytest.mark.parametrize(
    "config,stem_len,digest",
    PI_GAME_PINS,
    ids=["trivial", "random-11", "random-5-alt", "ratenum"],
)
def test_long_pi_game_transcript_pinned(config, stem_len, digest):
    t = replay.run_config(config)
    assert len(t.stem) == stem_len
    assert hashlib.sha256(t.to_jsonl().encode()).hexdigest() == digest
