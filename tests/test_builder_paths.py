"""Paths through the game-mode builders that the older test files leave out.

The digest pin fixes the exact transcript bytes of every builder mode for a
fixed list of configs, so a refactor of the shared round loop cannot change
any recorded transcript without failing here.
"""
import hashlib
from fractions import Fraction

import pytest

from idealgames import games as gm
from idealgames import ideals as il
from idealgames import replay
from idealgames import seqspace as sq
from idealgames import setexpr as sx
from idealgames.errors import InvalidMove, OracleViolation

ALT = sq.AlternatingPair(0, 1)
HALF_BALL = gm.Ball.of(0, Fraction(1, 2))


def _generic(mode: str, oracles: str, seq: str = "alt(0,1)", rounds: int = 6):
    return {
        "command": "generic",
        "mode": mode,
        "seq": seq,
        "ideal": "density0",
        "rounds": rounds,
        "ball": {"center": "0", "radius": "1/2"},
        "strat_i": "linear:10",
        "oracles": oracles,
    }


def _series(oracles: str):
    return {
        "command": "series",
        "seq": "ratenum-signed",
        "rounds": 8,
        "c_step": 20,
        "oracles": oracles,
    }


CONFIGS = (
    [
        {
            "command": "game",
            "ideal": kind,
            "strat_i": f"randjump:{seed}",
            "strat_ii": "talagrand",
            "rounds": 12,
        }
        for kind in il.KINDS
        for seed in (0, 1)
    ]
    + [
        {
            "command": "game",
            "ideal": "density0",
            "strat_i": "linear:100",
            "strat_ii": "empty",
            "rounds": 5,
        },
        {
            "command": "generic",
            "mode": "sigma-witness",
            "seq": "alt(0,1)",
            "ideal": "density0",
            "rounds": 8,
            "etas": ["0", "1"],
            "m_max": 3,
        },
        _generic("sigma-game", "trivial"),
        _generic("sigma-game", "random:17"),
        _generic("sigma-game", "interval-hit"),
        _generic("sigma-game", "random:5", seq="alt(1/4,3/2)"),
        _generic("pi-game", "trivial", rounds=4),
        _generic("pi-game", "random:11", rounds=4),
        _series("none"),
        _series("forcing:2"),
        _series("forcing:3"),
        _series("forcing:4"),
    ]
)

# SHA-256 over the concatenated to_jsonl() bytes of CONFIGS, recorded on the
# code before the builders shared one round loop.
TRANSCRIPTS_SHA256 = (
    "2c93d65590e03610108b068563a63841fe59bfdc6afe01dd1b1532b8d265e0c0"
)


def test_transcript_digest_pinned():
    h = hashlib.sha256()
    for config in CONFIGS:
        h.update(replay.run_config(config).to_jsonl().encode())
    assert h.hexdigest() == TRANSCRIPTS_SHA256


class _Bad(gm.DenseOpenOracle):
    """Returns a cylinder that drops the stem it was given."""

    def refine(self, cyl):
        return sq.Cylinder(cyl.space, (99,))


class _WrongSpace(gm.DenseOpenOracle):
    """Returns the same stem in the other space."""

    def refine(self, cyl):
        other = sq.Space.PI if cyl.space is sq.Space.SIGMA else sq.Space.SIGMA
        return sq.Cylinder(other, cyl.stem)


BUILDERS = {
    "sigma-game": lambda oracles, rounds: gm.build_subseq_game(
        ALT, il.density0(), HALF_BALL, oracles, gm.LinearPlayerI(10), rounds
    ),
    "pi-game": lambda oracles, rounds: gm.build_perm_game(
        ALT, il.density0(), HALF_BALL, oracles, gm.LinearPlayerI(10), rounds
    ),
    "series": lambda oracles, rounds: gm.steer_series(
        sq.SignedRationalEnum(), lambda k: 20 * k, rounds, oracles=oracles
    ),
}


@pytest.mark.parametrize("mode", BUILDERS)
@pytest.mark.parametrize("bad", [_Bad, _WrongSpace])
def test_oracle_violation(mode, bad):
    with pytest.raises(OracleViolation):
        BUILDERS[mode]([bad()], 1)


@pytest.mark.parametrize("mode", BUILDERS)
def test_zero_rounds_undecided(mode):
    t = BUILDERS[mode]([], 0)
    assert t.rounds == ()
    assert t.stem == ()
    assert t.union_blocks == ()
    assert t.verdict.value is il.VerdictValue.UNDECIDED
    assert t.verdict.evidence == "no rounds played"
    assert not gm.validate_transcript(t)


class _Retreating(gm.PlayerI):
    """Plays c_k = 100 - 10k, so c_2 lies below c_1."""

    def __call__(self, rounds, k):
        return 100 - 10 * k


@pytest.mark.parametrize(
    "build", [gm.build_subseq_game, gm.build_perm_game, gm.play_laflamme]
)
def test_player_i_may_not_retreat(build):
    if build is gm.play_laflamme:
        args = (il.density0(), _Retreating(), gm.EmptyPlayerII(), 2)
    else:
        args = (ALT, il.density0(), HALF_BALL, [gm.TrivialOracle()] * 2,
                _Retreating(), 2)
    with pytest.raises(InvalidMove):
        build(*args)


NEGATIVE_ROUNDS = {
    "game": lambda: gm.play_laflamme(
        il.density0(), gm.LinearPlayerI(10), gm.EmptyPlayerII(), -2
    ),
    "sigma-witness": lambda: gm.build_subseq_witness(
        ALT, il.density0(), [0, 1], 3, -2
    ),
    "sigma-game": lambda: BUILDERS["sigma-game"]([], -2),
    "pi-game": lambda: BUILDERS["pi-game"]([], -2),
    "series": lambda: BUILDERS["series"](None, -2),
    "series-list": lambda: gm.steer_series(sq.SignedRationalEnum(), [20, 40, 60], -2),
}


@pytest.mark.parametrize("mode", NEGATIVE_ROUNDS)
def test_negative_rounds_rejected(mode):
    with pytest.raises(ValueError, match="rounds must be >= 0"):
        NEGATIVE_ROUNDS[mode]()


def test_wide_union_builds_twice_in_one_process():
    # 300 random-oracle rounds leave 340 union blocks.  Their set expression
    # is a balanced tree, so the reduce memo's equality test on the second
    # build does not recurse once per block.
    x = sq.AlternatingPair(Fraction(1, 4), Fraction(3, 2))
    ball = gm.Ball.of(Fraction(1, 4), Fraction(1, 2))

    def build():
        oracles = [gm.RandomExtensionOracle(7, k) for k in range(1, 301)]
        return gm.build_perm_game(x, il.density0(), ball, oracles,
                                  gm.LinearPlayerI(10), 300)

    first, second = build(), build()
    assert len(first.union_blocks) == 340
    assert first.to_jsonl() == second.to_jsonl()


def test_blocks_to_setexpr_is_balanced():
    blocks = tuple((4 * i + 1, 4 * i + 3) for i in range(1000))
    expr = gm.blocks_to_setexpr(blocks)

    def depth(e):
        return 1 + max(depth(e.left), depth(e.right)) if isinstance(e, sx.Union) else 0

    assert depth(expr) == 10  # ceil(log2(1000))
    assert sx.prefix(expr, 4000) == [v for lo, hi in blocks for v in range(lo, hi)]
