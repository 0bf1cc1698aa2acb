import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from idealgames import (
    convergence as cv,
    games as gm,
    ideals as il,
    replay,
    seqspace as sq,
    setexpr as sx,
)
from idealgames.errors import ExhaustedIndices, InvalidMove, OracleViolation
from idealgames.periodic import merge_blocks
from test_ideals import full_blocks_within

ALT = sq.AlternatingPair(0, 1)
HALF_BALL = gm.Ball.of(0, Fraction(1, 2))


class ExplicitPlayerII(gm.PlayerII):
    """Plays a fixed list of moves, one per round, then nothing."""

    def __init__(self, moves):
        self.moves = moves

    def __call__(self, rounds, k, c):
        return gm.Move(self.moves[k - 1] if k <= len(self.moves) else ())


class TestTalagrandStrategy:
    def test_pow2_first_move(self):
        strat = gm.TalagrandPlayerII(il.talagrand_witness(il.density0()))
        assert strat((), 1, 5).blocks == ((8, 16),)

    def test_linear_first_move(self):
        strat = gm.TalagrandPlayerII(il.talagrand_witness(il.fin()))
        assert strat((), 1, 3).blocks == ((3, 4),)

    def test_second_move_skips_used(self):
        strat = gm.TalagrandPlayerII(il.talagrand_witness(il.density0()))
        t = gm.play_laflamme(il.density0(), gm.LinearPlayerI(100), strat, 2)
        assert t.rounds[1].F == ((256, 512),)

    def test_reused_instance_plays_like_fresh(self):
        for ideal in il.BUILTINS:
            w = il.talagrand_witness(ideal)
            reused = gm.TalagrandPlayerII(w)
            games = [(gm.LinearPlayerI(100), 20), (gm.RandomJumpPlayerI(3), 30),
                     (gm.LinearPlayerI(100), 20)]
            for strat_i, rounds in games:
                again = gm.play_laflamme(ideal, strat_i, reused, rounds)
                fresh = gm.play_laflamme(
                    ideal, strat_i, gm.TalagrandPlayerII(w), rounds
                )
                assert again.to_jsonl() == fresh.to_jsonl()

    def test_interleaved_games_on_one_instance(self):
        # Each call comes from the other game, so every call starts over.
        w = il.talagrand_witness(il.density0())
        shared = gm.TalagrandPlayerII(w)
        played = {"a": [], "b": []}
        for k in range(1, 9):
            for name, c in (("a", 100 * k), ("b", 7 * k)):
                rounds = tuple(played[name])
                move = shared(rounds, k, c)
                assert move == gm.TalagrandPlayerII(w)(rounds, k, c)
                played[name].append(gm.Round(k, c, move.blocks, note=move.note))

    def test_smallest_unclaimed_index_out_of_order(self):
        # The move reads only the last claim: blocks from c's first block
        # through it are claimed whenever c never falls.
        w = il.talagrand_witness(il.fin())
        strat = gm.TalagrandPlayerII(w)
        rounds = tuple(
            gm.Round(k, c, (w.block(j),), note={"block_index": j})
            for k, (c, j) in enumerate(((3, 3), (3, 4), (9, 9)), start=1)
        )
        for c in (1, 3, 9, 10):
            assert strat(rounds, 4, c).note == {"block_index": 10}
        assert strat(rounds, 4, 12).note == {"block_index": 12}
        assert strat((), 1, 0).note == {"block_index": 1}


_BLOCK = st.tuples(st.integers(1, 60), st.integers(0, 12)).map(
    lambda b: (b[0], b[0] + b[1])
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_BLOCK, max_size=4), max_size=12))
def test_add_blocks_matches_merge_blocks(moves):
    union = []
    added = []
    for blocks in moves:
        gm.add_blocks(union, tuple(blocks))
        added += blocks
        assert tuple(union) == merge_blocks(added)


class TestPlayLaflamme:
    def test_density0_twenty_rounds(self):
        # oracle: the union holds 20 full pow2 witness blocks
        ideal = il.density0()
        w = il.talagrand_witness(ideal)
        t = gm.play_laflamme(ideal, gm.LinearPlayerI(100), gm.TalagrandPlayerII(w), 20)
        assert t.verdict.value is il.VerdictValue.NOT_IN
        assert t.verdict.mode == "Symbolic"
        limit = max(hi for _, hi in t.union_blocks)
        assert full_blocks_within(w, gm.blocks_to_setexpr(t.union_blocks), limit) == 20

    def test_empty_strategy_loses(self):
        t = gm.play_laflamme(il.density0(), gm.LinearPlayerI(), gm.EmptyPlayerII(), 5)
        assert t.verdict.value is il.VerdictValue.IN
        assert t.union_blocks == ()

    def test_fin_sixty_rounds(self):
        ideal = il.fin()
        t = gm.play_laflamme(
            ideal, gm.ExponentialPlayerI(),
            gm.TalagrandPlayerII(il.talagrand_witness(ideal)), 60,
        )
        assert t.verdict.value is il.VerdictValue.NOT_IN
        assert gm.blocks_size(t.union_blocks) >= 60

    def test_zero_rounds_undecided(self):
        t = gm.play_laflamme(il.fin(), gm.LinearPlayerI(), gm.EmptyPlayerII(), 0)
        assert t.verdict.value is il.VerdictValue.UNDECIDED

    def test_invalid_move_detected(self):
        bad = ExplicitPlayerII([((1, 3),)])  # leaves [c, oo) for c > 1
        with pytest.raises(InvalidMove):
            gm.play_laflamme(il.fin(), gm.LinearPlayerI(100), bad, 1)

    def test_union_is_exact_bitlevel(self):
        moves = [((10, 12),), ((11, 15), (30, 31)), ()]
        t = gm.play_laflamme(
            il.fin(), gm.LinearPlayerI(1), ExplicitPlayerII(moves), 3
        )
        assert t.union_blocks == ((10, 15), (30, 31))
        assert not gm.validate_transcript(t)

    def test_randomized_victories_all_ideals(self):
        for ideal in il.BUILTINS:
            strat = gm.TalagrandPlayerII(il.talagrand_witness(ideal))
            for seed in range(10):
                t = gm.play_laflamme(ideal, gm.RandomJumpPlayerI(seed), strat, 50)
                assert t.verdict.value is il.VerdictValue.NOT_IN
                assert not gm.validate_transcript(t)


class TestWitnessBuilder:
    def test_blocks_land_in_scheduled_balls(self):
        tr = gm.build_subseq_witness(ALT, il.density0(), [0, 1], 3, 12)
        pairs = [(eta, m) for m in (1, 2, 3) for eta in (0, 1)]
        w = il.talagrand_witness(il.density0())
        # oracle: replay the stem and check each block lands in its ball
        for r in tr.rounds:
            eta, m = pairs[(r.k - 1) % len(pairs)]
            lo, hi = w.block(r.k)
            for n in range(lo, hi):
                assert abs(Fraction(ALT.term(tr.stem[n - 1])) - eta) <= Fraction(1, m)

    def test_each_pair_owns_enough_blocks(self):
        rounds = 12
        tr = gm.build_subseq_witness(ALT, il.density0(), [0, 1], 3, rounds)
        per_pair = {}
        for r in tr.rounds:
            key = (r.note["eta"], r.note["m"])
            per_pair[key] = per_pair.get(key, 0) + 1
        assert all(v >= rounds // 6 for v in per_pair.values())

    def test_verdict_and_stem(self):
        tr = gm.build_subseq_witness(ALT, il.density0(), [0, 1], 3, 12)
        assert tr.verdict.value is il.VerdictValue.NOT_IN
        assert all(b > a for a, b in zip(tr.stem, tr.stem[1:]))
        assert not gm.validate_transcript(tr)

    def test_preservation_of_both_point_sets(self):
        tr = gm.build_subseq_witness(ALT, il.density0(), [0, 1], 3, 12)
        sigma = sq.Subseq(tr.stem)
        assert cv.preserve_outcome("cluster", ALT, sigma, il.density0(), 10_000, 0.05).matched
        assert cv.preserve_outcome("limit", ALT, sigma, il.density0(), 10_000, 0.05).matched

    def test_zero_rounds(self):
        tr = gm.build_subseq_witness(ALT, il.density0(), [0, 1], 3, 0)
        assert tr.stem == ()
        assert tr.verdict.value is il.VerdictValue.UNDECIDED

    def test_empty_etas_rejected(self):
        with pytest.raises(ValueError, match="etas"):
            gm.build_subseq_witness(ALT, il.density0(), [], 3, 4)

    def test_exhausted_fiber(self, monkeypatch):
        monkeypatch.setenv("IDEALGAMES_HORIZON_CAP", "500")
        x = sq.PiecewiseOnSet(sx.Finite((4, 9)), sq.RULE_IDENT, sq.CONST_ZERO)
        with pytest.raises(ExhaustedIndices):
            gm.build_subseq_witness(x, il.density0(), [9], 3, 6)


class TestSigmaGameBuilder:
    def test_trivial_oracles_fill_from_complement(self):
        tr = gm.build_subseq_game(
            ALT, il.density0(), HALF_BALL,
            [gm.TrivialOracle()] * 10, gm.LinearPlayerI(10), 10,
        )
        # oracle: positions outside every window carry terms outside the ball
        windows = [(r.c, r.note["m_B"]) for r in tr.rounds]
        for n, idx in enumerate(tr.stem, 1):
            if not any(lo <= n <= hi for lo, hi in windows):
                assert not HALF_BALL.contains(ALT.term(idx))
        assert tr.union_blocks == ()
        assert not gm.validate_transcript(tr, ALT, HALF_BALL)

    def test_window_identity_under_random_oracles(self):
        for seed in range(6):
            oracles = [gm.RandomExtensionOracle(seed, k) for k in range(1, 11)]
            tr = gm.build_subseq_game(
                ALT, il.density0(), HALF_BALL, oracles, gm.LinearPlayerI(10), 10
            )
            assert not gm.validate_transcript(tr, ALT, HALF_BALL), seed

    def test_interval_hit_oracles_build_cluster_witness(self):
        w = il.talagrand_witness(il.density0())
        oracles = [gm.IntervalHitOracle(ALT, HALF_BALL, w) for _ in range(8)]
        tr = gm.build_subseq_game(
            ALT, il.density0(), HALF_BALL, oracles, gm.LinearPlayerI(10), 8
        )
        assert not gm.validate_transcript(tr, ALT, HALF_BALL)
        assert gm.blocks_size(tr.union_blocks) > 0

    def test_cylinder_nesting(self):
        oracles = [gm.RandomExtensionOracle(3, k) for k in range(1, 6)]
        tr = gm.build_subseq_game(
            ALT, il.density0(), HALF_BALL, oracles, gm.LinearPlayerI(10), 5
        )
        prev_b = None
        for r in tr.rounds:
            assert r.B[: len(r.A)] == r.A
            if prev_b is not None:
                assert r.A[: len(prev_b)] == prev_b
            prev_b = r.B
        assert tr.stem[: len(prev_b)] == prev_b

    def test_oracle_violation(self):
        class Bad(gm.DenseOpenOracle):
            def refine(self, cyl):
                return sq.Cylinder(cyl.space, (99,))

        with pytest.raises(OracleViolation):
            gm.build_subseq_game(
                ALT, il.density0(), HALF_BALL, [Bad()], gm.LinearPlayerI(10), 1
            )


class TestPermBuilder:
    def test_checkpoints_close_prefixes(self):
        tr = gm.build_perm_game(
            ALT, il.density0(), HALF_BALL,
            [gm.TrivialOracle()] * 5, gm.LinearPlayerI(10), 5,
        )
        for r in tr.rounds:
            cp = r.note["checkpoint"]
            assert sorted(tr.stem[:cp]) == list(range(1, cp + 1))
        assert not gm.validate_transcript(tr, ALT, HALF_BALL)

    def test_single_round_is_initial_segment_perm(self):
        tr = gm.build_perm_game(
            ALT, il.density0(), HALF_BALL,
            [gm.TrivialOracle()], gm.LinearPlayerI(10), 1,
        )
        assert sorted(tr.stem) == list(range(1, len(tr.stem) + 1))

    def test_fill_uses_smallest_unused_ball_avoiders(self):
        tr = gm.build_perm_game(
            ALT, il.density0(), HALF_BALL,
            [gm.TrivialOracle()] * 2, gm.LinearPlayerI(10), 2,
        )
        # ball around 0 excludes odd positions of alt(0,1): E = evens,
        # so the first fill must be 2, 4, 6, ...
        assert tr.rounds[0].A == tuple(range(2, 2 * 10, 2))

    def test_perm_preserves_cluster_points(self):
        tr = gm.build_perm_game(
            ALT, il.density0(), HALF_BALL,
            [gm.RandomExtensionOracle(11, k) for k in range(1, 6)],
            gm.LinearPlayerI(10), 5,
        )
        pi = sq.Perm(tr.stem)
        assert cv.preserve_outcome("cluster", ALT, pi, il.density0(), 10_000, 0.05).matched


class TestSteering:
    def test_filler_positions_stay_strictly_inside(self):
        x = sq.SignedRationalEnum()
        tr = gm.steer_series(x, lambda k: 20 * k, 10)
        s = Fraction(0)
        for idx in tr.stem:
            s += Fraction(x.term(idx))
            assert abs(s) < 1
        assert tr.union_blocks == ()
        assert tr.verdict.value is il.VerdictValue.IN

    def test_first_pick_is_index_one(self):
        x = sq.SignedRationalEnum()
        tr = gm.steer_series(x, lambda k: 5 * k, 1)
        assert tr.stem[0] == 1

    def test_forced_exceedances_match_moves(self):
        x = sq.SignedRationalEnum()
        oracles = [
            gm.ForcingOracle(x) if k % 3 == 0 else gm.TrivialOracle()
            for k in range(1, 11)
        ]
        tr = gm.steer_series(x, lambda k: 25 * k, 10, oracles=oracles)
        assert gm.blocks_size(tr.union_blocks) > 0
        s = Fraction(0)
        exceed = []
        for n, idx in enumerate(tr.stem, 1):
            s += Fraction(x.term(idx))
            if abs(s) >= 1:
                exceed.append(n)
        assert gm.blocks_from_values(exceed) == tr.union_blocks
        # every forced position sits in exactly one move
        seen = [n for lo, hi in tr.union_blocks for n in range(lo, hi)]
        assert len(seen) == len(set(seen))

    def test_forcing_oracle_restarts_on_an_unrelated_stem(self):
        x = sq.SignedRationalEnum()
        reused = gm.ForcingOracle(x)
        reused.refine(sq.Cylinder(sq.Space.SIGMA, (1, 3, 5)))
        for stem in ((2, 4), (1, 2), ()):
            cyl = sq.Cylinder(sq.Space.SIGMA, stem)
            assert reused.refine(cyl) == gm.ForcingOracle(x).refine(cyl)

    def test_monotone_schedule_required(self):
        with pytest.raises(InvalidMove):
            gm.steer_series(sq.SignedRationalEnum(), [10, 10], 2)


class TestTranscriptIO:
    def test_jsonl_round_trip(self):
        tr = gm.build_subseq_game(
            ALT, il.density0(), HALF_BALL,
            [gm.RandomExtensionOracle(5, k) for k in range(1, 5)],
            gm.LinearPlayerI(10), 4,
        )
        text = tr.to_jsonl()
        assert gm.Transcript.from_jsonl(text).to_jsonl() == text

    def test_replay_from_config(self):
        config = {
            "command": "generic",
            "mode": "sigma-game",
            "seq": "alt(0,1)",
            "ideal": "density0",
            "rounds": 6,
            "ball": {"center": "0", "radius": "1/2"},
            "strat_i": "linear:10",
            "oracles": "random:17",
        }
        t1 = replay.run_config(config)
        t2 = replay.run_config(config)
        assert t1.to_jsonl() == t2.to_jsonl()
        assert not replay.verify_transcript(t1)

    def test_tampered_transcript_detected(self):
        config = {
            "command": "game",
            "ideal": "density0",
            "strat_i": "linear:100",
            "strat_ii": "talagrand",
            "rounds": 5,
        }
        t = replay.run_config(config)
        tampered = gm.Transcript(
            t.mode, t.ideal, t.rounds[:-1], t.union_blocks, t.verdict,
            t.stem, t.space, t.config,
        )
        assert replay.verify_transcript(tampered)


_GAME = {"command": "game", "ideal": "density0", "strat_i": "linear:100",
         "strat_ii": "talagrand", "rounds": 5}
_SIGMA_GAME = {"command": "generic", "mode": "sigma-game", "seq": "alt(0,1)",
               "ideal": "density0", "rounds": 6,
               "ball": {"center": "0", "radius": "1/2"},
               "strat_i": "linear:10", "oracles": "random:17"}
_PI_GAME = {**_SIGMA_GAME, "mode": "pi-game", "rounds": 5, "oracles": "random:7"}


def _with_round(t, i, **changes):
    rounds = list(t.rounds)
    rounds[i] = dataclasses.replace(rounds[i], **changes)
    return dataclasses.replace(t, rounds=tuple(rounds))


def _without_moves(t):
    assert t.union_blocks
    t = dataclasses.replace(t, union_blocks=())
    for i in range(len(t.rounds)):
        t = _with_round(t, i, F=())
    return t


@pytest.mark.parametrize("config, tamper, problem", [
    (_GAME, lambda t: _with_round(t, 2, c=150), "round 3: c not monotone"),
    (_GAME, lambda t: _with_round(t, 1, c=300), "round 2: F leaves [c, oo)"),
    (_GAME, lambda t: dataclasses.replace(t, union_blocks=((128, 2048),)),
     "unionF differs from the union of round moves"),
    (_SIGMA_GAME, lambda t: _with_round(t, 0, B=t.rounds[0].B[:-1] + (99,)),
     "round 2: A does not extend previous B"),
    (_SIGMA_GAME, lambda t: _with_round(t, 5, B=t.rounds[5].A[:-1]),
     "round 6: B does not extend A"),
    (_SIGMA_GAME, lambda t: dataclasses.replace(t, stem=t.stem[:-1]),
     "output stem does not lie in the last cylinder"),
    (_SIGMA_GAME, lambda t: dataclasses.replace(t, stem=t.stem + t.stem[-1:]),
     "sigma stem not strictly increasing"),
    (_SIGMA_GAME, _without_moves, "recomputed window hit set differs from unionF"),
    (_PI_GAME, lambda t: dataclasses.replace(t, stem=t.stem + t.stem[:1]),
     "pi stem values not distinct"),
    (_PI_GAME, lambda t: _with_round(t, 0, note={**t.rounds[0].note, "checkpoint": 60}),
     "round 1: checkpoint 60 not a bijection"),
], ids=["game-c", "game-F", "game-union", "sigma-A", "sigma-B", "sigma-stem",
        "sigma-increasing", "sigma-window", "pi-distinct", "pi-checkpoint"])
def test_each_structural_check_fires(config, tamper, problem):
    t = replay.run_config(config)
    scope = () if config is _GAME else (ALT, HALF_BALL)
    assert not gm.validate_transcript(t, *scope)
    tampered = tamper(t)
    assert problem in gm.validate_transcript(tampered, *scope)
    assert problem in replay.verify_transcript(tampered)
