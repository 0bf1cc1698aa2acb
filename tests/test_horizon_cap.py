"""IDEALGAMES_HORIZON_CAP is enforced by the library, on every entry that
takes a horizon, on every index a stem or set tail names, and on every
index a builder searches."""
import json
import re
from fractions import Fraction

import pytest

from idealgames import (
    cli,
    convergence as cv,
    dsl,
    games as gm,
    ideals as il,
    mc,
    seqspace as sq,
    series as se,
    setexpr as sx,
)
from idealgames.errors import ExhaustedIndices, HorizonCapExceeded, SteeringStuck

ALT = sq.AlternatingPair(0, 1)


def over_cap():
    return pytest.raises(HorizonCapExceeded, match="IDEALGAMES_HORIZON_CAP=1000")


@pytest.fixture(autouse=True)
def cap_1000(monkeypatch):
    monkeypatch.setenv("IDEALGAMES_HORIZON_CAP", "1000")


def count_prefix_calls(monkeypatch):
    calls = []
    real = sx.prefix

    def counting(s, limit):
        calls.append(limit)
        return real(s, limit)

    monkeypatch.setattr(sx, "prefix", counting)
    return calls


class TestHorizons:
    def test_classify_horizon(self):
        with over_cap():
            il.classify_horizon(il.fin(), sx.Tail(1), 2000)

    def test_classify_checks_before_symbolic(self):
        # ap(1,2) is decidable symbolically, which needs no horizon at all.
        assert il.classify(il.fin(), sx.ArithProg(1, 2), 1000).mode == "Symbolic"
        with over_cap():
            il.classify(il.fin(), sx.ArithProg(1, 2), 2000)

    def test_classify_without_horizon_checks_only_its_fallback(self):
        assert il.classify(il.fin(), sx.ArithProg(1, 2)).mode == "Symbolic"
        with over_cap():
            il.classify(il.density0(), sx.Compl(sx.IntervalSchedule(sx.generator("pow2"), sx.EVENS)))

    @pytest.mark.parametrize("argv", [
        ["game", "--ideal", "fin", "--strat-ii", "empty", "--rounds", "5"],
        ["generic", "--mode", "pi-game", "--seq", "alt(0,1)", "--ideal",
         "density0", "--rounds", "5", "--oracles", "random", "--seed", "7"],
    ])
    def test_game_and_verify_under_a_low_cap(self, argv, tmp_path, capsys):
        # These verdicts classify the union of the played blocks, which is
        # decided symbolically and takes no horizon.
        path = tmp_path / "t.jsonl"
        assert cli.main(argv + ["--out", str(path)]) == 0
        final = json.loads(path.read_text().splitlines()[-1])
        assert final["verdict"]["mode"] == "Symbolic"
        assert cli.main(["verify", "--transcript", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_point_sets(self):
        with over_cap():
            cv.cluster_points(ALT, il.fin(), 2000, 0.05)
        with over_cap():
            cv.limit_points(ALT, il.fin(), 2000, eps=0.05)
        with over_cap():
            cv.accumulation_points(ALT, 2000, 0.05)

    def test_estimate_preservation(self):
        with over_cap():
            mc.estimate_preservation(ALT, il.fin(), "cluster", 100, 2000, 0.05, 1)

    def test_witness_soundness_report(self):
        with over_cap():
            il.witness_soundness_report(il.fin(), trials=1, horizon=2000)

    def test_partial_sums(self):
        with over_cap():
            se.partial_sums(ALT, 2000)

    def test_horizon_equal_to_cap_passes(self):
        assert il.classify_horizon(il.fin(), sx.Tail(1), 1000).decided
        assert cv.cluster_points(ALT, il.fin(), 1000, 0.05).points == (0.0, 1.0)
        assert len(se.partial_sums(ALT, 1000)) == 1000


class TestIndexSearches:
    """Each builder searches no index past the cap: a ball or window that no
    term meets fails at the cap, with no value read past it."""

    @pytest.mark.parametrize("error,names,build", [
        # alt(0,1) has no term in the ball of radius 1 around 5 ...
        (ExhaustedIndices, ", 1000]", lambda: gm.build_subseq_witness(
            ALT, il.density0(), [5], 1, 3)),
        # ... and none outside the ball of radius 2 around 0.
        (ExhaustedIndices, ", 1000]", lambda: gm.build_subseq_game(
            ALT, il.density0(), gm.Ball.of(0, 2), [gm.TrivialOracle()] * 3,
            gm.LinearPlayerI(10), 3)),
        (ExhaustedIndices, ", 1000]", lambda: gm.build_perm_game(
            ALT, il.density0(), gm.Ball.of(0, 2), [gm.TrivialOracle()] * 3,
            gm.LinearPlayerI(10), 3)),
        # series --seq ratenum-signed --rounds 6 --c-step 20 --oracles random:4
        (SteeringStuck, "(40, 1000]", lambda: gm.steer_series(
            sq.SignedRationalEnum(), lambda k: 20 * k, 6,
            oracles=[gm.RandomExtensionOracle(4, k) for k in range(1, 7)])),
    ])
    def test_builder_stops_at_the_cap(self, monkeypatch, error, names, build):
        tops = []
        for cls in (sq.AlternatingPair, sq.SignedRationalEnum):
            real = cls.values
            monkeypatch.setattr(
                cls, "values", lambda self, n, real=real: tops.append(n) or real(self, n)
            )
        with pytest.raises(error, match=re.escape(names)):
            build()
        assert tops and max(tops) <= 1000

    def test_pi_fill_searches_past_the_stem(self):
        # Only indices 1..5 avoid the ball, and rounds 1 and 2 take them all.
        x = dsl.parse_seq("seq([5,5,5,5,5],0)")
        with pytest.raises(ExhaustedIndices, match=re.escape("(5, 1000]")):
            gm.build_perm_game(x, il.density0(), gm.Ball.of(0, Fraction(1, 2)),
                               [gm.TrivialOracle()] * 3, gm.LinearPlayerI(3), 3)


class TestTransformIndices:
    def test_preserve_outcome_stem_beyond_cap(self):
        t = sq.Subseq((1, 3000))
        with over_cap():
            cv.preserve_outcome("cluster", ALT, t, il.fin(), 500, 0.05)

    def test_largest_index_equal_to_cap_passes(self):
        assert sq.Subseq((998,)).indices(3).tolist() == [0, 998, 999, 1000]
        with pytest.raises(HorizonCapExceeded, match="through index 1001, past"):
            sq.Subseq((999,)).indices(3)

    def test_huge_stem_index_raises_instead_of_wrapping(self, monkeypatch):
        monkeypatch.delenv("IDEALGAMES_HORIZON_CAP")
        with pytest.raises(HorizonCapExceeded, match="IDEALGAMES_HORIZON_CAP"):
            sq.Subseq((2**63 - 2,)).indices(4)

    def test_set_tail_enumerates_no_further_than_cap(self, monkeypatch):
        calls = count_prefix_calls(monkeypatch)
        t = sq.Subseq.from_set(sx.ArithProg(100, 100))
        with pytest.raises(HorizonCapExceeded, match="yielded only 10 members"):
            t.indices(500)
        assert max(calls) == 1000
        assert t.indices(10)[-1] == 1000

    def test_finite_set_tail_fails(self):
        t = sq.Subseq.from_set(sx.Finite(tuple(k * k for k in range(1, 101))))
        with pytest.raises(HorizonCapExceeded, match="yielded only 31 members"):
            t.indices(101)
        assert t.index(31) == 961

    def test_cli_preserve_stem_beyond_cap(self, capsys):
        code = cli.main(
            ["preserve", "--seq", "alt(0,1)", "--ideal", "fin",
             "--transform", "stem[1,3000000]", "-N", "1000"]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "error: stem index 3000000 reads x through index 3000998, "
            "past IDEALGAMES_HORIZON_CAP=1000"
        ]


class TestSetTailCache:
    def test_partial_sums_enumerate_a_handful_of_times(self, monkeypatch):
        monkeypatch.delenv("IDEALGAMES_HORIZON_CAP")
        x = sq.AlternatingPair(1, -1)
        evens = sq.Subseq(tuple(range(2, 4001, 2)))
        want = se.partial_sums(sq.Transformed(x, evens), 2000)
        calls = count_prefix_calls(monkeypatch)
        got = se.partial_sums(sq.Transformed(x, sq.Subseq.from_set(sx.EVENS)), 2000)
        assert got == want
        assert 1 <= len(calls) <= 4

    def test_cache_takes_no_part_in_equality(self):
        a, b = sq.Subseq.from_set(sx.EVENS), sq.Subseq.from_set(sx.EVENS)
        a.indices(100)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
