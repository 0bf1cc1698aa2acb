"""Acceptance gate: one test per criterion, printed pass lines included.

Run as `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; every tolerance below is fixed, nothing is calibrated later.
"""
import time
from fractions import Fraction

from idealgames import (
    cli,
    convergence as cv,
    games as gm,
    ideals as il,
    mc,
    replay,
    seqspace as sq,
    setexpr as sx,
)

EPS = 0.05
HORIZON = 10_000

SQUARES = sx.Finite(tuple(k * k for k in range(1, 101)))
MATRIX_SEQUENCES = (
    sq.AlternatingPair(0, 1),
    sq.ExplicitTail((), sq.RULE_INV),
    sq.PiecewiseOnSet(SQUARES, sq.RULE_IDENT, sq.CONST_ZERO),
    sq.RationalEnum(),
    sq.SignedRationalEnum(),
)


def _ok(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def _contained_up_to_eps(inner, outer, eps) -> bool:
    return all(any(abs(p - q) <= eps for q in outer) for p in inner)


def test_criterion_01_inclusion_chain():
    start = time.monotonic()
    for x in MATRIX_SEQUENCES:
        for ideal in il.BUILTINS:
            lam = cv.limit_points(x, ideal, HORIZON, eps=EPS)
            gam = cv.cluster_points(x, ideal, HORIZON, EPS)
            acc = cv.accumulation_points(x, HORIZON, EPS)
            assert _contained_up_to_eps(lam.points, gam.points, EPS), (
                x.label(), ideal.kind)
            assert _contained_up_to_eps(gam.points, acc.points, EPS), (
                x.label(), ideal.kind)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"matrix took {elapsed:.1f}s"
    _ok(1, f"limit/cluster/accumulation chain holds on 5x4 matrix "
           f"({elapsed:.1f}s)")


def test_criterion_02_fin_collapse():
    for x in MATRIX_SEQUENCES:
        acc = cv.accumulation_points(x, HORIZON, EPS)
        gam = cv.cluster_points(x, il.fin(), HORIZON, EPS)
        assert gam.points == acc.points, x.label()
    _ok(2, "cluster points for the finite-sets ideal equal accumulation "
           "points exactly")


def test_criterion_03_witness_soundness():
    start = time.monotonic()
    for ideal in il.BUILTINS:
        report = il.witness_soundness_report(
            ideal, trials=100, seed=20_240, horizon=100_000
        )
        assert report.fraction == 1.0, (ideal.kind, report.failures)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"soundness took {elapsed:.1f}s"
    _ok(3, f"witness soundness 1.00 over 100 trials x 4 ideals at 1e5 "
           f"({elapsed:.1f}s)")


def test_criterion_04_game_victory():
    for ideal in il.BUILTINS:
        for seed in range(100):
            config = {
                "command": "game",
                "ideal": ideal.kind,
                "strat_i": f"randjump:{seed}",
                "strat_ii": "talagrand",
                "rounds": 50,
            }
            t = replay.run_config(config)
            assert t.verdict.value is il.VerdictValue.NOT_IN, (ideal.kind, seed)
            assert not replay.verify_transcript(t), (ideal.kind, seed)
    _ok(4, "interval strategy wins 100/100 randomized playouts per ideal "
           "at 50 rounds, transcripts re-verify")


def test_criterion_05_generic_builders_preserve():
    x = sq.AlternatingPair(0, 1)
    ideal = il.density0()

    start = time.monotonic()
    tr = gm.build_subseq_witness(x, ideal, [0, 1], 3, 12)
    sigma = sq.Subseq(tr.stem)
    assert cv.preserve_outcome("cluster", x, sigma, ideal, HORIZON, EPS).matched
    assert cv.preserve_outcome("limit", x, sigma, ideal, HORIZON, EPS).matched
    sigma_elapsed = time.monotonic() - start
    assert sigma_elapsed < 5.0

    start = time.monotonic()
    ball = gm.Ball.of(0, Fraction(1, 2))
    tp = gm.build_perm_game(
        x, ideal, ball, [gm.TrivialOracle()] * 5, gm.LinearPlayerI(10), 5
    )
    for r in tp.rounds:
        cp = r.note["checkpoint"]
        assert sorted(tp.stem[:cp]) == list(range(1, cp + 1)), r.k
    pi = sq.Perm(tp.stem)
    assert cv.preserve_outcome("cluster", x, pi, ideal, HORIZON, EPS).matched
    pi_elapsed = time.monotonic() - start
    assert pi_elapsed < 5.0
    _ok(5, f"generic subsequence preserves cluster+limit points "
           f"({sigma_elapsed:.1f}s); permutation checkpoints bijective and "
           f"cluster-preserving ({pi_elapsed:.1f}s)")


def test_criterion_06_window_hit_identity():
    x = sq.AlternatingPair(0, 1)
    ball = gm.Ball.of(0, Fraction(1, 2))
    for seed in range(20):
        oracles = [gm.RandomExtensionOracle(seed, k) for k in range(1, 11)]
        strat = gm.RandomJumpPlayerI(seed, max_jump=25)
        t = gm.build_subseq_game(x, il.density0(), ball, oracles, strat, 10)
        windows = [(r.c, r.note["m_B"]) for r in t.rounds]
        recomputed = gm.blocks_from_values(
            n
            for n in range(1, len(t.stem) + 1)
            if ball.contains(x.term(t.stem[n - 1]))
            and any(lo <= n <= hi for lo, hi in windows)
        )
        assert recomputed == t.union_blocks, seed
    _ok(6, "recorded move union equals recomputed window hit set, "
           "20 randomized runs, exact")


def test_criterion_07_series_steering():
    x = sq.SignedRationalEnum()
    t = gm.steer_series(x, lambda k: 20 * k, 10)
    s = Fraction(0)
    for idx in t.stem:
        s += Fraction(x.term(idx))
        assert abs(s) < 1
    assert t.union_blocks == ()

    oracles = [
        gm.ForcingOracle(x) if k % 3 == 0 else gm.TrivialOracle()
        for k in range(1, 11)
    ]
    forced = gm.steer_series(x, lambda k: 25 * k, 10, oracles=oracles)
    assert gm.blocks_size(forced.union_blocks) > 0
    s = Fraction(0)
    exceed = []
    for n, idx in enumerate(forced.stem, 1):
        s += Fraction(x.term(idx))
        if abs(s) >= 1:
            exceed.append(n)
    assert gm.blocks_from_values(exceed) == forced.union_blocks
    _ok(7, "steering keeps |S_n| < 1 at every filler position (exact); "
           "forced exceedance set equals the move union")


def test_criterion_08_measure_fractions():
    cases = [
        (sq.AlternatingPair(0, 1), il.fin(), "ge-raw", 0.99),
        (sq.AlternatingPair(0, 1), il.summable(), "ge-decided", 0.95),
        (sq.AlternatingPair(1, 0), il.fubini_odd(), "le-raw", 0.05),
    ]
    lines = []
    for x, ideal, mode, bound in cases:
        start = time.monotonic()
        report, _ = mc.estimate_preservation(
            x, ideal, "cluster", 1000, HORIZON, EPS, seed=424_242
        )
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, (ideal.kind, elapsed)
        if mode == "ge-raw":
            assert report.fraction >= bound, report.as_dict()
        elif mode == "ge-decided":
            assert report.fraction_decided >= bound, report.as_dict()
            assert report.undecided < 0.3 * report.samples, report.as_dict()
        else:
            assert report.fraction <= bound, report.as_dict()
        lines.append(
            f"{x.label()}/{ideal.kind}: raw={report.fraction:.3f} "
            f"decided={report.fraction_decided:.3f} "
            f"undecided={report.undecided} ({elapsed:.0f}s)"
        )
    _ok(8, "preservation fractions: " + "; ".join(lines))


def test_criterion_09_cylinder_masses():
    stems = [
        stem
        for top in range(1, 7)
        for stem in _stems_ending_at(top)
    ]
    assert len(stems) == 63
    for stem in stems:
        report = mc.dyadic_cylinder_mass(stem, 10_000, seed=77)
        p = 2.0 ** -stem[-1]
        se = (p * (1 - p) / 10_000) ** 0.5
        assert abs(report.fraction - p) <= 3 * se, (stem, report.fraction, p)
    _ok(9, "all 63 dyadic cylinder masses within 3 standard errors of "
           "2**-a_j at 1e4 samples")


def _stems_ending_at(top):
    below = list(range(1, top))
    out = []
    for mask in range(1 << len(below)):
        chosen = [below[i] for i in range(len(below)) if (mask >> i) & 1]
        out.append(tuple(chosen + [top]))
    return out


def test_criterion_10_determinism(tmp_path):
    def run_all(into):
        into.mkdir()
        jobs = [
            ["classify", "--ideal", "density0", "--set", "ap(2,2)",
             "--out", str(into / "classify.json")],
            ["cluster", "--seq", "ratenum", "--ideal", "density0",
             "-N", "10000", "--out", str(into / "cluster.json")],
            ["game", "--ideal", "summable", "--strat-i", "randjump:9",
             "--seed", "9", "--rounds", "50", "--out", str(into / "game.jsonl")],
            ["generic", "--mode", "sigma-witness", "--seq", "alt(0,1)",
             "--ideal", "density0", "--rounds", "12",
             "--out", str(into / "witnesssigma.jsonl")],
            ["generic", "--mode", "sigma-game", "--seq", "alt(0,1)",
             "--ideal", "density0", "--rounds", "8", "--oracles", "random",
             "--seed", "5", "--out", str(into / "gamesigma.jsonl")],
            ["generic", "--mode", "pi-game", "--seq", "alt(0,1)",
             "--ideal", "density0", "--rounds", "5", "--oracles", "random",
             "--seed", "5", "--out", str(into / "gamepi.jsonl")],
            ["series", "--seq", "ratenum-signed", "--rounds", "10",
             "--c-step", "20", "--oracles", "forcing:3",
             "--out", str(into / "series.jsonl")],
            ["mc", "--seq", "alt(0,1)", "--ideal", "fin", "--samples", "100",
             "-N", "2000", "--seed", "7", "--out", str(into / "mc.json"),
             "--csv", str(into / "mc.csv"), "--batch-size", "25"],
            ["witness", "--ideal", "summable", "--trials", "20", "--seed", "3",
             "--out", str(into / "witness.json")],
        ]
        for argv in jobs:
            assert cli.main(argv) == 0, argv
        return sorted(p.name for p in into.iterdir())

    names_a = run_all(tmp_path / "a")
    names_b = run_all(tmp_path / "b")
    assert names_a == names_b
    for name in names_a:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name
    _ok(10, f"{len(names_a)} report/transcript files byte-identical across "
            "two seeded runs")
