"""Seeded inputs, items and output checks for the four benchmark workloads.

An item is one top-level public call into idealgames.  Item ``i`` of a
workload depends only on the workload seed and ``i``, so two runs with the
same seed feed the library the same inputs in the same order.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

from idealgames import cli
from idealgames import convergence as cv
from idealgames import ideals as il
from idealgames import mc
from idealgames import seqspace as sq
from idealgames import setexpr as sx


def derive_seed(workload: str, seed: int, index: int) -> int:
    """48-bit seed for one item, stable across Python versions."""
    text = f"{workload}:{seed}:{index}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:6], "big")


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _small_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


class Workload:
    """One workload: item inputs, the item call, and its checks.

    ``run`` is the timed call.  ``check`` judges one item's output;
    ``failed_by_aggregate`` judges checks that need every passing item of
    the run, and is only given them when ``aggregate`` is set.
    ``output_bytes`` is the canonical output that the run digests.
    """

    name = ""
    cycle = 1  # item kinds repeat with this period
    digest_items = 8
    aggregate = False

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir

    def rng(self, index: int) -> random.Random:
        return random.Random(derive_seed(self.name, self.seed, index))

    def make_input(self, index: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> bool:
        return True

    def output_bytes(self, inp, out) -> bytes:
        raise NotImplementedError

    def failed_by_aggregate(self, done: list[tuple[int, object, object]]) -> set[int]:
        return set()


# ---------------------------------------------------------------------------
# mc-preserve: criterion-08 Monte Carlo preservation estimates

MC_CASES = (
    ("alt(0,1)/fin", sq.AlternatingPair(0, 1), il.fin(), "ge-raw", 0.99),
    ("alt(0,1)/summable", sq.AlternatingPair(0, 1), il.summable(), "ge-decided", 0.95),
    ("alt(1,0)/fubini-odd", sq.AlternatingPair(1, 0), il.fubini_odd(), "le-raw", 0.05),
)


def mc_bound_holds(mode: str, bound: float, report: mc.McReport) -> bool:
    if mode == "ge-raw":
        return report.fraction >= bound
    if mode == "ge-decided":
        return (
            report.fraction_decided >= bound
            and report.undecided < 0.3 * report.samples
        )
    return report.fraction <= bound


class McPreserve(Workload):
    name = "mc-preserve"
    cycle = len(MC_CASES)
    digest_items = 6
    aggregate = True

    def make_input(self, index):
        case = index % self.cycle
        return case, derive_seed(self.name, self.seed, index)

    def run(self, inp):
        case, master = inp
        _, x, ideal, _, _ = MC_CASES[case]
        return mc.estimate_preservation(
            x, ideal, "cluster", samples=100, horizon=10_000, eps=0.05,
            seed=master,
        )

    def output_bytes(self, inp, out):
        report, batches = out
        return _dumps([report.as_dict(), [b.as_dict() for b in batches]])

    def failed_by_aggregate(self, done):
        failed: set[int] = set()
        for case, (_, _, _, mode, bound) in enumerate(MC_CASES):
            members = [(i, out) for i, inp, out in done if inp[0] == case]
            if not members:
                continue
            merged = mc.merge_reports(*(out[0] for _, out in members))
            if not mc_bound_holds(mode, bound, merged):
                failed.update(i for i, _ in members)
        return failed


# ---------------------------------------------------------------------------
# witness-horizon: Talagrand witness soundness at a large horizon


class WitnessHorizon(Workload):
    """One item is a soundness report for each built-in ideal.

    The fin report costs about twenty times the density0 one, so single
    reports would make a two-humped latency mix whose median jumps between
    the humps; a whole round of ideals is one latency.
    """

    name = "witness-horizon"
    digest_items = 2

    def make_input(self, index):
        count = len(il.BUILTINS)
        return [
            (ideal, derive_seed(self.name, self.seed, count * index + k))
            for k, ideal in enumerate(il.BUILTINS)
        ]

    def run(self, inp):
        trials = 2 if self.tiny else 10
        return [
            il.witness_soundness_report(ideal, trials=trials, seed=seed, horizon=100_000)
            for ideal, seed in inp
        ]

    def check(self, inp, out):
        return all(report.fraction == 1.0 for report in out)

    def output_bytes(self, inp, out):
        return _dumps([report.as_dict() for report in out])


# ---------------------------------------------------------------------------
# pointset-matrix: limit/cluster/accumulation on seeded criterion-01 cells

POINTSET_KINDS = ("alt", "inv", "piecewise", "ratenum", "ratenum-signed")
POINTSET_EPS = (0.04, 0.05, 0.0625)


def _contained_up_to_eps(inner, outer, eps) -> bool:
    return all(any(abs(p - q) <= eps for q in outer) for p in inner)


class PointsetMatrix(Workload):
    """One item is the whole matrix: every sequence kind against every ideal.

    Half of the cells take under 10 ms and half take 20-50 ms, so the
    median of single cells would sit in the gap between them.
    """

    name = "pointset-matrix"
    digest_items = 2
    cells = len(POINTSET_KINDS) * len(il.BUILTINS)

    @property
    def horizon(self) -> int:
        return 1_000 if self.tiny else 10_000

    def make_input(self, index):
        return [self.make_cell(self.cells * index + cell, cell) for cell in range(self.cells)]

    def make_cell(self, stream: int, cell: int):
        kind = POINTSET_KINDS[cell // len(il.BUILTINS)]
        ideal = il.BUILTINS[cell % len(il.BUILTINS)]
        rng = self.rng(stream)
        eps = rng.choice(POINTSET_EPS)
        if kind == "alt":
            x = sq.AlternatingPair(_small_fraction(rng), _small_fraction(rng))
        elif kind == "inv":
            prefix = tuple(_small_fraction(rng) for _ in range(rng.randint(2, 6)))
            x = sq.ExplicitTail(prefix, sq.RULE_INV)
        elif kind == "piecewise":
            size = rng.randint(9, 11) if self.tiny else rng.randint(90, 110)
            on_set = sx.Finite(tuple(rng.sample(range(1, self.horizon + 1), size)))
            x = sq.PiecewiseOnSet(on_set, sq.RULE_IDENT, sq.CONST_ZERO)
        elif kind == "ratenum":
            x = sq.RationalEnum()
        else:
            x = sq.SignedRationalEnum()
        return x, ideal, eps

    def run(self, inp):
        n = self.horizon
        return [
            (
                cv.limit_points(x, ideal, n, eps=eps),
                cv.cluster_points(x, ideal, n, eps),
                cv.accumulation_points(x, n, eps),
            )
            for x, ideal, eps in inp
        ]

    def check(self, inp, out):
        return all(self.cell_holds(cell, sets) for cell, sets in zip(inp, out))

    @staticmethod
    def cell_holds(cell, sets) -> bool:
        x, ideal, eps = cell
        lam, gam, acc = sets
        chain = _contained_up_to_eps(
            lam.points, gam.points, eps
        ) and _contained_up_to_eps(gam.points, acc.points, eps)
        collapse = ideal.kind != il.FIN or gam.points == acc.points
        return chain and collapse

    def output_bytes(self, inp, out):
        return _dumps([
            [x.label(), ideal.kind, eps]
            + [[ps.points, ps.flags, ps.undecided] for ps in sets]
            for (x, ideal, eps), sets in zip(inp, out)
        ])


# ---------------------------------------------------------------------------
# games-replay: CLI round trips, each written to a file and verified


GAME_KINDS = il.KINDS + ("sigma-witness", "sigma-game", "pi-game", "series")


class GamesReplay(Workload):
    name = "games-replay"
    cycle = len(GAME_KINDS)
    digest_items = 16

    def make_input(self, index):
        kind = GAME_KINDS[index % self.cycle]
        rng = self.rng(index)
        seed = rng.randrange(1_000_000)
        if kind in il.KINDS:
            rounds = 10 if self.tiny else 50
            return kind, [
                "game", "--ideal", kind, "--strat-i", f"randjump:{seed}",
                "--strat-ii", "talagrand", "--rounds", str(rounds),
                "--seed", str(seed),
            ]
        if kind == "sigma-witness":
            # The two values lie more than 1 apart, so each ball of radius
            # 1/m around one of them holds that value only and every item
            # scans the same number of indices.
            v0 = _small_fraction(rng)
            v1 = v0 + 1 + Fraction(rng.randint(1, 4), 4)
            return kind, [
                "generic", "--mode", "sigma-witness", "--seq", f"alt({v0},{v1})",
                "--ideal", "density0", f"--etas={v0};{v1}",
                "--rounds", "6" if self.tiny else "10",
            ]
        if kind in ("sigma-game", "pi-game"):
            # One value inside the default ball B(0, 1/2) and one outside,
            # so both the hit and the avoid predicates find indices.
            inside = Fraction(rng.randint(-1, 1), 4)
            outside = Fraction(rng.choice((-1, 1)) * rng.randint(3, 6), 4)
            pair = (inside, outside) if rng.random() < 0.5 else (outside, inside)
            rounds = 8 if kind == "sigma-game" else 5
            return kind, [
                "generic", "--mode", kind, "--seq", "alt(%s,%s)" % pair,
                "--ideal", rng.choice(il.KINDS), "--rounds", str(rounds),
                "--oracles", "random", "--seed", str(seed),
            ]
        return kind, [
            "series", "--seq", "ratenum-signed", "--rounds", "10",
            "--c-step", str(rng.randint(18, 22)),
            "--oracles", f"forcing:{rng.randint(2, 4)}",
        ]

    def run(self, inp):
        _, argv = inp
        transcript = os.path.join(self.workdir, "transcript.jsonl")
        verdict = os.path.join(self.workdir, "verify.json")
        write_rc = cli.main(argv + ["--out", transcript])
        if write_rc == cli.EXIT_ERROR:
            return write_rc, None, None, None
        verify_rc = cli.main(["verify", "--transcript", transcript, "--out", verdict])
        with open(transcript, "rb") as fh:
            transcript_bytes = fh.read()
        with open(verdict) as fh:
            verify_payload = json.load(fh)
        return write_rc, verify_rc, transcript_bytes, verify_payload

    def check(self, inp, out):
        kind, _ = inp
        write_rc, verify_rc, transcript_bytes, verify_payload = out
        if write_rc == cli.EXIT_ERROR or verify_rc != cli.EXIT_OK:
            return False
        if kind in il.KINDS:
            final = json.loads(transcript_bytes.splitlines()[-1])
            return final["verdict"]["value"] == il.VerdictValue.NOT_IN.value
        return True

    def output_bytes(self, inp, out):
        write_rc, verify_rc, transcript_bytes, verify_payload = out
        # The verify payload echoes the transcript path, which names a
        # per-run directory; only its verdict enters the digest.
        verdict = None if verify_payload is None else [
            verify_payload["ok"], verify_payload["problems"]
        ]
        return _dumps([write_rc, verify_rc, verdict]) + (transcript_bytes or b"")


WORKLOADS = {
    w.name: w for w in (McPreserve, WitnessHorizon, PointsetMatrix, GamesReplay)
}
