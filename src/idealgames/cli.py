"""Command-line front end.

Exit codes: 0 success, 1 error, 2 soft failure (Undecided-dominated
results).  mc and witness require --seed; a randomized strategy or oracle
spec takes its seed from the spec or from --seed.  The library enforces
IDEALGAMES_HORIZON_CAP on every horizon, on every index a stem or set tail
names, and on every index a builder, oracle or series steering searches.
limit --depth sets the number of shrinking-ball windows, from 1 to -N.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from . import convergence as cv
from . import dsl
from . import games as gm
from . import ideals as il
from . import mc
from . import replay
from . import seqspace as sq
from . import series as se
from .errors import IdealGamesError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2

def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_transcript(config: dict, out: str | None) -> gm.Transcript:
    """Replay config and write its transcript to out, or to stdout."""
    transcript = replay.run_config(config)
    if out:
        transcript.write(out)
    else:
        sys.stdout.write(transcript.to_jsonl())
    return transcript


def _pointset_payload(ps: cv.PointSet) -> dict:
    return {
        "points": list(ps.points),
        "flags": list(ps.flags),
        "undecided": list(ps.undecided),
    }


def _cmd_classify(args) -> int:
    ideal = il.Ideal(args.ideal)
    expr = dsl.parse_set(args.set)
    if args.mode == "symbolic":
        verdict = il.classify_symbolic(ideal, expr)
    elif args.mode == "horizon":
        verdict = il.classify_horizon(ideal, expr, args.horizon)
    else:
        verdict = il.classify(ideal, expr, args.horizon)
    _emit({"set": expr.to_dsl(), "ideal": ideal.kind, "verdict": verdict.as_dict()},
          args.out)
    return EXIT_OK if verdict.decided else EXIT_UNDECIDED


def _cmd_cluster(args) -> int:
    x = dsl.parse_seq(args.seq)
    ideal = il.Ideal(args.ideal)
    ps = cv.cluster_points(x, ideal, args.horizon, args.eps)
    _emit({"seq": x.label(), "ideal": ideal.kind, **_pointset_payload(ps)}, args.out)
    return EXIT_UNDECIDED if cv.UNDECIDED_FLAG in ps.flags else EXIT_OK


def _cmd_limit(args) -> int:
    x = dsl.parse_seq(args.seq)
    ideal = il.Ideal(args.ideal)
    ps = cv.limit_points(x, ideal, args.horizon, args.eps, args.depth)
    _emit({"seq": x.label(), "ideal": ideal.kind, **_pointset_payload(ps)}, args.out)
    return EXIT_UNDECIDED if cv.UNDECIDED_FLAG in ps.flags else EXIT_OK


def _cmd_preserve(args) -> int:
    x = dsl.parse_seq(args.seq)
    ideal = il.Ideal(args.ideal)
    t = dsl.parse_transform(args.transform)
    outcome = cv.preserve_outcome(args.kind, x, t, ideal, args.horizon, args.eps)
    _emit(
        {
            "seq": x.label(),
            "ideal": ideal.kind,
            "kind": args.kind,
            "transform": t.label(),
            "preserved": outcome.matched,
            "decided": outcome.decided,
            "base": _pointset_payload(outcome.base),
            "transformed": _pointset_payload(outcome.transformed),
        },
        args.out,
    )
    return EXIT_OK if outcome.decided else EXIT_UNDECIDED


def _cmd_game(args) -> int:
    config = {
        "command": "game",
        "ideal": args.ideal,
        "strat_i": replay.with_seed("strat_i", args.strat_i, args.seed),
        "strat_ii": args.strat_ii,
        "rounds": args.rounds,
    }
    transcript = _write_transcript(config, args.out)
    return EXIT_OK if transcript.verdict.decided else EXIT_UNDECIDED


def _cmd_generic(args) -> int:
    config = {
        "command": "generic",
        "mode": args.mode,
        "seq": args.seq,
        "ideal": args.ideal,
        "rounds": args.rounds,
    }
    if args.mode == "sigma-witness":
        config["etas"] = [str(Fraction(e)) for e in args.etas.split(";")]
        config["m_max"] = args.m_max
    else:
        config["ball"] = {"center": args.ball_center, "radius": args.ball_radius}
        for key in ("strat_i", "oracles"):
            config[key] = replay.with_seed(key, getattr(args, key), args.seed)
    transcript = _write_transcript(config, args.out)
    return EXIT_OK if transcript.verdict.decided else EXIT_UNDECIDED


def _cmd_series(args) -> int:
    if args.sigma:
        x = dsl.parse_seq(args.seq)
        ideal = il.Ideal(args.ideal)
        if args.sigma.startswith("stem@"):
            with open(args.sigma[5:]) as fh:
                stem = json.load(fh)
            if not isinstance(stem, list) or any(type(v) is not int for v in stem):
                raise IdealGamesError(f"{args.sigma[5:]} holds no JSON list of ints")
            sigma = sq.Subseq(tuple(stem))
        else:
            sigma = dsl.parse_transform(args.sigma)
        if not isinstance(sigma, sq.Subseq):
            raise IdealGamesError("series takes a subsequence, not a permutation")
        verdict = se.subseq_sums_bounded(sigma, x, ideal, args.horizon, args.k_max)
        _emit(
            {
                "seq": x.label(),
                "ideal": ideal.kind,
                "sigma": sigma.label(),
                "horizon": args.horizon,
                "verdict": verdict.as_dict(),
            },
            args.out,
        )
        return EXIT_OK if verdict.decided else EXIT_UNDECIDED
    config = {
        "command": "series",
        "seq": args.seq,
        "rounds": args.rounds,
        "c_step": args.c_step,
        "oracles": args.oracles,
    }
    _write_transcript(config, args.out)
    return EXIT_OK


def _cmd_mc(args) -> int:
    report, batches = mc.estimate_preservation(
        dsl.parse_seq(args.seq),
        il.Ideal(args.ideal),
        args.kind,
        args.samples,
        args.horizon,
        args.eps,
        args.seed,
        batch_size=args.batch_size,
    )
    _emit(report.as_dict(), args.out)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["batch_end", "samples", "hits", "misses", "undecided", "seed"]
            )
            for b in batches:
                writer.writerow(
                    [b.config["batch_end"], b.samples, b.hits, b.misses,
                     b.undecided, b.seed]
                )
    undecided_heavy = report.undecided > 0.25 * report.samples
    return EXIT_UNDECIDED if undecided_heavy else EXIT_OK


def _cmd_witness(args) -> int:
    ideal = il.Ideal(args.ideal)
    report = il.witness_soundness_report(
        ideal,
        trials=args.trials,
        seed=args.seed,
        horizon=args.horizon,
    )
    witness = il.talagrand_witness(ideal)
    payload = report.as_dict()
    payload["iota_prefix"] = [witness.value(n) for n in range(1, 9)]
    _emit(payload, args.out)
    return EXIT_OK if report.fraction == 1.0 else EXIT_ERROR


def _cmd_verify(args) -> int:
    transcript = gm.Transcript.read(args.transcript)
    problems = replay.verify_transcript(transcript)
    _emit(
        {"transcript": args.transcript, "problems": problems, "ok": not problems},
        args.out,
    )
    return EXIT_OK if not problems else EXIT_ERROR


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once and shared: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="idealgames",
        description="Ideals on N, interval witnesses, the Laflamme game, "
        "and subsequence statistics.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, horizon_default=10_000):
        sp.add_argument("-N", "--horizon", type=int, default=horizon_default)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("classify", help="ideal membership of a set expression")
    sp.add_argument("--ideal", required=True, choices=il.KINDS)
    sp.add_argument("--set", required=True)
    sp.add_argument("--mode", choices=["auto", "symbolic", "horizon"], default="auto")
    add_common(sp)
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("cluster", help="finite-horizon ideal cluster points")
    sp.add_argument("--seq", required=True)
    sp.add_argument("--ideal", required=True, choices=il.KINDS)
    sp.add_argument("--eps", type=float, default=0.05)
    add_common(sp)
    sp.set_defaults(fn=_cmd_cluster)

    sp = sub.add_parser("limit", help="finite-horizon ideal limit points")
    sp.add_argument("--seq", required=True)
    sp.add_argument("--ideal", required=True, choices=il.KINDS)
    sp.add_argument("--eps", type=float, default=0.05)
    sp.add_argument("--depth", type=int, default=6)
    add_common(sp)
    sp.set_defaults(fn=_cmd_limit)

    sp = sub.add_parser("preserve", help="does a transform keep the point set")
    sp.add_argument("--seq", required=True)
    sp.add_argument("--ideal", required=True, choices=il.KINDS)
    sp.add_argument("--kind", choices=["cluster", "limit", "gamma", "lambda"],
                    default="cluster")
    sp.add_argument("--transform", required=True,
                    help="stem[...], set(S), or perm-stem[...]")
    sp.add_argument("--eps", type=float, default=0.05)
    add_common(sp)
    sp.set_defaults(fn=_cmd_preserve)

    sp = sub.add_parser("game", help="play the finite-union game")
    sp.add_argument("--ideal", required=True, choices=il.KINDS)
    sp.add_argument("--strat-i", default="linear:100",
                    help=replay.usage("strat_i"))
    sp.add_argument("--strat-ii", default="talagrand", choices=replay.SPECS["strat_ii"])
    sp.add_argument("--rounds", type=int, default=50)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_game)

    sp = sub.add_parser("generic", help="build a generic subsequence/permutation")
    sp.add_argument("--mode", required=True,
                    choices=["sigma-witness", "sigma-game", "pi-game"])
    sp.add_argument("--seq", required=True)
    sp.add_argument("--ideal", required=True, choices=il.KINDS)
    sp.add_argument("--rounds", type=int, default=12)
    sp.add_argument("--etas", default="0;1", help="semicolon-separated targets")
    sp.add_argument("--m-max", type=int, default=3)
    sp.add_argument("--ball-center", default="0")
    sp.add_argument("--ball-radius", default="1/2")
    sp.add_argument("--strat-i", default="linear:10", help=replay.usage("strat_i"))
    sp.add_argument("--oracles", default="trivial", help=replay.usage("oracles"))
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_generic)

    sp = sub.add_parser("series", help="steer partial sums / test boundedness")
    sp.add_argument("--seq", default="ratenum-signed")
    sp.add_argument("--ideal", default="density0", choices=il.KINDS)
    sp.add_argument("--sigma", default=None,
                    help="stem[...], set(S), or stem@FILE (JSON list)")
    sp.add_argument("--k-max", type=int, default=se.DEFAULT_K_MAX)
    sp.add_argument("--rounds", type=int, default=10)
    sp.add_argument("--c-step", type=int, default=20)
    sp.add_argument("--oracles", default="none",
                    help="none | " + replay.usage("oracles"))
    add_common(sp)
    sp.set_defaults(fn=_cmd_series)

    sp = sub.add_parser("mc", help="Monte Carlo preservation fraction")
    sp.add_argument("--seq", required=True)
    sp.add_argument("--ideal", required=True, choices=il.KINDS)
    sp.add_argument("--kind", choices=["cluster", "limit", "gamma", "lambda"],
                    default="cluster")
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--eps", type=float, default=0.05)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--batch-size", type=int, default=None)
    sp.add_argument("--csv", default=None)
    add_common(sp)
    sp.set_defaults(fn=_cmd_mc)

    sp = sub.add_parser("witness", help="Talagrand witness soundness report")
    sp.add_argument("--ideal", required=True, choices=il.KINDS)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, required=True)
    add_common(sp, horizon_default=100_000)
    sp.set_defaults(fn=_cmd_witness)

    sp = sub.add_parser("verify", help="replay and validate a transcript")
    sp.add_argument("--transcript", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_verify)

    return p


_KIND_ALIASES = {"gamma": "cluster", "lambda": "limit"}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "kind"):
        args.kind = _KIND_ALIASES.get(args.kind, args.kind)
    try:
        return args.fn(args)
    except (IdealGamesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
