"""Rebuild games and constructions from their config echoes.

Every transcript carries a config dict sufficient to reproduce it
byte-for-byte; this module is the single place that interprets those
configs, shared by the CLI dispatcher and the verify round-trip.  It is
also the one reader of their strategy and oracle specs, one ``SPECS`` row
per keyword (see ``usage``):

    strat_ii: talagrand | empty
    strat_i:  linear[:STEP=100] | exp[:BASE=2[:SCALE=10]]
              | randjump[:SEED[:JUMP=20000]]
    oracles:  trivial | random[:SEED] | interval-hit | forcing[:EVERY=3]
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from . import dsl
from . import games as gm
from . import ideals as il
from .errors import IdealGamesError


class _Row(NamedTuple):
    make: Callable
    # (NAME, default) in order; a seed comes first, has no default and may
    # be any integer, while every other field is at least 1.
    fields: tuple[tuple[str, int | None], ...] = ()


def _each_round(make) -> Callable:
    """An oracle factory: ``make(k, x, *fields)`` for rounds k = 1..R."""
    return lambda rounds, x, ball, witness, *vals: [
        make(k, x, *vals) for k in range(1, rounds + 1)
    ]


def _forcing(rounds, x, ball, witness, every) -> list:
    """One forcing oracle for every EVERY-th round, so it sums each stem
    index once across the build; trivial oracles elsewhere."""
    force = gm.ForcingOracle(x)
    return [force if k % every == 0 else gm.TrivialOracle()
            for k in range(1, rounds + 1)]


def _interval_hit(rounds, x, ball, witness) -> list:
    if ball is None:
        raise IdealGamesError("interval-hit needs the ball of a generic game mode")
    return [gm.IntervalHitOracle(x, ball, witness)] * rounds


SPECS: dict[str, dict[str, _Row]] = {
    "strat_ii": {
        "talagrand": _Row(gm.TalagrandPlayerII),
        "empty": _Row(lambda witness: gm.EmptyPlayerII()),
    },
    "strat_i": {
        "linear": _Row(gm.LinearPlayerI, (("STEP", 100),)),
        "exp": _Row(gm.ExponentialPlayerI, (("BASE", 2), ("SCALE", 10))),
        "randjump": _Row(gm.RandomJumpPlayerI, (("SEED", None), ("JUMP", 20_000))),
    },
    "oracles": {
        "trivial": _Row(_each_round(lambda k, x: gm.TrivialOracle())),
        "random": _Row(_each_round(lambda k, x, s: gm.RandomExtensionOracle(s, k)),
                       (("SEED", None),)),
        "interval-hit": _Row(_interval_hit),
        "forcing": _Row(_forcing, (("EVERY", 3),)),
    },
}


def usage(key: str) -> str:
    """The grammar of the ``key`` specs, one form per row."""
    return " | ".join(
        word + "".join(f"[:{name}" + (f"={d}" if d else "") for name, d in row.fields)
        + "]" * len(row.fields) for word, row in SPECS[key].items()
    )


def _read(key: str, spec: str) -> tuple[_Row, list[int]]:
    """The row that ``spec`` names and the fields it writes."""
    word, *texts = spec.split(":")
    row = SPECS[key].get(word)
    if row is None or len(texts) > len(row.fields):
        raise IdealGamesError(f"{key} spec {spec!r} is not one of {usage(key)}")
    for (name, default), text in zip(row.fields, texts):
        least = "" if default is None else " >= 1"
        if not text.removeprefix("-").isdecimal() or least and int(text) < 1:
            raise IdealGamesError(f"{spec!r}: {name} must be an integer{least}")
    return row, [int(text) for text in texts]


def build(key: str, spec: str, *feed):
    """The Player II strategy (``strat_ii``, fed a witness), the Player I
    strategy (``strat_i``) or the oracle list (``oracles``, fed rounds, x,
    ball and witness) that ``spec`` names."""
    row, vals = _read(key, spec)
    vals += [d for _, d in row.fields[len(vals):]]
    if None in vals:
        raise IdealGamesError(f"{spec!r} needs a seed: {spec}:SEED, or --seed")
    return row.make(*feed, *vals)


def with_seed(key: str, spec: str, seed: int | None) -> str:
    """``spec`` with its missing seed, if its row has one, set to ``seed``."""
    row, vals = _read(key, spec)
    if seed is None or not row.fields or row.fields[0][1] is not None:
        return spec
    if vals and vals[0] != seed:
        raise IdealGamesError(f"--seed {seed} disagrees with the seed of {spec!r}")
    return spec if vals else f"{spec}:{seed}"


def run_config(config: dict) -> gm.Transcript:
    """Re-run a recorded game/builder config and return the fresh transcript."""
    command = config.get("command")
    rounds = int(config["rounds"])
    if command == "game":
        ideal = il.Ideal(config["ideal"])
        strat_i = build("strat_i", config["strat_i"])
        strat_ii = build("strat_ii", config["strat_ii"], il.talagrand_witness(ideal))
        return gm.play_laflamme(ideal, strat_i, strat_ii, rounds, config=config)
    if command == "generic":
        mode = config["mode"]
        x = dsl.parse_seq(config["seq"])
        ideal = il.Ideal(config["ideal"])
        if mode == "sigma-witness":
            etas = [Fraction(e) for e in config["etas"]]
            return gm.build_subseq_witness(
                x, ideal, etas, int(config["m_max"]), rounds, config=config
            )
        builders = {"sigma-game": gm.build_subseq_game, "pi-game": gm.build_perm_game}
        if mode not in builders:
            raise IdealGamesError(f"unknown generic mode {mode!r}")
        ball = gm.Ball.of(**config["ball"])
        strat_i = build("strat_i", config["strat_i"])
        witness = il.talagrand_witness(ideal)
        oracles = build("oracles", config["oracles"], rounds, x, ball, witness)
        return builders[mode](x, ideal, ball, oracles, strat_i, rounds, config=config)
    if command == "series":
        x = dsl.parse_seq(config["seq"])
        step = int(config["c_step"])
        oracles = None
        if config.get("oracles") and config["oracles"] != "none":
            oracles = build("oracles", config["oracles"], rounds, x, None, None)
        return gm.steer_series(
            x, lambda k: step * k, rounds, oracles=oracles, config=config
        )
    raise IdealGamesError(f"config has no replayable command: {command!r}")


def verify_transcript(t: gm.Transcript) -> list[str]:
    """Replay from config and run structural checks; returns problems."""
    problems = []
    x = ball = None
    cfg = t.config
    if cfg.get("seq"):
        x = dsl.parse_seq(cfg["seq"])
    if cfg.get("ball"):
        ball = gm.Ball.of(**cfg["ball"])
    problems.extend(gm.validate_transcript(t, x, ball))
    if cfg.get("command"):
        fresh = run_config(cfg)
        if fresh.to_jsonl() != t.to_jsonl():
            problems.append("replay from config differs from recorded transcript")
    return problems
