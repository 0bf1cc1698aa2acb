"""Pin the bytes of every symbolic and horizon verdict over a seeded corpus.

Each built-in ideal classifies a few thousand seeded expressions: Finite,
ArithProg (some with a step above ``periodic.MAX_PERIOD``), Tail and interval
schedules over every generator, combined by union, intersection and
complement to depth 3.  The digest covers (dsl, ideal, value, mode,
evidence) of each call, with OutsideFragment recorded as such, so any
change to a verdict or to one byte of its evidence shows here.  The horizon
pin classifies a prefix of the same corpus at a fixed horizon.
"""
import hashlib
import random
import re

from idealgames import ideals as il, periodic, setexpr as sx
from idealgames.errors import OutsideFragment

_GENS = ("linear", "odd2", "pow2", "esum", "expE")


def _small(rng: random.Random, top: int) -> sx.SetExpr:
    k = rng.randrange(3)
    if k == 0:
        return sx.Finite(tuple(rng.sample(range(1, top), rng.randrange(5))))
    if k == 1:
        return sx.ArithProg(rng.randint(1, top // 3), rng.randint(1, 8))
    return sx.Tail(rng.randint(1, top))


def _leaf(rng: random.Random) -> sx.SetExpr:
    if rng.random() < 0.01:
        return sx.ArithProg(rng.randint(1, 5), periodic.MAX_PERIOD + rng.randint(1, 3))
    if rng.random() < 0.25:
        # Small indices keep geometric block ends, and so thresholds, small.
        selector = _small(rng, 9)
        if rng.random() < 0.3:
            selector = sx.Union(selector, _small(rng, 9))
        return sx.IntervalSchedule(sx.generator(rng.choice(_GENS)), selector)
    return _small(rng, 40)


def _expr(rng: random.Random, depth: int) -> sx.SetExpr:
    if depth == 0 or rng.random() < 0.3:
        return _leaf(rng)
    op = rng.randrange(3)
    if op == 0:
        return sx.Union(_expr(rng, depth - 1), _expr(rng, depth - 1))
    if op == 1:
        return sx.Inter(_expr(rng, depth - 1), _expr(rng, depth - 1))
    return sx.Compl(_expr(rng, depth - 1))


def _verdict_lines(seed: int, count: int, classify=il.classify_symbolic) -> list[str]:
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        s = _expr(rng, 3)
        for ideal in il.BUILTINS:
            try:
                v = classify(ideal, s)
                row = (v.value.value, v.mode, v.evidence)
            except OutsideFragment:
                row = ("OutsideFragment",)
            lines.append("\t".join((s.to_dsl(), ideal.kind) + row))
    return lines


def _forms(lines: list[str]) -> set[str]:
    """The (value, mode, evidence) of each line with its numbers as #."""
    return {re.sub(r"\d[\d./e+-]*", "#", line.split("\t", 2)[2]) for line in lines}


def test_symbolic_evidence_bytes_pinned():
    lines = _verdict_lines(seed=14, count=3000)
    # The corpus reaches every evidence form, exact and bounds alike.
    forms = _forms(lines)
    for needed in (
        "InIdeal\tSymbolic\tfinite",
        "InIdeal\tSymbolic\tfinite, size=#",
        "NotInIdeal\tSymbolic\tinfinite",
        "InIdeal\tSymbolic\tdensity=#",
        "NotInIdeal\tSymbolic\tdensity=#",
        "InIdeal\tSymbolic\tupper density #",
        "NotInIdeal\tSymbolic\tupper density >= #",
        "InIdeal\tSymbolic\tfinite, reciprocal sum converges",
        "NotInIdeal\tSymbolic\tcontains a progression, reciprocal sum diverges"
        " (density=#)",
        "InIdeal\tSymbolic\treciprocal sum converges",
        "NotInIdeal\tSymbolic\treciprocal sum diverges",
        "InIdeal\tSymbolic\todd part finite",
        "NotInIdeal\tSymbolic\todd part infinite",
        "NotInIdeal\tSymbolic\tcontains infinitely many full witness blocks",
        "OutsideFragment",
    ):
        assert needed in forms, needed
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "7c1385f92cf7df65037777de277ab6c45ae7cdc43817757e10dc52903e1ced39"
    )


def test_horizon_evidence_bytes_pinned():
    lines = _verdict_lines(
        seed=14, count=600, classify=lambda ideal, s: il.classify_horizon(ideal, s, 2000)
    )
    # Every horizon statistic reads every verdict its ideal can give.
    forms = _forms(lines)
    for needed in (
        "Undecided\tHorizon(#)\tcount=#",
        "NotInIdeal\tHorizon(#)\tcount=#",
        "InIdeal\tHorizon(#)\tdhat=#",
        "Undecided\tHorizon(#)\tdhat=#",
        "NotInIdeal\tHorizon(#)\tdhat=#",
        "InIdeal\tHorizon(#)\trecip-sum=#, certified tail<=#",
        "Undecided\tHorizon(#)\trecip-sum=#",
        "NotInIdeal\tHorizon(#)\trecip-sum=#",
        "Undecided\tHorizon(#)\todd-count=#",
        "NotInIdeal\tHorizon(#)\todd-count=#",
    ):
        assert needed in forms, needed
    assert len(forms) == 10, forms
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "a31f9032cfbfb0c9ac45c09a290195c0c8e10c33b1e7d447fc4e3ef964052bc9"
    )
