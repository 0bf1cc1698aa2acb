"""Laflamme game engine and constructive generic-element builders.

Player I plays cofinite sets [c_k, oo); Player II answers with finite sets
F_k inside them; Player II wins when the union of the F_k avoids the ideal.
The builders interleave the game with cylinder refinement to produce
explicit subsequences, permutations, and steered series rearrangements.
Every game and builder runs one round loop, ``_play``, which checks both
round invariants and gives the verdict; the modes differ only in the move
each round makes, and the cylinder builders share theirs, ``_cylinder_move``.

Move sets are stored as disjoint half-open blocks [lo, hi) because interval
strategies legitimately play blocks far too wide to materialize.  All index
arithmetic is exact integers, and every decision on a term value (in a
ball, outside it, inside a steering window) is exact: a float prefilter
decides whole chunks of indices at once, and any index whose float lies
near a boundary is decided again in exact rationals (``_next_indices``).
So transcripts are stable goldens.
"""
from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import ideals as il
from . import seqspace as sq
from . import setexpr as sx
from .errors import (
    ExhaustedIndices,
    IdealGamesError,
    InvalidMove,
    OracleViolation,
    SteeringStuck,
)
from .periodic import merge_blocks

Blocks = tuple[tuple[int, int], ...]


def blocks_from_values(values) -> Blocks:
    return merge_blocks([(v, v + 1) for v in values])


def add_blocks(union: list[tuple[int, int]], blocks: Blocks) -> None:
    """Merge blocks into the sorted disjoint blocks of union, in place.

    The result is the one ``merge_blocks`` gives for the two together, but
    each block only moves the neighbours it overlaps or touches, so a round
    loop adding a few blocks per round does not re-sort its whole union.
    """
    for lo, hi in blocks:
        if hi <= lo:
            continue
        i = bisect.bisect_left(union, lo, key=itemgetter(1))  # first hi >= lo
        j = bisect.bisect_right(union, hi, key=itemgetter(0))  # first lo > hi
        if i < j:
            lo, hi = min(lo, union[i][0]), max(hi, union[j - 1][1])
        union[i:j] = [(lo, hi)]


def blocks_size(blocks: Blocks) -> int:
    return sum(hi - lo for lo, hi in blocks)


def blocks_to_setexpr(blocks: Blocks) -> sx.SetExpr:
    """The union of the blocks as a balanced tree of ``Union`` nodes, so its
    depth, and the recursion of everything that walks it, is about
    log2(len(blocks))."""
    if not blocks:
        return sx.Finite(())
    exprs: list[sx.SetExpr] = [sx.interval(lo, hi - 1) for lo, hi in blocks]
    while len(exprs) > 1:
        pairs = [sx.Union(a, b) for a, b in zip(exprs[::2], exprs[1::2])]
        exprs = pairs + exprs[len(pairs) * 2:]
    return exprs[0]


@dataclass(frozen=True)
class Round:
    """One game round; cylinder stems appear in builder modes only."""

    k: int
    c: int | None
    F: Blocks
    A: tuple[int, ...] | None = None
    B: tuple[int, ...] | None = None
    note: dict | None = None

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "c": self.c,
            "F": [list(b) for b in self.F],
            "A": {"stem": list(self.A)} if self.A is not None else None,
            "B": {"stem": list(self.B)} if self.B is not None else None,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Round":
        return cls(
            k=d["k"],
            c=d["c"],
            F=tuple((lo, hi) for lo, hi in d["F"]),
            A=tuple(d["A"]["stem"]) if d.get("A") is not None else None,
            B=tuple(d["B"]["stem"]) if d.get("B") is not None else None,
            note=d.get("note"),
        )


@dataclass(frozen=True)
class Transcript:
    """Full record of a game playout or a generic-element construction."""

    mode: str
    ideal: str | None
    rounds: tuple[Round, ...]
    union_blocks: Blocks
    verdict: il.Verdict
    stem: tuple[int, ...] | None = None
    space: str | None = None
    config: dict = field(default_factory=dict)

    def to_jsonl(self) -> str:
        lines = [json.dumps(r.as_dict()) for r in self.rounds]
        lines.append(
            json.dumps(
                {
                    "unionF": [list(b) for b in self.union_blocks],
                    "verdict": self.verdict.as_dict(),
                    "stem": list(self.stem) if self.stem is not None else None,
                    "space": self.space,
                    "mode": self.mode,
                    "ideal": self.ideal,
                    "config": self.config,
                }
            )
        )
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        lines = [json.loads(line) for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty transcript")
        final = lines[-1]
        verdict = il.Verdict(
            il.VerdictValue(final["verdict"]["value"]),
            final["verdict"]["mode"],
            final["verdict"]["evidence"],
        )
        return cls(
            mode=final["mode"],
            ideal=final["ideal"],
            rounds=tuple(Round.from_dict(d) for d in lines[:-1]),
            union_blocks=tuple((lo, hi) for lo, hi in final["unionF"]),
            verdict=verdict,
            stem=tuple(final["stem"]) if final.get("stem") is not None else None,
            space=final.get("space"),
            config=final.get("config", {}),
        )

    @classmethod
    def read(cls, path) -> "Transcript":
        with open(path) as fh:
            return cls.from_jsonl(fh.read())


# ---------------------------------------------------------------------------
# Strategies


@dataclass(frozen=True)
class Move:
    blocks: Blocks
    note: dict | None = None


class PlayerI:
    """Cofinite-set strategy: a pure function of the transcript so far.

    ``rounds`` is the game's own list of the rounds played so far: a
    strategy reads it and never changes it.
    """

    def __call__(self, rounds: Sequence[Round], k: int) -> int:
        raise NotImplementedError


class LinearPlayerI(PlayerI):
    def __init__(self, step: int = 100):
        self.step = step

    def __call__(self, rounds, k):
        return self.step * k


class ExponentialPlayerI(PlayerI):
    def __init__(self, base: int = 2, scale: int = 10):
        self.base = base
        self.scale = scale

    def __call__(self, rounds, k):
        return self.scale * self.base**k


class RandomJumpPlayerI(PlayerI):
    """Monotone schedule with seeded random jumps, replayable from the seed."""

    def __init__(self, seed: int, max_jump: int = 20_000):
        self.seed = seed
        self.max_jump = max_jump

    def __call__(self, rounds, k):
        prev = rounds[-1].c if rounds else 1
        # Derive the jump from seed and k so the strategy stays a pure
        # function of the transcript position.
        rng = random.Random(self.seed * 1_000_003 + k)
        return prev + rng.randint(1, self.max_jump)


class PlayerII:
    """Finite-move strategy.  Like ``PlayerI``, it reads ``rounds`` and
    never changes it."""

    def __call__(self, rounds: Sequence[Round], k: int, c: int) -> Move:
        raise NotImplementedError


class EmptyPlayerII(PlayerII):
    def __call__(self, rounds, k, c):
        return Move(())


class TalagrandPlayerII(PlayerII):
    """Answer each round with the next unused full witness block above c.

    Declares the tail schedule "one full block per round forever", which
    makes the final verdict symbolic: a set containing infinitely many full
    witness blocks cannot lie in the ideal.

    The move is block ``j = max(first_index_at_least(max(c, 1)), last + 1)``,
    where ``last`` is the ``block_index`` noted in the last round, or 0.
    Player I's c never falls, so every block from the first one at or above
    c up to ``last`` is already claimed, and j is the smallest unclaimed
    block at or above c.
    """

    def __init__(self, witness: sx.Generator):
        self.witness = witness

    def __call__(self, rounds, k, c):
        last = (rounds[-1].note or {}).get("block_index", 0) if rounds else 0
        j = max(self.witness.first_index_at_least(max(c, 1)), last + 1)
        lo, hi = self.witness.block(j)
        return Move(((lo, hi),), {"block_index": j})


def play_laflamme(
    ideal: il.Ideal,
    strat_i: PlayerI,
    strat_ii: PlayerII,
    rounds: int,
    config: dict | None = None,
) -> Transcript:
    """Play R rounds.  Against a Talagrand Player II the verdict is the
    symbolic one on the claimed witness blocks; otherwise it classifies the
    union of Player II's moves."""
    def move(so_far, k, c):
        m = strat_ii(so_far, k, c)
        return Round(k, c, merge_blocks(m.blocks), note=m.note)

    witness = strat_ii.witness if isinstance(strat_ii, TalagrandPlayerII) else None
    return _play("game", ideal, rounds, strat_i, move, config, witness=witness)


def _play(mode, ideal, rounds, player_i, move, config, stem=None, space=None,
          witness=None, judge=None) -> Transcript:
    """The round loop of every game and builder.

    Round k: Player I's c_k, which may not fall below c_{k-1} (None in the
    witness mode, which has no Player I); the mode's ``move(played, k,
    c_k)``, a ``Round`` whose F_k must lie in [c_k, oo); and F_k joins the
    union.  Both players and ``move`` read ``played``, the rounds so far,
    in place, without a copy.  ``stem`` is the list the moves extend, if
    any.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    played: list[Round] = []
    union: list[tuple[int, int]] = []
    prev_c = 0
    for k in range(1, rounds + 1):
        c = player_i(played, k)
        if c is not None and c < prev_c:
            raise InvalidMove(f"round {k}: c={c} below previous {prev_c}")
        r = move(played, k, c)
        if c is not None and any(lo < c for lo, _ in r.F):
            raise InvalidMove(f"round {k}: move leaves [{c}, oo)")
        played.append(r)
        add_blocks(union, r.F)
        prev_c = prev_c if c is None else c
    return Transcript(
        mode=mode,
        ideal=None if ideal is None else ideal.kind,
        rounds=tuple(played),
        union_blocks=tuple(union),
        verdict=_verdict(ideal, played, union, witness, judge),
        stem=None if stem is None else tuple(stem),
        space=space,
        config=config or {},
    )


def _verdict(ideal, played, union, witness, judge) -> il.Verdict:
    """The verdict of every game and builder.

    With no rounds it is "no rounds played".  When the rounds claimed
    blocks of ``witness`` (``block_index`` notes), it is the symbolic one
    on those blocks plus every later block.  Otherwise it is ``judge`` of
    the union, by default the ideal's verdict on it.
    """
    if not played:
        return il.Verdict(il.VerdictValue.UNDECIDED, "Symbolic", "no rounds played")
    js = [] if witness is None else sorted(
        r.note["block_index"] for r in played if r.note and "block_index" in r.note
    )
    if js:
        selector = sx.Union(sx.Finite(tuple(js)), sx.Tail(js[-1] + 1))
        return il.classify_symbolic(ideal, sx.IntervalSchedule(witness, selector))
    if judge is not None:
        return judge(union)
    return il.classify(ideal, blocks_to_setexpr(union))


# ---------------------------------------------------------------------------
# Dense-open refinement oracles


class DenseOpenOracle:
    """Operational stand-in for a dense open set: refine a cylinder."""

    def refine(self, cyl: sq.Cylinder) -> sq.Cylinder:
        raise NotImplementedError


class TrivialOracle(DenseOpenOracle):
    def refine(self, cyl):
        return cyl


class RandomExtensionOracle(DenseOpenOracle):
    """Seeded random stem extension; each round gets its own derived seed.

    It appends 1 to ``MAX_STEPS`` entries, each at most ``MAX_JUMP`` past
    the last (sigma) or past the largest so far (pi).
    """

    MAX_STEPS = 6
    MAX_JUMP = 9

    def __init__(self, seed: int, k: int):
        self.seed = seed
        self.k = k

    def refine(self, cyl):
        rng = random.Random(self.seed * 1_000_003 + self.k)
        stem = list(cyl.stem)
        steps = rng.randint(1, self.MAX_STEPS)
        if cyl.space is sq.Space.SIGMA:
            last = stem[-1] if stem else 0
            for _ in range(steps):
                last += rng.randint(1, self.MAX_JUMP)
                stem.append(last)
        else:
            used = set(stem)
            top = max(used, default=0)
            for _ in range(steps):
                v = rng.randint(1, top + self.MAX_JUMP)
                while v in used:
                    v += 1
                used.add(v)
                stem.append(v)
                top = max(top, v)
        return sq.Cylinder(cyl.space, tuple(stem))


class IntervalHitOracle(DenseOpenOracle):
    """Extend the stem so one more full witness block maps into a target ball.

    This is the refinement the comeager sets of the theory actually provide:
    membership in it forces the block [value(j), value(j+1)) of positions to
    carry terms inside the ball.
    """

    def __init__(self, x: sq.SeqDescriptor, ball: "Ball", witness: sx.Generator):
        self.x = x
        self.ball = ball
        self.witness = witness

    def refine(self, cyl):
        if cyl.space is not sq.Space.SIGMA:
            raise OracleViolation("interval-hit oracle refines sigma cylinders")
        stem = list(cyl.stem)
        j = self.witness.first_index_at_least(len(stem) + 1)
        _steer_block(stem, self.witness.block(j), self.x, self.ball)
        return sq.Cylinder(sq.Space.SIGMA, tuple(stem))


@dataclass(frozen=True)
class Ball:
    """Closed rational ball |v - center| <= radius."""

    center: Fraction
    radius: Fraction

    def contains(self, v) -> bool:
        return abs(Fraction(v) - self.center) <= self.radius

    @classmethod
    def of(cls, center, radius) -> "Ball":
        return cls(Fraction(center), Fraction(radius))


class _Test(NamedTuple):
    """A predicate on term values, given exactly and as an interval.

    ``exact(v)`` decides it.  For every v other than lo and hi it equals
    ``lo < v < hi`` when ``inside``, and the negation of that otherwise.
    """

    exact: Callable[[sq.Number], bool]
    lo: Fraction
    hi: Fraction
    inside: bool = True


def _in_ball(ball: Ball) -> _Test:
    return _Test(ball.contains, ball.center - ball.radius, ball.center + ball.radius)


def _off_ball(ball: Ball) -> _Test:
    return _Test(lambda v: not ball.contains(v), ball.center - ball.radius,
                 ball.center + ball.radius, inside=False)


def _in_window(lo: Fraction, hi: Fraction) -> _Test:
    return _Test(lambda v: lo < Fraction(v) < hi, lo, hi)


def _prefilter(x: sq.SeqDescriptor, test: _Test, top: int,
               at: slice | np.ndarray):
    """Float verdicts ``(ok, near)`` on the terms ``x.values(top)[at]``.

    ``ok`` is the float comparison against the interval of ``test``, and
    ``near`` marks the terms it cannot decide, which ``test.exact`` must.
    Returns None, and leaves every term to ``test.exact``, where the float
    path cannot serve: past the horizon cap (a tampered transcript may name
    any index), or where ``values`` or a bound has no float (a term or a
    bound too large for float64, a set tail that runs out before ``top``,
    a descriptor that defines only ``term``).

    Exactness.  ``values[n]`` is the float64 nearest ``term(n)`` for every
    descriptor: ``float()`` of an integer or Fraction (alternating pairs,
    explicit prefixes, the const rule), integers below 2**53 (the ident and
    altsign rules), IEEE ``1.0 / n`` (the inv rule), numpy ``p / q`` over
    int64 operands below 2**53 (the rational enumerations), and gathers of
    these (piecewise sequences, ``Transformed``).  So each float differs
    from its exact value by at most 2**-53 of its magnitude.  With
    M = max(|lo|, |hi|) and band = 1e-9 * (1 + M), a term v whose float
    lies more than band from both floated bounds compares with each bound
    as v itself does: if |v| <= 2 + 2M, the rounding of v, of the bound and
    of their difference moves the difference by under 2**-50 * (1 + M),
    far inside the band; if |v| > 2 + 2M, then |v - bound| > |v| / 2
    while the rounding stays under 2**-51 * |v|.  Every other term,
    including a NaN, is ``near``.
    """
    if top > il.horizon_cap():
        return None
    try:
        lo, hi = float(test.lo), float(test.hi)
        v = x.values(top)[at]
    except (ArithmeticError, NotImplementedError, IdealGamesError):
        return None
    band = 1e-9 * (1 + max(abs(lo), abs(hi)))
    near = ~((np.abs(v - lo) > band) & (np.abs(v - hi) > band))
    return ((v > lo) & (v < hi)) == test.inside, near


def _next_indices(x: sq.SeqDescriptor, test: _Test, after: int, k: int,
                  cap: int) -> list[int]:
    """The first k indices i in (after, cap] whose terms pass ``test.exact``.

    Every decision is that of ``test.exact(x.term(i))`` tried on i =
    after + 1, after + 2, ... in turn, and so is the ExhaustedIndices
    error when fewer than k indices pass: each index is decided by
    ``_prefilter``'s float comparison where that is exact, else by
    ``test.exact`` on the term, and no index past the k-th passing one is
    decided.  Index after + 1 is tried exactly first: series steering
    takes it in most steps, and one exact test costs less than one numpy
    pass.  The rest is scanned in chunks that double in width, each read
    from one ``x.values`` call, so the float work is bounded by twice the
    last index reached.  Once ``_prefilter`` has returned None, every later
    index is tried exactly.  Every builder and oracle passes the horizon
    cap as ``cap``, so no search reads past it.
    """
    found: list[int] = []
    done = after  # every index through ``done`` is decided
    width = 1
    floats = True
    while len(found) < k and done < cap:
        top = min(done + width, cap)
        verdicts = None
        if width > 1 and floats:
            verdicts = _prefilter(x, test, top, slice(done + 1, None))
            floats = verdicts is not None
        if verdicts is None:
            near = None
            candidates = range(top - done)
        else:
            ok, near = verdicts
            candidates = np.flatnonzero(ok | near).tolist()
        for j in candidates:
            i = done + 1 + j
            if (near is None or near[j]) and not test.exact(x.term(i)):
                continue
            found.append(i)
            if len(found) == k:
                break
        done = top
        width = 2 * max(width, k - len(found))
    if len(found) < k:
        last = found[-1] if found else after
        raise ExhaustedIndices(f"no admissible index in ({last}, {cap}]")
    return found


def _passes(x: sq.SeqDescriptor, test: _Test, idx: list[int]) -> list[bool]:
    """``test.exact(x.term(i))`` for each i in idx, prefiltered in floats."""
    verdicts = None
    if idx and min(idx) >= 1:
        at = np.asarray(idx)
        # A tampered transcript may name indices that are no int64; those
        # are decided exactly.
        if at.dtype.kind == "i":
            verdicts = _prefilter(x, test, int(at.max()), at)
    if verdicts is None:
        return [test.exact(x.term(i)) for i in idx]
    ok, near = verdicts
    for j in np.flatnonzero(near).tolist():
        ok[j] = test.exact(x.term(idx[j]))
    return ok.tolist()


def _steer_block(stem: list[int], block: tuple[int, int], x, ball: Ball) -> None:
    """Pad the stem with consecutive indices up to position lo - 1, then
    fill positions [lo, hi) with increasing indices, none past the horizon
    cap, whose terms lie in the ball."""
    lo, hi = block
    last = stem[-1] if stem else 0
    pad = max(lo - 1 - len(stem), 0)
    stem.extend(range(last + 1, last + 1 + pad))
    stem.extend(_next_indices(x, _in_ball(ball), last + pad, hi - lo, il.horizon_cap()))


# ---------------------------------------------------------------------------
# Generic subsequence builder, witness mode


def build_subseq_witness(
    x: sq.SeqDescriptor,
    ideal: il.Ideal,
    etas: list,
    m_max: int,
    rounds: int,
    config: dict | None = None,
) -> Transcript:
    """Map full witness blocks of positions into shrinking balls, round-robin.

    Block k of positions [value(k), value(k+1)) is steered entirely into the
    ball of radius 1/m around eta for the k-th (eta, m) pair of the cycle,
    so each scheduled pair owns at least rounds/len(schedule) full blocks.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if not etas:
        raise ValueError("etas must not be empty")
    witness = il.talagrand_witness(ideal)
    pairs = [(eta, m) for m in range(1, m_max + 1) for eta in etas]
    stem: list[int] = []

    def move(so_far, k, c):
        eta, m = pairs[(k - 1) % len(pairs)]
        block = witness.block(k)
        _steer_block(stem, block, x, Ball.of(eta, Fraction(1, m)))
        note = {"eta": str(Fraction(eta)), "m": m, "block_index": k}
        return Round(k, None, (block,), note=note)

    return _play("sigma-witness", ideal, rounds, lambda so_far, k: None, move,
                 config, stem, "sigma", witness)


# ---------------------------------------------------------------------------
# Generic builders, game mode


def _cylinder_move(space, stem, fill, oracles, close, hits, note):
    """The move of the cylinder builders; it extends the list ``stem``.

    Round k: ``fill(stem, c_k)`` up to position c_k - 1, cylinder A_k, the
    oracle's refinement B_k of A_k, ``close(B_k)``, and the move F_k =
    ``hits(B_k.stem, c_k)``, the hit positions of [c_k, |B_k|].
    """
    def move(so_far, k, c):
        fill(stem, c)
        a_cyl = sq.Cylinder(space, tuple(stem))
        b_cyl = oracles[k - 1].refine(a_cyl)
        if b_cyl.space is not space or not b_cyl.extends(a_cyl):
            raise OracleViolation(f"round {k}: refinement is not a sub-cylinder")
        b_cyl = close(b_cyl)
        stem[:] = b_cyl.stem
        return Round(k, c, blocks_from_values(hits(b_cyl.stem, c)),
                     A=a_cyl.stem, B=b_cyl.stem, note=note(c, b_cyl))

    return move


def _ball_hits(x: sq.SeqDescriptor, ball: Ball):
    """``hits`` for ``_cylinder_move``: the positions n in [c, |stem|] whose
    index stem[n - 1] has its term in the ball."""
    test = _in_ball(ball)

    def hits(stem, c):
        ns = range(c, len(stem) + 1)
        return [n for n, ok in zip(ns, _passes(x, test, [stem[n - 1] for n in ns]))
                if ok]

    return hits


def _window_note(c: int, b_cyl: sq.Cylinder) -> dict:
    return {"m_B": b_cyl.m, "window": [c, b_cyl.m]}


def build_subseq_game(
    x: sq.SeqDescriptor,
    ideal: il.Ideal,
    ball: Ball,
    oracles,
    strat_i: PlayerI,
    rounds: int,
    config: dict | None = None,
) -> Transcript:
    """Interleave the game with cylinder refinement.

    Every round: positions below c_k are filled with indices whose terms
    avoid the ball, the round's oracle refines the cylinder, and the move
    F_k collects the ball-hitting positions of the window [c_k, m(B_k)].
    Positions of the window beyond the refined stem are filled by later
    rounds with ball-avoiding indices, so the recorded F_k stays exactly
    the window's hit set in the final subsequence.
    """
    cap = il.horizon_cap()

    def fill(stem, c):
        stem.extend(_next_indices(x, _off_ball(ball), stem[-1] if stem else 0,
                                  c - 1 - len(stem), cap))

    stem: list[int] = []
    move = _cylinder_move(sq.Space.SIGMA, stem, fill, oracles, lambda b_cyl: b_cyl,
                          _ball_hits(x, ball), _window_note)
    return _play("sigma-game", ideal, rounds, strat_i, move, config, stem, "sigma")


def build_perm_game(
    x: sq.SeqDescriptor,
    ideal: il.Ideal,
    ball: Ball,
    oracles,
    strat_i: PlayerI,
    rounds: int,
    config: dict | None = None,
) -> Transcript:
    """Permutation variant: smallest unused ball-avoiding values fill the
    gaps, and every refined cylinder is closed into a permutation of an
    initial segment before the move is extracted (the checkpoint rule)."""
    cap = il.horizon_cap()

    def fill(stem, c):
        # Every round closes the stem into a permutation of 1..len(stem), so
        # the smallest unused ball-avoiding values all lie past len(stem).
        stem.extend(_next_indices(x, _off_ball(ball), len(stem), c - 1 - len(stem),
                                  cap))

    def close(b_cyl):
        # Close the prefix into a permutation of {1..max}: the checkpoint.
        used = set(b_cyl.stem)
        missing = tuple(v for v in range(1, b_cyl.m + 1) if v not in used)
        return sq.Cylinder(sq.Space.PI, b_cyl.stem + missing)

    stem: list[int] = []
    move = _cylinder_move(
        sq.Space.PI, stem, fill, oracles, close, _ball_hits(x, ball),
        lambda c, b_cyl: {"m_B": b_cyl.m, "checkpoint": len(b_cyl.stem),
                          "window": [c, b_cyl.m]},
    )
    return _play("pi-game", ideal, rounds, strat_i, move, config, stem, "pi")


# ---------------------------------------------------------------------------
# Series steering


class ForcingOracle(DenseOpenOracle):
    """Adversarial refinement: push the running partial sum to magnitude >= 1.

    Appends smallest admissible indices whose terms drive |S_n| just past 1
    in the direction of the current sum; recovery stays possible because the
    steering window (-1 - s, 1 - s) still meets the value range (-1, 1).

    The oracle keeps the last stem it returned with its exact sum, so a
    refinement of a stem that extends it sums only the new indices; one
    oracle may serve every forcing round of a build.
    """

    def __init__(self, x: sq.SeqDescriptor):
        self.x = x
        self._summed: tuple[tuple[int, ...], Fraction] = ((), Fraction(0))

    def _sum(self, stem: tuple[int, ...]) -> Fraction:
        done, s = self._summed
        if stem[: len(done)] != done:
            done, s = (), Fraction(0)
        return s + sum((Fraction(self.x.term(i)) for i in stem[len(done):]),
                       Fraction(0))

    def refine(self, cyl):
        stem = list(cyl.stem)
        s = self._sum(cyl.stem)
        sign = 1 if s >= 0 else -1
        # Steps of magnitude in [1/4, 1) toward the sign of s cross 1 with
        # overshoot < 1, so |s| ends in [1, 2) and steering can still
        # recover afterwards.
        step = _Test(lambda v: Fraction(1, 4) <= sign * Fraction(v) < 1,
                     *sorted((Fraction(sign, 4), Fraction(sign))))
        while abs(s) < 1:
            stem += _next_indices(self.x, step, stem[-1] if stem else 0, 1,
                                  il.horizon_cap())
            s += Fraction(self.x.term(stem[-1]))
        self._summed = (tuple(stem), s)
        return sq.Cylinder(sq.Space.SIGMA, self._summed[0])


def steer_series(
    x: sq.SeqDescriptor,
    c_schedule,
    rounds: int,
    oracles=None,
    config: dict | None = None,
) -> Transcript:
    """Greedy partial-sum steering with optional adversarial refinement.

    At each filler position with running sum s, the smallest unused index
    whose term lands in (-1 - s, 1 - s) is appended, keeping |S_n| < 1
    exactly; the move F_k collects window positions where |S_n| >= 1, which
    with pure steering is empty and with forcing oracles is exactly the
    exceedance set of the output.
    """
    if callable(c_schedule):
        schedule = [c_schedule(k) for k in range(1, rounds + 1)]
    else:
        schedule = list(c_schedule)[:rounds]
    if len(schedule) < rounds:
        raise ValueError("c-schedule shorter than the number of rounds")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise InvalidMove("c-schedule must increase strictly")
    sums: list[Fraction] = [Fraction(0)]  # sums[n] = S_n, sums[0] = 0
    cap = il.horizon_cap()

    def fill(stem, c):
        while len(stem) < c - 1:
            s, last = sums[-1], stem[-1] if stem else 0
            # Most steps take the next index: test it by the sum it makes.
            if last < cap and -1 < (t := s + Fraction(x.term(last + 1))) < 1:
                stem.append(last + 1)
                sums.append(t)
                continue
            try:
                stem += _next_indices(x, _in_window(-1 - s, 1 - s), last, 1, cap)
            except ExhaustedIndices as exc:
                raise SteeringStuck(str(exc)) from exc
            sums.append(s + Fraction(x.term(stem[-1])))

    def close(b_cyl):
        for i in b_cyl.stem[len(sums) - 1:]:
            sums.append(sums[-1] + Fraction(x.term(i)))
        return b_cyl

    def judge(union):
        if not union:
            return il.Verdict(il.VerdictValue.IN, "Symbolic", "no exceedances recorded")
        return il.Verdict(il.VerdictValue.UNDECIDED, f"Horizon({len(stem)})",
                          f"exceedances={blocks_size(union)}")

    stem: list[int] = []
    move = _cylinder_move(
        sq.Space.SIGMA, stem, fill,
        [TrivialOracle()] * rounds if oracles is None else oracles, close,
        lambda stem, c: [n for n in range(c, len(stem) + 1) if abs(sums[n]) >= 1],
        lambda c, b_cyl: {**_window_note(c, b_cyl), "sum": str(sums[-1])},
    )
    return _play("series", None, rounds, lambda so_far, k: schedule[k - 1], move,
                 config, stem, "sigma", judge=judge)


# ---------------------------------------------------------------------------
# Transcript validation


def validate_transcript(t: Transcript, x: sq.SeqDescriptor | None = None,
                        ball: Ball | None = None) -> list[str]:
    """Structural invariant check; returns a list of violations (empty = ok)."""
    problems: list[str] = []
    union: list[tuple[int, int]] = []
    prev_c = 0
    prev_b: tuple[int, ...] | None = None
    for r in t.rounds:
        if r.c is not None:
            if r.c < prev_c:
                problems.append(f"round {r.k}: c not monotone")
            if any(lo < r.c for lo, _ in r.F):
                problems.append(f"round {r.k}: F leaves [c, oo)")
            prev_c = r.c
        add_blocks(union, r.F)
        if r.A is not None and r.B is not None:
            if prev_b is not None and r.A[: len(prev_b)] != prev_b:
                problems.append(f"round {r.k}: A does not extend previous B")
            if r.B[: len(r.A)] != r.A:
                problems.append(f"round {r.k}: B does not extend A")
            prev_b = r.B
    if tuple(union) != t.union_blocks:
        problems.append("unionF differs from the union of round moves")
    if t.stem is not None and prev_b is not None:
        if t.stem[: len(prev_b)] != prev_b:
            problems.append("output stem does not lie in the last cylinder")
    if t.space == "sigma" and t.stem is not None:
        if any(b <= a for a, b in zip(t.stem, t.stem[1:])):
            problems.append("sigma stem not strictly increasing")
    if t.space == "pi" and t.stem is not None:
        if len(set(t.stem)) != len(t.stem):
            problems.append("pi stem values not distinct")
        for r in t.rounds:
            cp = (r.note or {}).get("checkpoint")
            if cp is not None and sorted(t.stem[:cp]) != list(range(1, cp + 1)):
                problems.append(f"round {r.k}: checkpoint {cp} not a bijection")
    if x is not None and ball is not None and t.stem is not None:
        windows: list[tuple[int, int]] = []
        for r in t.rounds:
            w = (r.note or {}).get("window")
            if w:
                windows.append((w[0], w[1]))
        ns = [n for n in range(1, len(t.stem) + 1)
              if any(lo <= n <= hi for lo, hi in windows)]
        hit = _passes(x, _in_ball(ball), [t.stem[n - 1] for n in ns])
        rehit = blocks_from_values(n for n, ok in zip(ns, hit) if ok)
        if rehit != t.union_blocks:
            problems.append("recomputed window hit set differs from unionF")
    return problems
