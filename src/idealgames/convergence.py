"""Finite-horizon accumulation, cluster, and limit point approximations.

Candidate points come from snapping sequence values to a grid of pitch
eps/2, plus any descriptor-declared special values.  A candidate survives
when its hit set (cluster) or its shrinking-ball witness set (limit)
classifies NotInIdeal; Undecided candidates are excluded conservatively and
surface through flags.  All functions here are pure and deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ideals as il
from . import seqspace as sq
from .errors import OutsideFragment

UNDECIDED_FLAG = "UndecidedDominates"


@dataclass(frozen=True)
class PointSet:
    """Deduplicated candidate points kept at the given resolution."""

    points: tuple[float, ...]
    resolution: float
    flags: tuple[str, ...] = ()
    undecided: tuple[float, ...] = ()

    def __contains__(self, v: float) -> bool:
        return any(abs(p - v) <= self.resolution / 2 for p in self.points)


@dataclass(frozen=True)
class LadderSpec:
    """Shrinking tolerances eps * 2**-j over successive index windows."""

    base_eps: float
    depth: int
    splits: tuple[int, ...]  # 0 = N_0 < N_1 < ... < N_J = horizon

    def __post_init__(self):
        if self.depth < 1 or len(self.splits) != self.depth + 1:
            raise ValueError("need depth >= 1 and depth+1 split points")
        if any(b <= a for a, b in zip(self.splits, self.splits[1:])):
            raise ValueError("splits must increase strictly")

    def eps_at(self, j: int) -> float:
        return self.base_eps * 2.0**-j


def default_ladder(eps: float, horizon: int, depth: int = 6) -> LadderSpec:
    splits = tuple(round(j * horizon / depth) for j in range(depth + 1))
    return LadderSpec(eps, depth, splits)


def _candidates(
    x: sq.SeqDescriptor, vals: np.ndarray, eps: float
) -> tuple[np.ndarray, float]:
    """Grid-snapped vals (x.values(limit)[1:]) plus x's special values."""
    pitch = eps / 2.0
    grid = np.unique(np.round(vals / pitch)) * pitch
    cands = list(grid)
    for s in x.specials():
        if not any(abs(s - c) <= pitch * 1e-9 for c in cands):
            cands.append(s)
    return np.sort(np.asarray(cands)), pitch


def _check_horizon(limit: int, eps: float) -> None:
    il.check_horizon(limit)
    if eps <= 0:
        raise ValueError("eps must be positive")


def _point_set(x, limit, eps, verdict_at) -> PointSet:
    """Candidates c of x whose VerdictValue verdict_at(vals, c) is NotIn.

    ``vals`` is x.values(limit)[1:].  Undecided candidates are listed apart;
    past a quarter of all candidates they flag the set.
    """
    vals = x.values(limit)[1:]
    cands, _ = _candidates(x, vals, eps)
    kept: list[float] = []
    undecided: list[float] = []
    for c in cands.tolist():
        value = verdict_at(vals, c)
        if value is il.VerdictValue.NOT_IN:
            kept.append(c)
        elif value is il.VerdictValue.UNDECIDED:
            undecided.append(c)
    flags = ()
    if len(cands) and len(undecided) > 0.25 * len(cands):
        flags = (UNDECIDED_FLAG,)
    return PointSet(tuple(kept), eps, flags, tuple(undecided))


def accumulation_points(
    x: sq.SeqDescriptor, limit: int, eps: float, min_hits: int = 50
) -> PointSet:
    """Candidates whose eps-ball captures at least min_hits terms."""
    _check_horizon(limit, eps)

    def captures(vals, c):
        hits = int((np.abs(vals - c) <= eps).sum())
        return il.VerdictValue.NOT_IN if hits >= min_hits else il.VerdictValue.IN

    return _point_set(x, limit, eps, captures)


def _classify_hits(
    ideal: il.Ideal,
    x: sq.SeqDescriptor,
    eta: float,
    eps: float,
    hits: np.ndarray,
    limit: int,
) -> il.Verdict:
    """Verdict for the hit set of one candidate ball."""
    if ideal.kind == il.FIN:
        # Count rule only: keeps the collapse onto accumulation_points exact.
        c = int(hits.sum())
        value = (
            il.VerdictValue.NOT_IN
            if c >= ideal.fin_cutoff
            else il.VerdictValue.IN
        )
        return il.Verdict(value, f"Horizon({limit})", f"count={c}")
    lo = Fraction(eta) - Fraction(eps)
    hi = Fraction(eta) + Fraction(eps)
    expr = x.hit_set(lo, hi)
    if expr is not None:
        try:
            return il.classify_symbolic(ideal, expr)
        except OutsideFragment:
            pass
    ind = np.zeros(limit + 1, dtype=bool)
    ind[1:] = hits
    return il.classify_horizon_counts(ideal, ind, limit)


def cluster_points(
    x: sq.SeqDescriptor, ideal: il.Ideal, limit: int, eps: float
) -> PointSet:
    """Candidates whose eps-ball hit set avoids the ideal."""
    _check_horizon(limit, eps)

    def hit_verdict(vals, c):
        hits = np.abs(vals - c) <= eps
        return _classify_hits(ideal, x, c, eps, hits, limit).value

    return _point_set(x, limit, eps, hit_verdict)


def limit_points(
    x: sq.SeqDescriptor,
    ideal: il.Ideal,
    limit: int,
    ladder: LadderSpec | None = None,
    eps: float | None = None,
) -> PointSet:
    """Candidates whose shrinking-ball witness set avoids the ideal.

    The witness set of a candidate collects, window by window, the indices
    whose terms fall within the window's tolerance; a single index set that
    both forces convergence at the ladder rate and avoids the ideal.
    """
    if ladder is None:
        if eps is None:
            raise ValueError("need a ladder or an eps to build the default one")
        ladder = default_ladder(eps, limit)
    if ladder.splits[-1] != limit:
        raise ValueError("ladder must end at the horizon")
    _check_horizon(limit, ladder.base_eps)

    def witness_verdict(vals, c):
        witness = np.zeros(limit + 1, dtype=bool)
        for j in range(1, ladder.depth + 1):
            lo, hi = ladder.splits[j - 1], ladder.splits[j]
            witness[lo + 1 : hi + 1] = np.abs(vals[lo:hi] - c) <= ladder.eps_at(j)
        return il.classify_horizon_counts(ideal, witness, limit).value

    return _point_set(x, limit, ladder.base_eps, witness_verdict)


def point_set(
    kind: str, x: sq.SeqDescriptor, ideal: il.Ideal, limit: int, eps: float
) -> PointSet:
    """The cluster or the limit point set of x, by kind."""
    if kind == "cluster":
        return cluster_points(x, ideal, limit, eps)
    if kind == "limit":
        return limit_points(x, ideal, limit, eps=eps)
    raise ValueError("kind must be 'cluster' or 'limit'")


def hausdorff(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    """Hausdorff distance between two finite point sets."""
    if not a and not b:
        return 0.0
    if not a or not b:
        return math.inf
    va, vb = np.asarray(a), np.asarray(b)
    d = np.abs(va[:, None] - vb[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


@dataclass(frozen=True)
class PreserveOutcome:
    """Tri-state preservation result with both point sets attached."""

    matched: bool
    decided: bool
    base: PointSet
    transformed: PointSet


def preserve_outcome(
    kind: str,
    x: sq.SeqDescriptor,
    t: sq.Subseq | sq.Perm,
    ideal: il.Ideal,
    limit: int,
    eps: float,
    base: PointSet | None = None,
) -> PreserveOutcome:
    """Whether the transform keeps the cluster/limit point set, within eps.

    ``decided`` is False when either side excluded a candidate as Undecided,
    in which case the match answer is not trustworthy either way.
    """
    if base is None:
        base = point_set(kind, x, ideal, limit, eps)
    moved = point_set(kind, sq.Transformed(x, t), ideal, limit, eps)
    matched = hausdorff(base.points, moved.points) <= eps
    decided = not base.undecided and not moved.undecided
    return PreserveOutcome(matched, decided, base, moved)


def preserves(
    kind: str,
    x: sq.SeqDescriptor,
    t: sq.Subseq | sq.Perm,
    ideal: il.Ideal,
    limit: int,
    eps: float,
) -> bool:
    """True iff the transformed point set matches within Hausdorff eps."""
    return preserve_outcome(kind, x, t, ideal, limit, eps).matched
