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


def _candidates(
    x: sq.SeqDescriptor, codes: np.ndarray, pitch: float
) -> tuple[np.ndarray, float]:
    """Grid points codes * pitch (sorted distinct codes) plus x's specials."""
    cands = (codes * pitch).tolist()
    for s in x.specials():
        if not any(abs(s - c) <= pitch * 1e-9 for c in cands):
            cands.append(s)
    return np.sort(np.asarray(cands)), pitch


def _check_horizon(limit: int, eps: float) -> None:
    il.check_horizon(limit)
    if eps <= 0:
        raise ValueError("eps must be positive")


def _view(x: sq.SeqDescriptor, limit: int, pitch: float):
    """The sorted distinct grid codes round(x_n / pitch), n = 1..limit, and
    ``near(c, r)``: the bools |x_n - c| <= r for n = 0..limit, slot 0 always
    False.  r is a float or an array of one tolerance per index.

    ``near`` writes into two buffers the view made once, so each call costs
    no allocation and overwrites the bools the last call returned: read
    them before the next call.

    A ``_Gathered`` sequence carries its own, gathered from a prepared x;
    any other reads x.values(limit).
    """
    if isinstance(x, _Gathered):
        return x.view
    return _view_of(x.values(limit), pitch)


def _view_of(vals: np.ndarray, pitch: float):
    """``_view`` of the sequence whose values array is vals.

    Adding 0.0 turns a code -0.0 into 0.0, so a zero candidate is always
    printed as 0.0.
    """
    codes = np.unique(np.round(vals[1:] / pitch) + 0.0)
    return codes, _near(vals)


def _near(vals: np.ndarray):
    """The ``near`` of ``_view`` over vals, whose slot 0 is NaN."""
    dist = np.empty_like(vals)
    hits = np.empty(len(vals), dtype=bool)

    def near(c, r):
        np.subtract(vals, c, out=dist)
        np.abs(dist, out=dist)
        return np.less_equal(dist, r, out=hits)

    return near


def _point_set(x, limit, eps, verdict_at) -> PointSet:
    """Candidates c of x whose VerdictValue verdict_at(near, c) is NotIn.

    ``near`` is the hit test of ``_view``.  Undecided candidates are listed
    apart; past a quarter of all candidates they flag the set.
    """
    codes, near = _view(x, limit, eps / 2.0)
    cands, _ = _candidates(x, codes, eps / 2.0)
    kept: list[float] = []
    undecided: list[float] = []
    for c in cands.tolist():
        value = verdict_at(near, c)
        if value is il.VerdictValue.NOT_IN:
            kept.append(c)
        elif value is il.VerdictValue.UNDECIDED:
            undecided.append(c)
    flags = ()
    if len(cands) and len(undecided) > 0.25 * len(cands):
        flags = (UNDECIDED_FLAG,)
    return PointSet(tuple(kept), eps, flags, tuple(undecided))


def accumulation_points(x: sq.SeqDescriptor, limit: int, eps: float) -> PointSet:
    """Candidates whose eps-ball captures at least ``il.COUNT_CUTOFF`` terms."""
    _check_horizon(limit, eps)

    def captures(near, c):
        hits = int(np.count_nonzero(near(c, eps)))
        return (il.VerdictValue.NOT_IN if hits >= il.COUNT_CUTOFF
                else il.VerdictValue.IN)

    return _point_set(x, limit, eps, captures)


def _classify_hits(
    ideal: il.Ideal,
    x: sq.SeqDescriptor,
    eta: float,
    eps: float,
    near,
    limit: int,
) -> il.Verdict:
    """Verdict for the hit set of the eps-ball at eta, read through ``near``
    (the hit test of ``_view``) only when the set has no symbolic verdict."""
    seq = x.seq if isinstance(x, _Gathered) else x
    # eta - eps and eta + eps, exact: integer ratios cost less than Fraction arithmetic.
    (p, q), (r, s) = eta.as_integer_ratio(), eps.as_integer_ratio()
    expr = seq.hit_set(Fraction(p * s - r * q, q * s), Fraction(p * s + r * q, q * s))
    if expr is not None:
        try:
            return il.classify_symbolic(ideal, expr)
        except OutsideFragment:
            pass
    return il.classify_horizon_counts(ideal, near(eta, eps), limit)


def cluster_points(
    x: sq.SeqDescriptor, ideal: il.Ideal, limit: int, eps: float
) -> PointSet:
    """Candidates whose eps-ball hit set avoids the ideal.

    Under fin these are the accumulation points, whose ``il.COUNT_CUTOFF``
    is fin's count, so the two sets coincide by construction.
    """
    if ideal.kind == il.FIN:
        return accumulation_points(x, limit, eps)
    _check_horizon(limit, eps)

    def hit_verdict(near, c):
        return _classify_hits(ideal, x, c, eps, near, limit).value

    return _point_set(x, limit, eps, hit_verdict)


def limit_points(
    x: sq.SeqDescriptor,
    ideal: il.Ideal,
    limit: int,
    eps: float,
    depth: int = 6,
) -> PointSet:
    """Candidates whose shrinking-ball witness set avoids the ideal.

    The indices 1..limit are cut into ``depth`` windows of near-equal
    length, and window j tolerates eps * 2**-j.  The witness set of a
    candidate collects, window by window, the indices whose terms fall
    within the window's tolerance; a single index set that both forces
    convergence at that rate and avoids the ideal.  The tolerances are one
    array for every candidate, with slot 0 at -inf so it never hits, and a
    witness set is one ``near`` call.
    """
    _check_horizon(limit, eps)
    if not 1 <= depth <= limit:
        raise ValueError(f"depth must lie in [1, {limit}], got {depth}")
    splits = [round(j * limit / depth) for j in range(depth + 1)]
    tol = np.empty(limit + 1)
    tol[0] = -np.inf
    for j in range(1, depth + 1):
        tol[splits[j - 1] + 1 : splits[j] + 1] = eps * 2.0**-j

    def witness_verdict(near, c):
        return il.classify_horizon_counts(ideal, near(c, tol), limit).value

    return _point_set(x, limit, eps, witness_verdict)


def point_set(
    kind: str, x: sq.SeqDescriptor, ideal: il.Ideal, limit: int, eps: float
) -> PointSet:
    """The cluster or the limit point set of x, by kind."""
    if kind == "cluster":
        return cluster_points(x, ideal, limit, eps)
    if kind == "limit":
        return limit_points(x, ideal, limit, eps)
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


class _Prepared:
    """x evaluated once for its own point set and those of many transforms.

    Holds x's values through ``reach``, which the caller sets to cover every
    index its transforms read (2 * limit covers a fair-coin sample of
    horizon ``limit``: its stem ends by ``limit`` and its shift tail adds
    fewer than ``limit``); the grid code round(x_n / pitch) of each index,
    as an id into the sorted distinct codes; and x's own point set, read
    from these.
    """

    def __init__(self, kind, x, ideal, limit, eps, reach):
        _check_horizon(limit, eps)
        self.key = (kind, x, ideal, limit, eps)
        self.pitch = eps / 2.0
        self.vals = x.values(reach)
        grid = np.round(self.vals / self.pitch) + 0.0  # no code -0.0, as in _view_of
        self.codes = np.unique(grid)
        self.code_id = np.searchsorted(self.codes, grid)
        del grid
        self.pointset = point_set(
            kind, _Gathered(x, self.view(slice(0, limit + 1))), ideal, limit, eps
        )

    def view(self, idx: np.ndarray | slice):
        """``_view`` of the sequence whose n-th term is x's term idx[n]."""
        mark = np.zeros(len(self.codes), dtype=bool)
        mark[self.code_id[idx][1:]] = True
        return self.codes[mark], _near(self.vals[idx])


class _Gathered:
    """seq with the ``_view`` of its point sets, gathered from a ``_Prepared``
    x at the indices that seq reads; its specials and hit sets are seq's."""

    def __init__(self, seq: sq.SeqDescriptor, view):
        self.seq, self.view = seq, view

    def specials(self):
        return self.seq.specials()


def preserve_outcome(
    kind: str,
    x: sq.SeqDescriptor,
    t: sq.Subseq | sq.Perm,
    ideal: il.Ideal,
    limit: int,
    eps: float,
    base: _Prepared | None = None,
) -> PreserveOutcome:
    """Whether the transform keeps the cluster/limit point set, within eps.

    ``decided`` is False when either side excluded a candidate as Undecided,
    in which case the match answer is not trustworthy either way.  ``base``
    is a ``_Prepared`` made with the same kind, x, ideal, limit and eps by a
    caller that tests many transforms of x; without it x is evaluated
    through the last index t reads, for this call alone.
    """
    if base is None:
        _check_horizon(limit, eps)  # a base checked them when it was prepared
    idx = t.indices(limit)
    top = int(idx.max())
    if base is None:
        base = _Prepared(kind, x, ideal, limit, eps, max(limit, top))
    elif base.key != (kind, x, ideal, limit, eps):
        raise ValueError("base was prepared for another kind, x, ideal, limit or eps")
    seq = sq.Transformed(x, t)
    if top < len(base.vals):
        seq = _Gathered(seq, base.view(idx))
    del idx  # a horizon-length array the view no longer needs
    moved = point_set(kind, seq, ideal, limit, eps)
    matched = hausdorff(base.pointset.points, moved.points) <= eps
    decided = not base.pointset.undecided and not moved.undecided
    return PreserveOutcome(matched, decided, base.pointset, moved)
