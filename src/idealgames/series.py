"""Partial sums, ideal-bounded sequences, and bounded-sum subsequences.

Rational-valued sources produce exact partial sums; float sources carry an
error-bound estimate instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ideals as il
from . import seqspace as sq

DEFAULT_K_MAX = 8


@dataclass(frozen=True)
class PartialSumView:
    """Prefix sums S_1..S_N of a sequence, exact when the source is."""

    source: str
    horizon: int
    values: tuple
    exact: bool
    float_error_bound: float = 0.0

    def __getitem__(self, n: int):
        if not 1 <= n <= self.horizon:
            raise IndexError(n)
        return self.values[n - 1]


def partial_sums(x: sq.SeqDescriptor, horizon: int) -> PartialSumView:
    """S_n = x_1 + ... + x_n for n up to the horizon."""
    il.check_horizon(horizon, floor=1)
    terms = [x.term(n) for n in range(1, horizon + 1)]
    exact = all(isinstance(t, (int, Fraction)) for t in terms)
    out = []
    if exact:
        s = Fraction(0)
        for t in terms:
            s += t
            out.append(s)
        err = 0.0
    else:
        s = 0.0
        for t in terms:
            s += float(t)
            out.append(s)
        # Pessimistic float accumulation bound.
        err = float(
            np.finfo(np.float64).eps * horizon * max(abs(v) for v in out)
        )
    return PartialSumView(x.label(), horizon, tuple(out), exact, err)


def _exceedances(values, bound: int) -> np.ndarray:
    out = np.zeros(len(values) + 1, dtype=bool)
    for n, v in enumerate(values, start=1):
        out[n] = abs(v) > bound
    return out


def ideal_bounded(
    y: PartialSumView | sq.SeqDescriptor,
    ideal: il.Ideal,
    k_max: int = DEFAULT_K_MAX,
    horizon: int | None = None,
) -> il.Verdict:
    """Three-valued test that some magnitude bound k <= k_max has an
    exceedance set inside the ideal.

    Empty exceedance at the horizon certifies In for that k; a divergent-
    looking exceedance set at every tested k yields NotIn; anything else is
    honest Undecided.
    """
    if isinstance(y, sq.SeqDescriptor):
        if horizon is None:
            raise ValueError("need a horizon for a raw sequence")
        il.check_horizon(horizon, floor=1)
        values = [y.term(n) for n in range(1, horizon + 1)]
        label_horizon = horizon
    else:
        values = list(y.values)
        label_horizon = y.horizon
    results = []
    for k in range(1, k_max + 1):
        ind = _exceedances(values, k)
        if not ind.any():
            return il.Verdict(
                il.VerdictValue.IN,
                f"Horizon({label_horizon})",
                f"no exceedances at k={k}",
            )
        verdict = il.classify_horizon_counts(ideal, ind, label_horizon)
        if verdict.value is il.VerdictValue.IN:
            return il.Verdict(
                il.VerdictValue.IN,
                f"Horizon({label_horizon})",
                f"exceedance set in ideal at k={k}: {verdict.evidence}",
            )
        results.append(verdict)
    if all(v.value is il.VerdictValue.NOT_IN for v in results):
        return il.Verdict(
            il.VerdictValue.NOT_IN,
            f"Horizon({label_horizon})",
            f"exceedance set escapes ideal for every k<={k_max}",
        )
    return il.Verdict(
        il.VerdictValue.UNDECIDED,
        f"Horizon({label_horizon})",
        f"undecided for some k<={k_max}",
    )


def subseq_sums_bounded(
    sigma: sq.Subseq,
    x: sq.SeqDescriptor,
    ideal: il.Ideal,
    horizon: int,
    k_max: int = DEFAULT_K_MAX,
) -> il.Verdict:
    """Whether the partial sums of the subsequence are ideal-bounded."""
    return ideal_bounded(
        partial_sums(sq.subseq_apply(sigma, x), horizon), ideal, k_max
    )
