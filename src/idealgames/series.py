"""Partial sums, ideal-bounded sequences, and bounded-sum subsequences.

Partial sums are plain tuples, S_n at position n - 1.  They are exact
(``Fraction``) as long as the terms are, which every sequence the DSL
builds ensures; from the first float term on, they are floats.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

import numpy as np

from . import ideals as il
from . import seqspace as sq

DEFAULT_K_MAX = 8


def partial_sums(x: sq.SeqDescriptor, horizon: int) -> tuple:
    """(S_1, ..., S_N) with S_n = x_1 + ... + x_n and N the horizon."""
    il.check_horizon(horizon, floor=1)
    terms = (x.term(n) for n in range(1, horizon + 1))
    return tuple(accumulate(terms, initial=Fraction(0)))[1:]


def _exceedances(values, bound: int) -> np.ndarray:
    out = np.zeros(len(values) + 1, dtype=bool)
    for n, v in enumerate(values, start=1):
        out[n] = abs(v) > bound
    return out


def ideal_bounded(values, ideal: il.Ideal, k_max: int = DEFAULT_K_MAX) -> il.Verdict:
    """Three-valued test that some magnitude bound k <= k_max has an
    exceedance set inside the ideal, read from the non-empty values
    y_1..y_N (a sequence of partial sums, say) at horizon N = len(values).

    Empty exceedance at the horizon certifies In for that k; a divergent-
    looking exceedance set at every tested k yields NotIn; anything else is
    honest Undecided.
    """
    if not values:
        raise ValueError("need at least one value")
    horizon = len(values)
    results = []
    for k in range(1, k_max + 1):
        ind = _exceedances(values, k)
        if not ind.any():
            return il.Verdict(
                il.VerdictValue.IN,
                f"Horizon({horizon})",
                f"no exceedances at k={k}",
            )
        verdict = il.classify_horizon_counts(ideal, ind, horizon)
        if verdict.value is il.VerdictValue.IN:
            return il.Verdict(
                il.VerdictValue.IN,
                f"Horizon({horizon})",
                f"exceedance set in ideal at k={k}: {verdict.evidence}",
            )
        results.append(verdict)
    if all(v.value is il.VerdictValue.NOT_IN for v in results):
        return il.Verdict(
            il.VerdictValue.NOT_IN,
            f"Horizon({horizon})",
            f"exceedance set escapes ideal for every k<={k_max}",
        )
    return il.Verdict(
        il.VerdictValue.UNDECIDED,
        f"Horizon({horizon})",
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
        partial_sums(sq.Transformed(x, sigma), horizon), ideal, k_max
    )
