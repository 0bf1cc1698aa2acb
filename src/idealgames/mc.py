"""Monte Carlo statistics over random subsequences.

Samples are drawn under the fair-coin inclusion model (the pushforward of
Lebesgue measure onto increasing index maps).  Child seeds derive from the
master seed as ``seed * 2**32 + sample_index``, so batches merge
associatively and reports reproduce byte-for-byte from seed plus config.

Undecided preservation outcomes never count as hits; they are tallied
separately, and thresholds are meant to be read against the decided
fraction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import convergence as cv
from . import ideals as il
from . import seqspace as sq


def child_seed(master: int, index: int) -> int:
    return master * 2**32 + index


def wilson_interval(successes: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval; behaves sanely at fractions near 0 and 1."""
    if total == 0:
        return (0.0, 1.0)
    phat = successes / total
    denom = 1 + z**2 / total
    center = (phat + z**2 / (2 * total)) / denom
    half = (
        z
        * math.sqrt(phat * (1 - phat) / total + z**2 / (4 * total**2))
        / denom
    )
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class McReport:
    samples: int
    hits: int
    misses: int
    undecided: int
    seed: int
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.hits + self.misses + self.undecided != self.samples:
            raise ValueError("tallies must add up to the sample count")

    @property
    def decided(self) -> int:
        return self.hits + self.misses

    @property
    def fraction(self) -> float:
        return self.hits / self.samples if self.samples else 0.0

    @property
    def fraction_decided(self) -> float:
        return self.hits / self.decided if self.decided else 0.0

    @property
    def wilson95(self) -> tuple[float, float]:
        return wilson_interval(self.hits, self.decided)

    def as_dict(self) -> dict:
        return {
            "samples": self.samples,
            "hits": self.hits,
            "misses": self.misses,
            "undecided": self.undecided,
            "fraction": self.fraction,
            "fraction_decided": self.fraction_decided,
            "wilson95": list(self.wilson95),
            "seed": self.seed,
            "config": self.config,
        }


def merge_reports(*reports: McReport) -> McReport:
    """Combine batch reports; associative and order-independent."""
    if not reports:
        raise ValueError("nothing to merge")
    base = reports[0]
    return McReport(
        samples=sum(r.samples for r in reports),
        hits=sum(r.hits for r in reports),
        misses=sum(r.misses for r in reports),
        undecided=sum(r.undecided for r in reports),
        seed=base.seed,
        config=base.config,
    )


def estimate_preservation(
    x: sq.SeqDescriptor,
    ideal: il.Ideal,
    kind: str,
    samples: int,
    horizon: int,
    eps: float,
    seed: int,
    batch_size: int | None = None,
) -> tuple[McReport, list[McReport]]:
    """Fraction of sampled subsequences preserving the cluster/limit points.

    Returns the merged report plus per-batch reports (one row per batch for
    CSV export).

    x is evaluated once per call, not per sample: through 2 * horizon, which
    covers every index a sampled subsequence reads.  x's own point set is
    read from that evaluation, and each sample gathers its values and grid
    codes at its own indices, so memory is O(horizon), not
    O(samples * horizon).
    """
    if samples < 100:
        raise ValueError("use at least 100 samples")
    base = cv._Prepared(kind, x, ideal, horizon, eps, 2 * horizon)
    batch_size = batch_size or samples
    config = {
        "seq": x.label(),
        "ideal": ideal.kind,
        "kind": kind,
        "samples": samples,
        "horizon": horizon,
        "eps": eps,
        "seed": seed,
    }
    batches: list[McReport] = []
    hits = misses = undecided = 0
    for i in range(samples):
        sigma = sq.sample_subseq(child_seed(seed, i), horizon)
        outcome = cv.preserve_outcome(kind, x, sigma, ideal, horizon, eps, base=base)
        if not outcome.decided:
            undecided += 1
        elif outcome.matched:
            hits += 1
        else:
            misses += 1
        done = i + 1
        if done % batch_size == 0 or done == samples:
            batches.append(
                McReport(
                    samples=hits + misses + undecided,
                    hits=hits,
                    misses=misses,
                    undecided=undecided,
                    seed=child_seed(seed, done - 1),
                    config={**config, "batch_end": done},
                )
            )
            hits = misses = undecided = 0
    merged = replace(merge_reports(*batches), seed=seed, config=config)
    return merged, batches


DRAW_HORIZON = 64


def dyadic_cylinder_mass(stem: tuple[int, ...], samples: int, seed: int) -> McReport:
    """Empirical probability that a sampled map starts with the stem.

    For a stem a_1 < ... < a_j the exact mass is 2**-a_j: the draw of
    ``DRAW_HORIZON`` inclusion bits must include exactly the stem inside
    [1, a_j].
    """
    if not stem or len(stem) > 8:
        raise ValueError("stem must have 1..8 entries")
    if any(b <= a for a, b in zip(stem, stem[1:])):
        raise ValueError("stem must increase strictly")
    top = stem[-1]
    if DRAW_HORIZON < top:
        raise ValueError("draw horizon below the stem bound")
    want_mask = sum(1 << (n - 1) for n in stem)
    window = (1 << top) - 1
    hits = 0
    for i in range(samples):
        bits = sq.draw_inclusion_bits(child_seed(seed, i), DRAW_HORIZON)
        if bits & window == want_mask:
            hits += 1
    config = {
        "stem": list(stem),
        "samples": samples,
        "draw_horizon": DRAW_HORIZON,
        "seed": seed,
        "expected_mass": 2.0 ** -top,
    }
    return McReport(samples, hits, samples - hits, 0, seed, config)
