"""Built-in ideals on N with symbolic and finite-horizon classifiers.

Four ideals are supported: the finite sets, the density-zero sets, the sets
with convergent reciprocal sum, and the sets meeting the odd integers only
finitely often.  Classification is three-valued: a finite horizon cannot
decide tail properties, so Undecided is a first-class outcome rather than a
silent misclassification.

Each kind is one row of ``_ROWS``: its Talagrand witness, its symbolic fact
and evidence texts, and its horizon statistic with the thresholds that read
it.  ``classify_symbolic`` reads NotInIdeal from infinitely many full
witness blocks, else the fact from the set's periodic normal form or sound
bounds, and raises OutsideFragment when the fact is unknown.  ``classify``
then falls back to ``classify_horizon``: one rule over the statistic.

All classifiers are pure functions of (ideal, expression, horizon) and are
safe to call in parallel.
"""
from __future__ import annotations

import enum
import math
import operator
import os
import random
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import periodic
from . import setexpr as sx
from .errors import HorizonCapExceeded, HorizonTooSmall, OutsideFragment


class VerdictValue(enum.Enum):
    IN = "InIdeal"
    NOT_IN = "NotInIdeal"
    UNDECIDED = "Undecided"


@dataclass(frozen=True)
class Verdict:
    value: VerdictValue
    mode: str  # "Symbolic" or "Horizon(N)"
    evidence: str

    @property
    def decided(self) -> bool:
        return self.value is not VerdictValue.UNDECIDED

    def as_dict(self) -> dict:
        return {"value": self.value.value, "mode": self.mode, "evidence": self.evidence}


def _symbolic(value: VerdictValue, evidence: str) -> Verdict:
    return Verdict(value, "Symbolic", evidence)


FIN = "fin"
DENSITY0 = "density0"
SUMMABLE = "summable"
FUBINI_ODD = "fubini-odd"

KINDS = (FIN, DENSITY0, SUMMABLE, FUBINI_ODD)

# The count at which fin's member count, fubini-odd's odd-member count and
# an accumulation candidate's hit count read NotInIdeal.
COUNT_CUTOFF = 50


@dataclass(frozen=True)
class Ideal:
    """Descriptor of a built-in ideal: one of ``KINDS``."""

    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ideal kind {self.kind!r}")


def fin() -> Ideal:
    return Ideal(FIN)


def density0() -> Ideal:
    return Ideal(DENSITY0)


def summable() -> Ideal:
    return Ideal(SUMMABLE)


def fubini_odd() -> Ideal:
    return Ideal(FUBINI_ODD)


BUILTINS = (fin(), density0(), summable(), fubini_odd())


class MaximalIdealStub:
    """Documentation stub: no non-meager ideal is concrete enough to run.

    An ideal with the Baire property is meager (Talagrand 1980;
    Jalali-Naini), so a non-meager ideal, a maximal one for instance, lacks
    that property and is non-constructive.  The classifiers here cover the
    four built-in ideals, all meager.  This class cannot be instantiated.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("maximal ideals are non-constructive; see class docs")


# ---------------------------------------------------------------------------
# Talagrand interval witnesses and symbolic classification


def talagrand_witness(ideal: Ideal) -> sx.Generator:
    """Interval witness of meagerness for a built-in ideal (all four are
    meager): a set containing infinitely many full blocks
    [value(n), value(n+1)) of the generator lies outside the ideal."""
    return sx.generator(_ROWS[ideal.kind].witness)


def _normal_form(s: sx.SetExpr) -> periodic.Periodic | None:
    """``periodic.reduce(s)``, or None when s is not eventually periodic or
    its normal form would exceed the size guards."""
    try:
        return periodic.reduce(s)
    except periodic.TooComplex:
        return None


def _contains_infinite_witness_schedule(s: sx.SetExpr, gen: sx.Generator) -> bool:
    """True when s provably contains infinitely many full blocks of gen."""
    if isinstance(s, sx.IntervalSchedule) and s.gen is gen:
        sel = _normal_form(s.selector)
        return sel is not None and not sel.is_finite
    if isinstance(s, sx.Union):
        return _contains_infinite_witness_schedule(
            s.left, gen
        ) or _contains_infinite_witness_schedule(s.right, gen)
    return False


@dataclass(frozen=True)
class _Bounds:
    """The fact record of a set: sound density bounds and three-valued
    facts (True, False, or None for unknown).

    ``finite``, ``converges`` (of the reciprocal sum) and ``odd_finite``
    each say that the set lies in an ideal, so a union has the fact when
    both sides do, and an intersection when either side does.  When the set
    has a periodic normal form, ``exact`` carries it and every fact is
    exact.
    """

    finite: bool | None
    lodens_lo: float
    lodens_hi: float
    updens_lo: float
    updens_hi: float
    converges: bool | None
    odd_finite: bool | None
    exact: periodic.Periodic | None = None

    def settled(self) -> "_Bounds":
        if self.updens_lo > 0:
            return replace(self, finite=False, converges=False)
        return self


_UNKNOWN = _Bounds(None, 0.0, 1.0, 0.0, 1.0, None, None)


def _both(x: bool | None, y: bool | None) -> bool | None:
    """False when either fact fails, True when both hold, else unknown."""
    return False if x is False or y is False else True if x and y else None


def _either(x: bool | None, y: bool | None) -> bool | None:
    """True when either fact holds, else unknown."""
    return True if x or y else None


def _float_range(q: Fraction) -> tuple[float, float]:
    """The largest float <= q and the smallest float >= q, so that a
    positive q too small for a float still has a positive upper bound."""
    f = q.numerator / q.denominator  # correctly rounded
    a, b = f.as_integer_ratio()
    side = a * q.denominator - q.numerator * b  # the sign of f - q
    return (math.nextafter(f, -math.inf) if side > 0 else f,
            math.nextafter(f, math.inf) if side < 0 else f)


def _bounds_of(s: sx.SetExpr) -> _Bounds:
    """The fact record of s, exact when s has a periodic normal form."""
    p = _normal_form(s)
    if p is not None:
        lo, hi = _float_range(p.density())
        return _Bounds(p.is_finite, lo, hi, lo, hi, p.is_finite, p.odd_part_finite(), p)
    if isinstance(s, sx.IntervalSchedule):
        gen = s.gen
        sel = None if gen.min_ratio is None else _normal_form(s.selector)
        if sel is None or sel.is_finite:
            return _UNKNOWN
        # Infinitely many blocks of geometrically growing length: right
        # endpoints see density >= 1 - 1/ratio, the reciprocal sum picks up
        # a fixed positive mass per block, and block lengths grow beyond
        # every bound so both parities recur forever.
        updens_lo = 1.0 - 1.0 / gen.min_ratio
        converges = False if (gen.interval_harmonic_lower or 0) > 0 else None
        return _Bounds(False, 0.0, 1.0, updens_lo, 1.0, converges, False)
    if isinstance(s, sx.Union):
        a, b = _bounds_of(s.left), _bounds_of(s.right)
        return _Bounds(
            _both(a.finite, b.finite),
            max(a.lodens_lo, b.lodens_lo),
            min(1.0, a.lodens_hi + b.updens_hi, b.lodens_hi + a.updens_hi),
            max(a.updens_lo, b.updens_lo),
            min(1.0, a.updens_hi + b.updens_hi),
            _both(a.converges, b.converges),
            _both(a.odd_finite, b.odd_finite),
        ).settled()
    if isinstance(s, sx.Inter):
        a, b = _bounds_of(s.left), _bounds_of(s.right)
        return _Bounds(
            _either(a.finite, b.finite),
            max(0.0, a.lodens_lo + b.lodens_lo - 1.0),
            min(a.lodens_hi, b.lodens_hi),
            max(0.0, a.updens_lo + b.lodens_lo - 1.0, b.updens_lo + a.lodens_lo - 1.0),
            min(a.updens_hi, b.updens_hi),
            _either(a.converges, b.converges),
            _either(a.odd_finite, b.odd_finite),
        ).settled()
    if isinstance(s, sx.Compl):
        a = _bounds_of(s.inner)
        return _Bounds(
            False if a.finite is True else None,
            1.0 - a.updens_hi,
            1.0 - a.updens_lo,
            1.0 - a.lodens_hi,
            1.0 - a.lodens_lo,
            None,
            False if a.odd_finite is True else None,
        ).settled()
    return _UNKNOWN


def _null_density(b: _Bounds) -> bool | None:
    """True when the upper density is 0, False when it is positive.  An
    exact form has density 0 just when it is finite; its float density is
    not read, because it underflows to 0.0 past a period of about 10^323."""
    if b.exact or b.finite:
        return b.finite
    return True if b.updens_hi == 0.0 else False if b.updens_lo > 0.0 else None


def _size_text(n: int) -> str:
    """``size=n``, or ``size>=2^K`` with K = n.bit_length() - 1 when n has
    more digits than ``str`` may print (``sys.get_int_max_str_digits``)."""
    try:
        return f"size={n}"
    except ValueError:
        return f"size>=2^{n.bit_length() - 1}"



def classify_symbolic(ideal: Ideal, s: sx.SetExpr) -> Verdict:
    """Exact membership verdict over the decidable fragment.

    NotInIdeal when s contains infinitely many full blocks of the ideal's
    witness; otherwise the kind's ``fact`` reads s's fact record, and
    OutsideFragment is raised when it cannot tell, for the caller to fall
    back to classify_horizon.
    """
    if _contains_infinite_witness_schedule(s, talagrand_witness(ideal)):
        return _symbolic(
            VerdictValue.NOT_IN, "contains infinitely many full witness blocks"
        )
    row = _ROWS[ideal.kind]
    b = _bounds_of(s)
    holds = row.fact(b)
    if holds is None:
        raise OutsideFragment(
            f"{s.to_dsl()} is not symbolically decidable for ideal {ideal.kind}"
        )
    evidence = (row.in_text if holds else row.not_in_text)(b, b.exact)
    return _symbolic(VerdictValue.IN if holds else VerdictValue.NOT_IN, evidence)


# ---------------------------------------------------------------------------
# The row of each ideal kind, and finite-horizon classification


@lru_cache(maxsize=4)
def _arange(start: int, stop: int, dtype=None) -> np.ndarray:
    """np.arange(start, stop, dtype=dtype), shared read-only across calls."""
    out = np.arange(start, stop, dtype=dtype)
    out.setflags(write=False)
    return out


def _dhat(ind: np.ndarray, horizon: int) -> float:
    """The largest count(n)/n over n in [N//2, N] (n >= 1), summed over that
    stretch alone with the members below it as one exact count.  Every n
    below 2**53 is exact in the float64 divisors, so dhat is the one a full
    cumulative count and integer divisors give."""
    lo = max(horizon // 2, 1)
    counts = np.cumsum(
        ind[lo : horizon + 1], dtype=np.int32 if horizon < 2**31 else np.int64
    )
    counts += np.count_nonzero(ind[:lo])
    return float((counts / _arange(lo, horizon + 1, np.float64)).max())


class _Kind(NamedTuple):
    """What every classifier knows of one ideal kind.

    A threshold is a (comparison, value) pair that reads the statistic; a
    kind without ``in_ideal`` never reads InIdeal from its statistic alone.
    ``tail`` bounds, from an exact form, what the statistic gains past N.
    """

    witness: str  # the generator of the kind's Talagrand interval partition
    fact: Callable[[_Bounds], bool | None]  # True in, False out, None unknown
    in_text: Callable[[_Bounds, periodic.Periodic | None], str]  # of (b, b.exact)
    not_in_text: Callable[[_Bounds, periodic.Periodic | None], str]
    stat: str  # the horizon statistic's name in the evidence
    statistic: Callable[[np.ndarray, int], int | float]  # of (indicator, N)
    not_in: tuple[Callable[[float, float], bool], float]
    in_ideal: tuple[Callable[[float, float], bool], float] | None = None
    tail: Callable[[periodic.Periodic, int], float | None] | None = None


_ROWS = {
    FIN: _Kind(
        witness="linear",
        fact=lambda b: b.finite,
        in_text=lambda b, p: (
            f"finite, {_size_text(p.block_count())}" if p else "finite"
        ),
        not_in_text=lambda b, p: f"density={p.density()}" if p else "infinite",
        stat="count", statistic=lambda ind, n: int(np.count_nonzero(ind)),
        not_in=(operator.ge, COUNT_CUTOFF),
    ),
    DENSITY0: _Kind(
        witness="pow2",
        fact=_null_density,
        in_text=lambda b, p: "density=0" if p else "upper density 0",
        not_in_text=lambda b, p: (
            f"density={p.density()}" if p else f"upper density >= {b.updens_lo:.6g}"
        ),
        stat="dhat", statistic=_dhat,
        not_in=(operator.gt, 0.10), in_ideal=(operator.lt, 0.02),
    ),
    SUMMABLE: _Kind(
        witness="esum",
        fact=lambda b: b.converges,
        in_text=lambda b, p: ("finite, " if p else "") + "reciprocal sum converges",
        not_in_text=lambda b, p: (
            f"contains a progression, reciprocal sum diverges (density={p.density()})"
            if p
            else "reciprocal sum diverges"
        ),
        stat="recip-sum",
        statistic=lambda ind, n: float(
            (ind[1 : n + 1] / _arange(1, n + 1, np.float64)).sum()
        ),
        not_in=(operator.gt, 4.0),
        tail=periodic.Periodic.tail_reciprocal_upper,
    ),
    FUBINI_ODD: _Kind(
        witness="odd2",
        fact=lambda b: b.odd_finite,
        in_text=lambda b, p: "odd part finite",
        not_in_text=lambda b, p: "odd part infinite",
        stat="odd-count",
        statistic=lambda ind, n: int(np.count_nonzero(ind[1 : n + 1 : 2])),
        not_in=(operator.ge, COUNT_CUTOFF),
    ),
}


def classify_horizon_counts(
    ideal: Ideal, ind: np.ndarray, horizon: int, tail_upper: float | None = None
) -> Verdict:
    """Horizon verdict from a membership indicator (slot 0 unused).

    The kind's row reads its statistic: NotInIdeal past ``not_in``, else
    InIdeal past ``in_ideal``, else InIdeal when the row has a tail
    certificate and the statistic plus ``tail_upper`` stays below the
    ``not_in`` value, else Undecided.  A count prints as an integer.
    """
    row = _ROWS[ideal.kind]
    value = row.statistic(ind, horizon)
    shown = value if isinstance(value, int) else f"{value:.6g}"
    evidence = f"{row.stat}={shown}"
    beyond, bound = row.not_in
    if beyond(value, bound):
        verdict = VerdictValue.NOT_IN
    elif row.in_ideal is not None and row.in_ideal[0](value, row.in_ideal[1]):
        verdict = VerdictValue.IN
    elif row.tail is not None and tail_upper is not None and value + tail_upper < bound:
        verdict = VerdictValue.IN
        evidence += f", certified tail<={tail_upper:.6g}"
    else:
        verdict = VerdictValue.UNDECIDED
    return Verdict(verdict, f"Horizon({horizon})", evidence)


def horizon_cap() -> int:
    """IDEALGAMES_HORIZON_CAP, or 2,000,000 when it is unset."""
    raw = os.environ.get("IDEALGAMES_HORIZON_CAP")
    return int(raw) if raw else 2_000_000


def check_horizon(horizon: int, floor: int | None = 100) -> None:
    """Raise HorizonTooSmall below floor and HorizonCapExceeded above the cap.

    The library's guard on horizons: every entry that takes one calls it.
    ``Subseq`` bounds the indices a stem or set tail names by
    ``horizon_cap`` itself.  A floor of None checks the cap alone.
    """
    if floor is not None and horizon < floor:
        raise HorizonTooSmall(f"horizon {horizon} < {floor}")
    cap = horizon_cap()
    if horizon > cap:
        raise HorizonCapExceeded(
            f"horizon {horizon} exceeds IDEALGAMES_HORIZON_CAP={cap}"
        )


def classify_horizon(ideal: Ideal, s: sx.SetExpr, horizon: int) -> Verdict:
    """Finite-horizon membership verdict; honest Undecided when unsure.

    A kind with a tail certificate reads it from s's periodic normal form.
    """
    check_horizon(horizon)
    ind = sx.indicator(s, horizon)
    tail = _ROWS[ideal.kind].tail
    p = _normal_form(s) if tail is not None else None
    tail_upper = None if p is None else tail(p, horizon)
    return classify_horizon_counts(ideal, ind, horizon, tail_upper)


def classify(ideal: Ideal, s: sx.SetExpr, horizon: int | None = None) -> Verdict:
    """Symbolic verdict when available, horizon verdict otherwise.

    A horizon the caller gives is checked against the cap before the
    symbolic layer is tried; without one the fallback uses 10,000.
    """
    if horizon is not None:
        check_horizon(horizon, floor=None)
    try:
        return classify_symbolic(ideal, s)
    except OutsideFragment:
        return classify_horizon(ideal, s, 10_000 if horizon is None else horizon)


# ---------------------------------------------------------------------------
# Witness soundness harness


@dataclass(frozen=True)
class SoundnessReport:
    ideal: str
    trials: int
    horizon: int
    seed: int
    fraction: float
    failures: tuple[dict, ...] = field(default_factory=tuple)

    def as_dict(self) -> dict:
        return {**asdict(self), "failures": list(self.failures)}


def witness_soundness_report(
    ideal: Ideal,
    witness: sx.Generator | None = None,
    trials: int = 100,
    seed: int = 0,
    horizon: int = 100_000,
) -> SoundnessReport:
    """Finite-scale check of the interval property of a witness.

    Each trial selects at least every other witness block beyond a small
    random offset (plus random extras), materializes the union as an
    interval schedule, and classifies it at the horizon.  A sound witness
    classifies NotInIdeal every time.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if witness is None:
        witness = talagrand_witness(ideal)
    rng = random.Random(seed)
    failures: list[dict] = []
    for trial in range(trials):
        offset = rng.randint(1, 4)
        extras = tuple(
            j
            for j in range(1, offset + 10)
            if (j - offset) % 2 != 0 and rng.random() < 0.5
        )
        selector: sx.SetExpr = sx.ArithProg(offset, 2)
        if extras:
            selector = sx.Union(selector, sx.Finite(extras))
        trial_set = sx.IntervalSchedule(witness, selector)
        verdict = classify_horizon(ideal, trial_set, horizon)
        if verdict.value is not VerdictValue.NOT_IN:
            failures.append(
                {
                    "trial": trial,
                    "offset": offset,
                    "extras": list(extras),
                    "verdict": verdict.as_dict(),
                }
            )
    fraction = (trials - len(failures)) / trials
    return SoundnessReport(
        ideal.kind, trials, horizon, seed, fraction, tuple(failures)
    )
