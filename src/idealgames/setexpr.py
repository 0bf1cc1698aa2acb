"""Symbolic algebra of decidable subsets of the positive integers.

The universe is N = {1, 2, 3, ...}; 0 is excluded everywhere.  Expressions
are immutable after construction and safe to share across threads.  An
interval generator is its formula; only the recurrence ``esum`` keeps the
terms it has walked, behind a lock.
"""
from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IdealGamesError

# e to 50 decimal digits, used so that ceil(e * n) and ceil(e ** n) are
# computed exactly for every integer magnitude this package can reach.
E_EXACT = Fraction(
    "2.71828182845904523536028747135266249775724709369996"
)


class Generator:
    """Strictly increasing positive-integer sequence given by its formula:
    value(n) = fn(n).

    ``affine=(a, b)`` declares that the formula is a*n + b, which the
    symbolic layer exploits for exact reductions.  ``min_ratio`` declares a
    sound lower bound on value(n+1)/value(n); ``interval_harmonic_lower`` a
    sound lower bound on sum(1/i for i in [value(n), value(n+1))).  A
    generator without a closed form has no term past ``MAX_INDEX``.
    """

    MAX_INDEX = 10_000_000

    def __init__(
        self,
        name: str,
        fn,
        affine: tuple[int, int] | None = None,
        min_ratio: float | None = None,
        interval_harmonic_lower: float | None = None,
    ):
        self.name = name
        self._fn = fn
        self.affine = affine
        self.min_ratio = min_ratio
        self.interval_harmonic_lower = interval_harmonic_lower

    def value(self, n: int) -> int:
        """The n-th term (1-indexed)."""
        if n < 1:
            raise ValueError(f"generator index must be >= 1, got {n}")
        if self.affine is None and n > self.MAX_INDEX:
            raise IdealGamesError(f"generator {self.name} index {n} over cap")
        return self._fn(n)

    def block(self, n: int) -> tuple[int, int]:
        """The n-th block [value(n), value(n+1)), as its two ends."""
        return (self.value(n), self.value(n + 1))

    def values_through(self, limit: int) -> np.ndarray:
        """All terms <= limit, plus the first term beyond it, as int64.

        Affine generators build the array in closed form; others walk the
        terms, and a term past the int64 range raises OverflowError.
        """
        if self.affine is not None:
            a, b = self.affine
            return np.arange(a + b, max(limit, b) + a + 1, a, dtype=np.int64)
        vals: list[int] = []
        n = 1
        while True:
            v = self.value(n)
            vals.append(v)
            if v > limit:
                return np.asarray(vals, dtype=np.int64)
            n += 1

    def index_of(self, m: int) -> int | None:
        """Index j with value(j) <= m < value(j+1), or None if m < value(1).

        Works on Python ints of any size: it never builds a values array.
        """
        return None if m < self.value(1) else self.first_index_at_least(m + 1) - 1

    def first_index_at_least(self, bound: int) -> int:
        """Smallest index j with value(j) >= bound.

        An affine generator solves for j.  Others double an index until its
        term reaches the bound, then bisect, so they compute O(log j) terms.  The doubling stops at
        ``MAX_INDEX``; a bound past value(MAX_INDEX) reads the term after
        it, which raises.
        """
        if self.affine is not None:
            a, b = self.affine
            return max(1, -((-(bound - b)) // a))  # ceil((bound - b) / a)
        lo, hi = 0, 1  # value(lo) < bound, where value(0) stands below all
        while self.value(hi) < bound:
            lo, hi = hi, (min(2 * hi, self.MAX_INDEX) if hi < self.MAX_INDEX else hi + 1)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if self.value(mid) < bound else (lo, mid)
        return hi


def _esum():
    """value(1) = 2 and value(n+1) = ceil(e * value(n)) + 1, so each block
    [value(n), value(n+1)) carries harmonic mass >= 1.  The recurrence
    keeps the terms it has walked, behind a lock."""
    terms = [2]
    lock = threading.Lock()

    def fn(n: int) -> int:
        with lock:
            while len(terms) < n:
                terms.append(math.ceil(E_EXACT * terms[-1]) + 1)
            return terms[n - 1]

    return fn


_GENERATORS = {
    g.name: g
    for g in (
        Generator("linear", lambda n: n, affine=(1, 0)),
        Generator("pow2", lambda n: 2**n, min_ratio=2.0, interval_harmonic_lower=0.69),
        Generator("expE", lambda n: math.ceil(E_EXACT**n), min_ratio=1.9,
                  interval_harmonic_lower=0.64),
        Generator("esum", _esum(), min_ratio=2.7, interval_harmonic_lower=1.0),
        Generator("odd2", lambda n: 2 * n - 1, affine=(2, -1)),
    )
}


def generator(name: str) -> Generator:
    try:
        return _GENERATORS[name]
    except KeyError:
        raise IdealGamesError(f"unknown generator {name!r}") from None


def dsl_text(obj) -> str:
    """The DSL text of a set, sequence, rule or transform (see ``dsl``)."""
    from . import dsl  # imported here because dsl imports this module

    return dsl.dump(obj)


class SetExpr:
    """Base class; subclasses form a Boolean algebra with exact membership."""

    def member(self, n: int) -> bool:
        raise NotImplementedError

    to_dsl = dsl_text


def _check_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"universe starts at 1, got {n}")


@dataclass(frozen=True)
class Finite(SetExpr):
    values: tuple[int, ...]

    def __post_init__(self):
        vals = tuple(sorted(set(self.values)))
        if vals and vals[0] < 1:
            raise ValueError("finite sets hold positive integers only")
        object.__setattr__(self, "values", vals)

    def member(self, n: int) -> bool:
        _check_positive(n)
        i = bisect.bisect_left(self.values, n)
        return i < len(self.values) and self.values[i] == n


@dataclass(frozen=True)
class ArithProg(SetExpr):
    """The progression {first, first + step, first + 2*step, ...}."""

    first: int
    step: int

    def __post_init__(self):
        if self.first < 1 or self.step < 1:
            raise ValueError("ArithProg needs first >= 1 and step >= 1")

    def member(self, n: int) -> bool:
        _check_positive(n)
        return n >= self.first and (n - self.first) % self.step == 0


@dataclass(frozen=True)
class Tail(SetExpr):
    """All integers >= start."""

    start: int

    def __post_init__(self):
        if self.start < 1:
            raise ValueError("Tail needs start >= 1")

    def member(self, n: int) -> bool:
        _check_positive(n)
        return n >= self.start


@dataclass(frozen=True)
class IntervalSchedule(SetExpr):
    """Union of blocks [value(j), value(j+1)) over selected generator indices.

    The selector is itself a SetExpr over indices; it must stay inside the
    eventually-periodic fragment (Finite/ArithProg/Tail and Boolean
    combinations) so that membership and classification remain decidable.
    """

    gen: Generator
    selector: SetExpr

    def member(self, n: int) -> bool:
        _check_positive(n)
        j = self.gen.index_of(n)
        return j is not None and self.selector.member(j)


@dataclass(frozen=True)
class Union(SetExpr):
    left: SetExpr
    right: SetExpr

    def member(self, n: int) -> bool:
        return self.left.member(n) or self.right.member(n)


@dataclass(frozen=True)
class Inter(SetExpr):
    left: SetExpr
    right: SetExpr

    def member(self, n: int) -> bool:
        return self.left.member(n) and self.right.member(n)


@dataclass(frozen=True)
class Compl(SetExpr):
    """Complement relative to N = {1, 2, 3, ...}."""

    inner: SetExpr

    def member(self, n: int) -> bool:
        return not self.inner.member(n)


EVENS = ArithProg(2, 2)
ODDS = ArithProg(1, 2)


def interval(lo: int, hi: int) -> SetExpr:
    """The integer range [lo, hi] as a set expression."""
    if lo < 1 or hi < lo:
        raise ValueError(f"bad interval [{lo}, {hi}]")
    return Inter(Tail(lo), Compl(Tail(hi + 1)))


def member(s: SetExpr, n: int) -> bool:
    """True iff n lies in the denoted set."""
    return s.member(n)


def indicator(s: SetExpr, limit: int) -> np.ndarray:
    """Boolean membership array of length limit + 1; slot 0 is always False.

    An interval schedule over an affine generator value(j) = a*j + b has
    blocks [a*j + b, a*j + a + b) of length a each, so its array is the
    selector's indicator over the (limit - b) // a blocks starting at or
    below the limit, each slot repeated a times from a + b on and cut at
    the limit.  Other generators are walked block by block from
    ``values_through``; the built-in ones grow geometrically, so they have
    only logarithmically many blocks below the limit.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if isinstance(s, Finite):
        out = np.zeros(limit + 1, dtype=bool)
        vals = [v for v in s.values if v <= limit]
        if vals:
            out[np.asarray(vals)] = True
        return out
    if isinstance(s, ArithProg):
        out = np.zeros(limit + 1, dtype=bool)
        if s.first <= limit:
            out[s.first :: s.step] = True
        return out
    if isinstance(s, Tail):
        out = np.zeros(limit + 1, dtype=bool)
        if s.start <= limit:
            out[s.start :] = True
        return out
    if isinstance(s, IntervalSchedule):
        out = np.zeros(limit + 1, dtype=bool)
        if s.gen.affine is not None:
            a, b = s.gen.affine
            blocks = (limit - b) // a  # blocks starting at or below limit
            if blocks < 1:
                return out
            selected = indicator(s.selector, blocks)
            out[a + b :] = np.repeat(selected[1:], a)[: limit + 1 - a - b]
            return out
        vals = s.gen.values_through(limit)
        if len(vals) < 2:
            return out
        # Blocks [vals[j-1], vals[j]) for j = 1..len(vals)-1 tile
        # [vals[0], limit], clipped at limit + 1.
        selected = indicator(s.selector, len(vals) - 1)
        out[vals[0] :] = np.repeat(selected[1:], np.diff(np.minimum(vals, limit + 1)))
        return out
    if isinstance(s, Union):
        return indicator(s.left, limit) | indicator(s.right, limit)
    if isinstance(s, Inter):
        return indicator(s.left, limit) & indicator(s.right, limit)
    if isinstance(s, Compl):
        out = ~indicator(s.inner, limit)
        out[0] = False
        return out
    raise TypeError(f"unknown expression {type(s).__name__}")


def prefix(s: SetExpr, limit: int) -> list[int]:
    """All members <= limit, strictly increasing."""
    return np.flatnonzero(indicator(s, limit)).tolist()
