"""Computable real sequences, index transforms, and cylinder sets.

Sequences evaluate exactly (integers and fractions) wherever the descriptor
is rational-valued, so games and series can keep golden transcripts free of
float drift.  Bulk evaluation returns float arrays for the numeric layers.

Descriptors and transforms are immutable; sampling takes caller-supplied
seeds, and parallel sampling needs distinct seeds per task.
"""
from __future__ import annotations

import enum
import random
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor
from typing import Callable, NamedTuple

import numpy as np

from . import ideals as il
from . import setexpr as sx
from .errors import HorizonCapExceeded, SpaceMismatch

Number = int | Fraction | float


def _as_fraction(v: Number) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


# ---------------------------------------------------------------------------
# Term rules shared by explicit-tail and piecewise descriptors


def _parity_set(odd: bool, even: bool) -> sx.SetExpr:
    """All of N, the odds, the evens or nothing, by which parities are in."""
    if odd:
        return sx.Tail(1) if even else sx.ODDS
    return sx.EVENS if even else sx.Finite(())


def _ident_hits(_, lo: Fraction, hi: Fraction) -> sx.SetExpr:
    lo_i, hi_i = max(1, ceil(lo)), floor(hi)
    return sx.interval(lo_i, hi_i) if lo_i <= hi_i else sx.Finite(())


def _inv_hits(_, lo: Fraction, hi: Fraction) -> sx.SetExpr:
    if hi <= 0:
        return sx.Finite(())
    start = max(1, ceil(1 / hi))
    if lo <= 0:
        return sx.Tail(start)
    stop = floor(1 / lo)
    return sx.interval(start, stop) if start <= stop else sx.Finite(())


class _Rule(NamedTuple):
    """How one rule kind evaluates; each entry takes the rule's value first."""

    term: Callable[[Number, int], Number]
    bulk: Callable[[Number, np.ndarray], np.ndarray]
    hits: Callable[[Number, Fraction, Fraction], sx.SetExpr]
    specials: Callable[[Number], tuple[float, ...]]


_RULES: dict[str, _Rule] = {
    "const": _Rule(
        term=lambda c, n: c, bulk=lambda c, idx: np.full(idx.shape, float(c)),
        hits=lambda c, lo, hi: (
            sx.Tail(1) if lo <= _as_fraction(c) <= hi else sx.Finite(())
        ),
        specials=lambda c: (float(c),),
    ),
    "inv": _Rule(
        term=lambda c, n: Fraction(1, n), bulk=lambda c, idx: 1.0 / idx,
        hits=_inv_hits, specials=lambda c: (0.0,),
    ),
    "ident": _Rule(
        term=lambda c, n: n, bulk=lambda c, idx: idx.astype(np.float64),
        hits=_ident_hits, specials=lambda c: (),
    ),
    "altsign": _Rule(
        term=lambda c, n: -1 if n % 2 else 1,
        bulk=lambda c, idx: np.where(idx % 2 == 1, -1.0, 1.0),
        hits=lambda c, lo, hi: _parity_set(lo <= -1 <= hi, lo <= 1 <= hi),
        specials=lambda c: (-1.0, 1.0),
    ),
}


@dataclass(frozen=True)
class TermRule:
    """A registered per-index value rule; only "const" keeps its value."""

    kind: str  # "const" | "inv" | "ident" | "altsign"
    value: Number = 0

    def __post_init__(self):
        if self.kind not in _RULES:
            raise ValueError(self.kind)
        if self.kind != "const":
            object.__setattr__(self, "value", 0)

    def __call__(self, n: int) -> Number:
        return _RULES[self.kind].term(self.value, n)

    def bulk(self, idx: np.ndarray) -> np.ndarray:
        return _RULES[self.kind].bulk(self.value, idx)

    def hit_indices(self, lo: Fraction, hi: Fraction) -> sx.SetExpr:
        """Indices n with rule(n) in [lo, hi], as a set expression."""
        return _RULES[self.kind].hits(self.value, lo, hi)

    def specials(self) -> tuple[float, ...]:
        return _RULES[self.kind].specials(self.value)

    label = sx.dsl_text


CONST_ZERO = TermRule("const", 0)
RULE_INV = TermRule("inv")
RULE_IDENT = TermRule("ident")
RULE_ALTSIGN = TermRule("altsign")


# ---------------------------------------------------------------------------
# Sequence descriptors


class SeqDescriptor:
    """A computable real sequence; term(n) is total for n >= 1."""

    def term(self, n: int) -> Number:
        raise NotImplementedError

    def values(self, limit: int) -> np.ndarray:
        """Float array v with v[n] = term(n) for n <= limit and v[0] NaN.

        v[0] is NaN so that no candidate ever counts slot 0 as a hit.
        """
        raise NotImplementedError

    def hit_set(self, lo: Fraction, hi: Fraction) -> sx.SetExpr | None:
        """Exact index set {n : term(n) in [lo, hi]}, when expressible."""
        return None

    def specials(self) -> tuple[float, ...]:
        return ()

    label = sx.dsl_text


@dataclass(frozen=True)
class AlternatingPair(SeqDescriptor):
    """v0 at odd positions, v1 at even positions."""

    v0: Number
    v1: Number

    def term(self, n: int) -> Number:
        return self.v0 if n % 2 else self.v1

    def values(self, limit: int) -> np.ndarray:
        out = np.empty(limit + 1)
        out[0] = np.nan
        out[1::2] = float(self.v0)
        out[2::2] = float(self.v1)
        return out

    def hit_set(self, lo, hi):
        return _parity_set(
            lo <= _as_fraction(self.v0) <= hi, lo <= _as_fraction(self.v1) <= hi
        )

    def specials(self):
        return (float(self.v0), float(self.v1))


@dataclass(frozen=True)
class ExplicitTail(SeqDescriptor):
    """Finite explicit prefix followed by a registered tail rule."""

    prefix: tuple[Number, ...]
    tail: TermRule

    def term(self, n: int) -> Number:
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.tail(n)

    def values(self, limit: int) -> np.ndarray:
        out = np.empty(limit + 1)
        out[0] = np.nan
        k = min(len(self.prefix), limit)
        out[1 : k + 1] = [float(v) for v in self.prefix[:k]]
        if limit > k:
            out[k + 1 :] = self.tail.bulk(np.arange(k + 1, limit + 1))
        return out

    def hit_set(self, lo, hi):
        tail_idx = self.tail.hit_indices(lo, hi)
        k = len(self.prefix)
        expr: sx.SetExpr = (
            tail_idx if k == 0 else sx.Inter(tail_idx, sx.Tail(k + 1))
        )
        exceptions = tuple(
            i + 1
            for i, v in enumerate(self.prefix)
            if lo <= _as_fraction(v) <= hi
        )
        if exceptions:
            expr = sx.Union(sx.Finite(exceptions), expr)
        return expr

    def specials(self):
        return self.tail.specials()


@dataclass(frozen=True)
class PiecewiseOnSet(SeqDescriptor):
    """on_rule(n) for n in the set, off_rule(n) outside it."""

    on_set: sx.SetExpr
    on_rule: TermRule
    off_rule: TermRule

    def term(self, n: int) -> Number:
        return self.on_rule(n) if self.on_set.member(n) else self.off_rule(n)

    def values(self, limit: int) -> np.ndarray:
        idx = np.arange(limit + 1)
        ind = sx.indicator(self.on_set, limit)
        out = np.where(ind, self.on_rule.bulk(np.maximum(idx, 1)),
                       self.off_rule.bulk(np.maximum(idx, 1)))
        out[0] = np.nan
        return out

    def hit_set(self, lo, hi):
        on_idx = self.on_rule.hit_indices(lo, hi)
        off_idx = self.off_rule.hit_indices(lo, hi)
        return sx.Union(
            sx.Inter(self.on_set, on_idx),
            sx.Inter(sx.Compl(self.on_set), off_idx),
        )

    def specials(self):
        return tuple(dict.fromkeys(self.on_rule.specials() + self.off_rule.specials()))


# Numerators and denominators of the reduced fractions of (0,1), by
# denominator with p ascending.  Both tables are read-only and are replaced
# together, as one tuple, never written, when the enumeration grows.
_RATIONALS: tuple[np.ndarray, np.ndarray] = (
    np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
)
_RATIONALS_LOCK = threading.Lock()


def _rational_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The numerator and denominator tables, holding at least n terms.

    Growth adds whole denominators q, each as ``p = 1..q-1`` masked by
    ``gcd(p, q) == 1``, and at least doubles the tables, so growing one
    term at a time stays linear.

    Safe to call from many threads.  A reader takes no lock: it reads the
    one global tuple once, so it sees both tables of one generation, and
    tables never change once published.  Only growth takes
    ``_RATIONALS_LOCK``, so two growers do not build the same terms twice
    and the larger tables are the ones kept.
    """
    global _RATIONALS
    tables = _RATIONALS
    if len(tables[0]) >= n:
        return tables
    with _RATIONALS_LOCK:
        nums, dens = _RATIONALS
        if len(nums) >= n:
            return _RATIONALS
        target = max(n, 2 * len(nums))
        new_nums, new_dens = [nums], [dens]
        q = int(dens[-1]) if len(dens) else 1
        size = len(nums)
        while size < target:
            q += 1
            p = np.arange(1, q, dtype=np.int64)
            p = p[np.gcd(p, q) == 1]
            new_nums.append(p)
            new_dens.append(np.full(len(p), q, dtype=np.int64))
            size += len(p)
        nums, dens = np.concatenate(new_nums), np.concatenate(new_dens)
        nums.flags.writeable = dens.flags.writeable = False
        _RATIONALS = nums, dens
        return _RATIONALS


def _rational(n: int) -> Fraction:
    """The n-th reduced fraction of (0,1), 1-indexed."""
    if n < 1:
        raise ValueError(f"sequence index must be >= 1, got {n}")
    nums, dens = _rational_table(n)
    return Fraction(nums.item(n - 1), dens.item(n - 1))


@dataclass(frozen=True)
class RationalEnum(SeqDescriptor):
    """Every rational in (0,1) exactly once: 1/2, 1/3, 2/3, 1/4, 3/4, ...

    ``term`` builds the exact Fraction from the integer tables, and
    ``values`` divides them in numpy.  Numerators and denominators are
    below 2**53, so both are exact as float64 and IEEE division rounds the
    quotient correctly: each value equals ``float(term(n))`` bit for bit.
    """

    def term(self, n: int) -> Fraction:
        return _rational(n)

    def values(self, limit: int) -> np.ndarray:
        nums, dens = _rational_table(limit)
        out = np.empty(limit + 1)
        out[0] = np.nan
        np.divide(nums[:limit], dens[:limit], out=out[1:])
        return out


@dataclass(frozen=True)
class SignedRationalEnum(SeqDescriptor):
    """The (0,1) enumeration interleaved with its negation: q1, -q1, q2, ..."""

    def term(self, n: int) -> Fraction:
        q = _rational((n + 1) // 2)
        return q if n % 2 else -q

    def values(self, limit: int) -> np.ndarray:
        m = (limit + 1) // 2
        nums, dens = _rational_table(m)
        out = np.empty(limit + 1)
        out[0] = np.nan
        np.divide(nums[:m], dens[:m], out=out[1::2])
        np.negative(out[1:limit:2], out=out[2::2])
        return out


# ---------------------------------------------------------------------------
# Index transforms: subsequences and permutations


class Space(enum.Enum):
    SIGMA = "sigma"
    PI = "pi"


@dataclass(frozen=True)
class Subseq:
    """Strictly increasing index map: explicit stem plus a tail rule.

    Tail "shift" continues with consecutive integers after the stem; tail
    "set" has no stem and runs along the members of an infinite set
    expression ``tail_set``, which only it takes.  The stem may be given as
    any integer sequence below 2**63, such as an int64 array.  It is kept
    as a read-only int64 array, which ``indices`` reads.  A stem given as a
    tuple is also kept as given; any other is turned into the tuple of
    Python ints that ``stem`` returns on first read, so a sampled
    subsequence that is only gathered through never builds it.

    A set tail keeps the members it has enumerated, with the bound it
    enumerated them through, so later reads reuse them.
    """

    stem: tuple[int, ...] = field(default_factory=tuple)
    tail: str = "shift"
    tail_set: sx.SetExpr | None = None
    _stem_arr: np.ndarray = field(init=False, compare=False, repr=False)
    _members: tuple[int, list[int]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.tail not in ("shift", "set"):
            raise ValueError(f"unknown subsequence tail {self.tail!r}")
        if (self.tail == "set") != (self.tail_set is not None):
            raise ValueError("tail 'set', and only it, takes a set expression")
        try:
            arr = np.array(self.stem, dtype=np.int64)
        except OverflowError:
            raise ValueError("subsequence indices must lie in 1 .. 2**63 - 1") from None
        if self.tail == "set" and arr.size:
            raise ValueError("tail 'set' takes no stem")
        if (arr[1:] <= arr[:-1]).any():
            raise ValueError("subsequence stem must be strictly increasing")
        if arr.size and arr[0] < 1:
            raise ValueError("indices start at 1")
        arr.setflags(write=False)
        object.__setattr__(self, "_stem_arr", arr)
        object.__setattr__(self, "_members", (0, []))
        if not isinstance(self.stem, tuple):
            # The field has no class-level default, so a later read of
            # ``stem`` falls through to __getattr__.
            object.__delattr__(self, "stem")

    def __getattr__(self, name):
        if name != "stem":
            raise AttributeError(name)
        stem = tuple(self._stem_arr.tolist())
        object.__setattr__(self, "stem", stem)
        return stem

    @classmethod
    def from_set(cls, s: sx.SetExpr) -> "Subseq":
        return cls((), "set", s)

    def _set_members(self, need: int) -> list[int]:
        """The members of tail_set enumerated so far, at least need of them.

        The set is enumerated no further than the horizon cap.
        """
        reach, members = self._members
        if len(members) >= need:
            return members
        cap = il.horizon_cap()
        while len(members) < need:
            if reach >= cap:
                raise HorizonCapExceeded(
                    f"{self.tail_set.to_dsl()} yielded only {len(members)} "
                    f"members within IDEALGAMES_HORIZON_CAP={cap}"
                )
            reach = min(max(1024, 4 * need, 4 * reach), cap)
            members = sx.prefix(self.tail_set, reach)
        object.__setattr__(self, "_members", (reach, members))
        return members

    def indices(self, limit: int) -> np.ndarray:
        """Array s with s[0] = 0 and s[n] the n-th index, n <= limit.

        When a stem index lies past limit, the largest index s holds,
        last + limit - k for the k-th stem index last, must lie within the
        horizon cap.
        """
        out = np.zeros(limit + 1, dtype=np.int64)
        if self.tail == "set":
            out[1:] = self._set_members(limit)[:limit]
            return out
        k = min(len(self._stem_arr), limit)
        last = int(self._stem_arr[k - 1]) if k else 0
        if last > limit:
            top, cap = last + limit - k, il.horizon_cap()
            if top > cap:
                raise HorizonCapExceeded(
                    f"stem index {last} reads x through index {top}, "
                    f"past IDEALGAMES_HORIZON_CAP={cap}"
                )
        out[1 : k + 1] = self._stem_arr[:k]
        np.add(last, np.arange(1, limit - k + 1), out=out[k + 1 :])
        return out

    def index(self, n: int) -> int:
        if n < 1:
            raise ValueError("positions start at 1")
        if self.tail == "set":
            return self._set_members(n)[n - 1]
        if n <= len(self.stem):
            return self.stem[n - 1]
        return (self.stem[-1] if self.stem else 0) + n - len(self.stem)

    label = sx.dsl_text


@dataclass(frozen=True)
class Perm:
    """Bijection of N: a stem permuting an initial segment, identity beyond."""

    stem: tuple[int, ...] = ()

    def __post_init__(self):
        if len(set(self.stem)) != len(self.stem):
            raise ValueError("permutation stem values must be distinct")
        if self.stem and sorted(self.stem) != list(range(1, len(self.stem) + 1)):
            raise ValueError(
                "stem must permute an initial segment so the identity tail "
                "yields a bijection"
            )

    def indices(self, limit: int) -> np.ndarray:
        out = np.zeros(limit + 1, dtype=np.int64)
        k = min(len(self.stem), limit)
        out[1 : k + 1] = self.stem[:k]
        if limit > k:
            out[k + 1 :] = np.arange(k + 1, limit + 1)
        return out

    def index(self, n: int) -> int:
        if n < 1:
            raise ValueError("positions start at 1")
        return self.stem[n - 1] if n <= len(self.stem) else n

    label = sx.dsl_text


@dataclass(frozen=True)
class Cylinder:
    """Basic open set: all transforms extending a fixed finite stem."""

    space: Space
    stem: tuple[int, ...]

    def __post_init__(self):
        if self.space is Space.SIGMA:
            if any(b <= a for a, b in zip(self.stem, self.stem[1:])):
                raise ValueError("sigma stems are strictly increasing")
        elif len(set(self.stem)) != len(self.stem):
            raise ValueError("pi stems hold distinct values")
        if self.stem and min(self.stem) < 1:
            raise ValueError("indices start at 1")

    @property
    def m(self) -> int:
        """Stem bound: last value in sigma space, max value in pi space."""
        if not self.stem:
            return 0
        return self.stem[-1] if self.space is Space.SIGMA else max(self.stem)

    def extends(self, other: "Cylinder") -> bool:
        """True iff this cylinder refines (is contained in) the other."""
        if self.space is not other.space:
            raise SpaceMismatch("cannot compare cylinders across spaces")
        return self.stem[: len(other.stem)] == other.stem


@dataclass(frozen=True)
class Transformed(SeqDescriptor):
    """The sequence x composed with an index transform: n -> x(t(n)), a
    subsequence of x for a Subseq and a rearrangement for a Perm."""

    inner: SeqDescriptor
    transform: Subseq | Perm

    def term(self, n: int) -> Number:
        return self.inner.term(self.transform.index(n))

    def values(self, limit: int) -> np.ndarray:
        idx = self.transform.indices(limit)
        top = int(idx.max()) if limit else 1
        base = self.inner.values(top)
        out = np.empty(limit + 1)
        out[0] = np.nan
        out[1:] = base[idx[1:]]
        return out

    def specials(self):
        return self.inner.specials()


def eval_term(x: SeqDescriptor, n: int) -> Number:
    """The n-th term of the sequence."""
    return x.term(n)


def draw_inclusion_bits(seed: int | random.Random, limit: int) -> int:
    """Nonzero fair-coin inclusion mask; bit n-1 set means index n included."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    while True:
        bits = rng.getrandbits(limit)
        if bits:
            return bits


def sample_subseq(seed: int | random.Random, limit: int) -> Subseq:
    """Fair-coin inclusion of each index up to the limit, resampled if empty.

    Identifying increasing index maps with binary expansions in (0, 1], this
    is exactly the pushforward of Lebesgue measure restricted to cylinders
    of horizon ``limit``; the discarded empty draw has probability 2**-limit.

    Bit n-1 of the draw set means index n is included: the draw is written
    out as little-endian bytes and unpacked little-endian, so array position
    n-1 holds bit n-1.
    """
    bits = draw_inclusion_bits(seed, limit)
    raw = np.frombuffer(bits.to_bytes((limit + 7) // 8, "little"), dtype=np.uint8)
    mask = np.unpackbits(raw, bitorder="little")[:limit].view(bool)
    return Subseq(np.flatnonzero(mask) + 1, "shift")
