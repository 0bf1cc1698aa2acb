"""Exact analysis of eventually periodic subsets of the positive integers.

Boolean combinations of Finite, ArithProg and Tail are exactly the
eventually periodic sets, so they reduce to a normal form of pieces

    set ∩ [starts[i], starts[i+1])  =  {n : n mod period_i in residues_i}

one ``(period, residues)`` pattern a piece, the last piece running on
forever.  Every classification question this package asks (finiteness,
natural density, parity of the tail, divergence of the reciprocal sum) is
decided by the last pattern.  Interval schedules over affine generators
reduce here too; geometric schedules do not and are handled by the bounds
layer in :mod:`idealgames.ideals`.
"""
from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, pairwise

from . import setexpr as sx

# Guards against pathological expressions blowing up the normal form.
MAX_PERIOD = 1_000_000
MAX_BLOCKS = 200_000
# Entries in the memo of ``reduce``.
REDUCE_MEMO = 32

_Pattern = tuple[int, frozenset[int]]  # (period, residues)
_NONE: _Pattern = (1, frozenset())  # the one pattern of no residue
_ALL: _Pattern = (1, frozenset({0}))  # the one pattern of every residue


class TooComplex(Exception):
    """Normal form would exceed the configured size guards."""


def merge_blocks(blocks: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Sorted disjoint half-open blocks covering the same integers."""
    return _join(sorted((lo, hi) for lo, hi in blocks if hi > lo))


def _join(blocks: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Non-empty blocks sorted by start, with overlapping or touching ones
    joined: the sorted disjoint non-touching blocks of their union."""
    out: list[tuple[int, int]] = []
    for lo, hi in blocks:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return tuple(out)


def _pattern(period: int, residues: Iterable[int]) -> _Pattern:
    residues = frozenset(residues)
    return _NONE if not residues else _ALL if len(residues) == period else (period, residues)


@dataclass(frozen=True)
class Periodic:
    """Normal form of an eventually periodic set.

    ``starts`` rises strictly from 1, and piece i, from ``starts[i]`` up to
    the next start, holds the n with ``n % period in residues`` for its
    pattern ``patterns[i]``.  Neighbouring pieces have different patterns;
    a pattern of no residue is the shared ``_NONE`` and one of every residue
    the shared ``_ALL``, which ``_combine`` tells apart by identity.
    """

    starts: tuple[int, ...]
    patterns: tuple[_Pattern, ...]

    # The last piece, from the threshold on, decides every fact.
    period = property(lambda self: self.patterns[-1][0])
    residues = property(lambda self: self.patterns[-1][1])
    threshold = property(lambda self: self.starts[-1])
    is_finite = property(lambda self: not self.residues)
    is_cofinite = property(lambda self: len(self.residues) == self.period)

    def member(self, n: int) -> bool:
        i = bisect.bisect_right(self.starts, n) - 1
        period, residues = self.patterns[i]
        return i >= 0 and n % period in residues

    def density(self) -> Fraction:
        """Natural density; exists for every eventually periodic set."""
        return Fraction(len(self.residues), self.period)

    def odd_part_finite(self) -> bool:
        """True iff the set meets the odd integers only finitely often.

        Over an odd period every residue class holds both parities; over an
        even one a class keeps the parity of its residue.  So the residues
        decide it, whatever the size of the period.
        """
        if self.period % 2:
            return not self.residues
        return not any(r % 2 for r in self.residues)

    def block_count(self) -> int:
        """Members below the threshold, counted class by class."""
        return sum(
            (hi - 1 - r) // period - (lo - 1 - r) // period
            for (lo, hi), (period, residues) in zip(pairwise(self.starts), self.patterns)
            for r in residues
        )

    def runs(self) -> tuple[tuple[int, int], ...]:
        """The maximal runs [lo, hi) of members below the threshold, in
        order; TooComplex past ``MAX_BLOCKS`` of them."""
        out: list[tuple[int, int]] = []

        def add(lo, hi):
            if lo < hi and out and out[-1][1] == lo:
                out[-1] = (out[-1][0], hi)
            elif lo < hi:
                out.append((lo, hi))

        cycles = {}  # the runs of each pattern's residues within one period
        for (lo, hi), (period, residues) in zip(pairwise(self.starts), self.patterns):
            if len(residues) == period:
                add(lo, hi)
            elif residues:
                if residues not in cycles:
                    cycles[residues] = _join((r, r + 1) for r in sorted(residues))
                for base in range(lo - lo % period, hi, period):
                    for r0, r1 in cycles[residues]:
                        add(max(lo, base + r0), min(hi, base + r1))
                    if len(out) > MAX_BLOCKS:
                        raise TooComplex("too many runs")
        return tuple(out)

    def tail_reciprocal_upper(self, horizon: int) -> float | None:
        """Certified upper bound on sum(1/a) over members > horizon.

        Only finite sets have a certificate; infinite eventually periodic
        sets contain a progression and diverge.  A set of more than
        ``MAX_BLOCKS`` runs has none either.
        """
        if self.residues:
            return None
        try:
            runs = self.runs()
        except TooComplex:
            return None
        total = 0.0
        for lo, hi in runs:
            lo = max(lo, horizon + 1)
            if lo >= hi:
                continue
            if hi - lo <= 4096:
                total += sum(1.0 / i for i in range(lo, hi))
            else:
                # sum_{i=lo}^{hi-1} 1/i <= 1/lo + ln((hi-1)/lo)
                total += 1.0 / lo + math.log((hi - 1) / lo)
        return total


def _append(starts: list[int], patterns: list[_Pattern], start: int, pattern: _Pattern):
    """Start a piece of ``pattern`` at ``start``, over a piece that starts
    there too; a repeat of the last pattern extends the last piece."""
    if starts and starts[-1] == start:
        del starts[-1], patterns[-1]
    if not patterns or patterns[-1] != pattern:
        starts.append(start)
        patterns.append(pattern)


def _from_runs(runs: Iterable[tuple[int, int]], tail: int | None = None) -> Periodic:
    """The form of sorted disjoint non-touching runs [lo, hi), and of every
    n >= tail when a tail is given."""
    starts = [1, *chain.from_iterable(runs)]
    patterns = [_NONE] + [_ALL, _NONE] * (len(starts) // 2)
    if tail is not None:
        _append(starts, patterns, tail, _ALL)
    if starts[1:2] == [1]:
        del starts[0], patterns[0]
    return Periodic(tuple(starts), tuple(patterns))


class _Made(dict):
    """The patterns that one operation makes, each once, from the operands
    in its key; ``MAX_PERIOD`` residues in all."""

    def __init__(self, make):
        self.make, self.stored = make, 0

    def __missing__(self, key):
        pattern = self[key] = self.make(*key)
        self.stored += len(pattern[1])
        if self.stored > MAX_PERIOD:
            raise TooComplex(f"{self.stored} residues over cap")
        return pattern


def _mix(a: _Pattern, b: _Pattern, union: bool) -> _Pattern:
    """Union or intersection of two patterns, over the lcm of their periods."""
    period = math.lcm(a[0], b[0])
    if period > MAX_PERIOD:
        raise TooComplex(f"period {period} over cap")
    ra, rb = ({r + k for k in range(0, period, p) for r in residues} for p, residues in (a, b))
    return _pattern(period, ra | rb if union else ra & rb)


def _combine(a: Periodic, b: Periodic, op: str) -> Periodic:
    """Union or intersection of two normal forms.

    Walks the operand of fewer pieces and bisects into the other for the
    pieces under each of its own.  An absorbing piece (``_ALL`` in a union,
    ``_NONE`` in an intersection) stays as it is, a neutral one copies the
    pieces under it as one slice, and any other pattern mixes with theirs.
    """
    union = op == "union"
    absorbing, neutral = (_ALL, _NONE) if union else (_NONE, _ALL)
    if len(a.starts) > len(b.starts):
        a, b = b, a
    made = _Made(lambda x, y: _mix(x, y, union))
    starts: list[int] = []
    patterns: list[_Pattern] = []
    j = 0
    for lo, hi, pa in zip(a.starts, chain(a.starts[1:], [None]), a.patterns):
        if pa is absorbing:
            _append(starts, patterns, lo, pa)
            continue
        j = bisect.bisect_right(b.starts, lo, j) - 1
        k = len(b.starts) if hi is None else bisect.bisect_left(b.starts, hi, j)
        if pa is neutral:
            _append(starts, patterns, lo, b.patterns[j])
            starts += b.starts[j + 1 : k]
            patterns += b.patterns[j + 1 : k]
            continue
        for m in range(j, k):
            pb = b.patterns[m]
            pattern = pa if pb is neutral else pb if pb is absorbing else made[pa, pb]
            _append(starts, patterns, max(lo, b.starts[m]), pattern)
    return Periodic(tuple(starts), tuple(patterns))


def _complement(a: Periodic) -> Periodic:
    def other(period, residues):
        # The complement lists every other residue, so its size is the period.
        if period > MAX_PERIOD:
            raise TooComplex(f"period {period} over cap")
        return _pattern(period, set(range(period)) - residues)

    made = _Made(other)
    made.update({_NONE: _ALL, _ALL: _NONE})
    return Periodic(a.starts, tuple(map(made.__getitem__, a.patterns)))


def _from_schedule(s: sx.IntervalSchedule) -> Periodic | None:
    sel = reduce(s.selector)
    if sel is None:
        return None
    if s.gen.affine is None:
        # The blocks of a run [lo, hi) of selected indices tile
        # [value(lo), value(hi)): two terms a run, however large the values.
        # A cofinite selection adds every block from value(sel.threshold).
        if not (sel.is_finite or sel.is_cofinite):
            return None
        value = s.gen.value
        runs = [(value(lo), value(hi)) for lo, hi in sel.runs()]
        return _from_runs(runs, value(sel.threshold) if sel.is_cofinite else None)
    a, b = s.gen.affine

    # Block j is [a*j + b, a*j + a + b), so each selector piece maps to a
    # piece of a times its period and a times its residues: a wide
    # progression of few residues stays cheap.
    def image(period, residues):
        if a * len(residues) > MAX_PERIOD:
            raise TooComplex(f"{a * len(residues)} residues over cap")
        period *= a
        return _pattern(period, ((a * r + b + off) % period for r in residues for off in range(a)))

    made = _Made(image)
    made.update({_NONE: _NONE, _ALL: _ALL})
    starts, patterns = [1], [_NONE]
    for lo, pattern in zip(sel.starts, sel.patterns):
        _append(starts, patterns, a * lo + b, made[pattern])
    return Periodic(tuple(starts), tuple(patterns))


@functools.lru_cache(maxsize=REDUCE_MEMO)
def reduce(s: sx.SetExpr) -> Periodic | None:
    """Normal form of s, or None when s is not eventually periodic.

    Raises TooComplex when the expression is eventually periodic but the
    normal form would exceed the size guards; that is never memoized, so a
    repeat call raises again.

    Results are memoized by expression (set expressions compare and hash
    by structure) in a least-recently-used memo of ``REDUCE_MEMO`` entries.
    Recursive calls go through the memo too, so a sub-expression met again
    is not reduced again.  Sharing a result is safe: ``Periodic`` is frozen,
    and a form shares its patterns with its operands' forms.

    Size.  A Finite of k values has at most 2k + 1 pieces, an ArithProg or
    a Tail at most 2, an affine schedule one more than its selector, and a
    schedule over another generator at most 2·``MAX_BLOCKS`` + 2.  A union
    or intersection has at most the pieces of its operands, a complement
    those of its operand.  A leaf stores at most one residue, and each
    union, intersection, complement and affine schedule at most
    ``MAX_PERIOD`` new ones, shared by the pieces of one pattern: about
    65 MB, against about 33 bytes a piece.  The hit sets of point-set
    classification, over on-sets of about 100 points, take 1-2 kB an entry.

    Cost.  A union or intersection bisects into the operand of more pieces
    once for each piece of the other, so an operand of few pieces costs a
    few searches, and mixes each pair of patterns once, in time linear in
    the lcm of their periods.
    """
    if isinstance(s, sx.Finite):
        return _from_runs(merge_blocks([(v, v + 1) for v in s.values]))
    if isinstance(s, (sx.ArithProg, sx.Tail)):
        # No member below the first one, then one pattern.
        first, pattern = (
            (s.start, _ALL) if isinstance(s, sx.Tail)
            else (s.first, _pattern(s.step, {s.first % s.step}))
        )
        return Periodic((1, first), (_NONE, pattern)) if first > 1 else Periodic((1,), (pattern,))
    if isinstance(s, sx.IntervalSchedule):
        return _from_schedule(s)
    if isinstance(s, (sx.Union, sx.Inter)):
        left, right = reduce(s.left), reduce(s.right)
        if left is None or right is None:
            return None
        return _combine(left, right, "union" if isinstance(s, sx.Union) else "inter")
    if isinstance(s, sx.Compl):
        inner = reduce(s.inner)
        return None if inner is None else _complement(inner)
    raise TypeError(f"unknown expression {type(s).__name__}")
