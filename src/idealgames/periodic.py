"""Exact analysis of eventually periodic subsets of the positive integers.

Boolean combinations of Finite, ArithProg and Tail are exactly the
eventually periodic sets, so they reduce to a normal form

    set = blocks  ∪  {n >= threshold : n mod period in residues}

with ``blocks`` a sorted tuple of disjoint half-open integer ranges below
the threshold.  Every classification question this package asks (finiteness,
natural density, parity of the tail, divergence of the reciprocal sum) is
decidable on the normal form.  Interval schedules over affine generators
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
from operator import itemgetter

from . import setexpr as sx

# Guards against pathological expressions blowing up the normal form.
MAX_PERIOD = 1_000_000
MAX_BLOCKS = 200_000
# Entries in the memo of ``reduce``.
REDUCE_MEMO = 32


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


def _complement_blocks(
    blocks: tuple[tuple[int, int], ...], lo: int, hi: int
) -> list[tuple[int, int]]:
    out = []
    cur = lo
    for b_lo, b_hi in blocks:
        if b_hi <= lo or b_lo >= hi:
            continue
        b_lo, b_hi = max(b_lo, lo), min(b_hi, hi)
        if cur < b_lo:
            out.append((cur, b_lo))
        cur = max(cur, b_hi)
    if cur < hi:
        out.append((cur, hi))
    return out


def _intersect_blocks(
    a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    """Intersection of two sorted disjoint non-touching block tuples.

    Walks the shorter one and bisects into the longer one for the first
    block that ends past each block's start, so an operand of few blocks
    costs a few searches however long the other one is.
    """
    if len(a) > len(b):
        a, b = b, a
    out = []
    end = itemgetter(1)
    j = 0
    for lo, hi in a:
        j = bisect.bisect_right(b, lo, j, key=end)  # first block ending past lo
        k = j
        while k < len(b) and b[k][0] < hi:
            out.append((max(lo, b[k][0]), min(hi, b[k][1])))
            k += 1
    return tuple(out)


@dataclass(frozen=True)
class Periodic:
    """Normal form of an eventually periodic set.

    ``blocks`` are sorted, disjoint and non-touching (at least one integer
    lies between two), and every block ends at or below ``threshold``.
    Every form built here keeps this, and ``_rebase`` and ``_combine``
    rely on it: they join and intersect blocks in linear passes, without
    sorting them again.
    """

    period: int
    residues: frozenset[int]
    threshold: int
    blocks: tuple[tuple[int, int], ...]

    def member(self, n: int) -> bool:
        if n >= self.threshold:
            return n % self.period in self.residues
        for lo, hi in self.blocks:
            if lo <= n < hi:
                return True
        return False

    @property
    def is_finite(self) -> bool:
        return not self.residues

    @property
    def is_cofinite(self) -> bool:
        return len(self.residues) == self.period

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
        return sum(hi - lo for lo, hi in self.blocks)

    def tail_reciprocal_upper(self, horizon: int) -> float | None:
        """Certified upper bound on sum(1/a) over members > horizon.

        Only finite sets have a certificate; infinite eventually periodic
        sets contain a progression and diverge.
        """
        if self.residues:
            return None
        total = 0.0
        for lo, hi in self.blocks:
            lo = max(lo, horizon + 1)
            if lo >= hi:
                continue
            if hi - lo <= 4096:
                total += sum(1.0 / i for i in range(lo, hi))
            else:
                # sum_{i=lo}^{hi-1} 1/i <= 1/lo + ln((hi-1)/lo)
                total += 1.0 / lo + math.log((hi - 1) / lo)
        return total


def _rebase(p: Periodic, period: int, threshold: int) -> Periodic:
    """Re-express with the given (coarser) period and (larger) threshold.

    p itself when both already match.  Otherwise the members of the tail
    between the two thresholds become blocks after p's own; the only join
    is of p's last block with a run starting at p's threshold.
    """
    if period % p.period:
        raise ValueError("new period must be a multiple")
    blocks = p.blocks
    if threshold > p.threshold and p.residues:
        stretch = []
        if p.is_cofinite:
            stretch.append((p.threshold, threshold))
        else:
            if threshold - p.threshold > 2_000_000:
                raise TooComplex("periodic stretch too wide to explicate")
            run_start = None
            for n in range(p.threshold, threshold):
                if n % p.period in p.residues:
                    if run_start is None:
                        run_start = n
                elif run_start is not None:
                    stretch.append((run_start, n))
                    run_start = None
            if run_start is not None:
                stretch.append((run_start, threshold))
        if blocks and stretch and blocks[-1][1] == stretch[0][0]:
            stretch[0] = (blocks[-1][0], stretch[0][1])
            blocks = blocks[:-1]
        blocks += tuple(stretch)
    if len(blocks) > MAX_BLOCKS:
        raise TooComplex("too many blocks")
    if period == p.period:
        if threshold == p.threshold:
            return p
        residues = p.residues
    else:
        residues = frozenset(
            r + k for k in range(0, period, p.period) for r in p.residues
        )
    return Periodic(period, residues, threshold, blocks)


def _union_blocks(
    a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    """Union of two sorted disjoint non-touching block tuples, in one
    merging pass; the other operand itself when one is empty.

    ``sorted`` finds the two sorted runs of a + b and merges them in linear
    time, in C, faster than a merge written in Python.
    """
    if not a or not b:
        return a or b
    return _join(sorted(a + b))


def _combine(a: Periodic, b: Periodic, op: str) -> Periodic:
    """Union or intersection of two normal forms.

    Both are first rebased to the common period and the larger threshold,
    so the residues combine as sets and the blocks in one linear pass.
    """
    period = math.lcm(a.period, b.period)
    if period > MAX_PERIOD:
        raise TooComplex(f"period {period} over cap")
    threshold = max(a.threshold, b.threshold)
    ra = _rebase(a, period, threshold)
    rb = _rebase(b, period, threshold)
    if op == "union":
        residues = ra.residues | rb.residues
        blocks = _union_blocks(ra.blocks, rb.blocks)
    else:
        residues = ra.residues & rb.residues
        blocks = _intersect_blocks(ra.blocks, rb.blocks)
    return Periodic(period, frozenset(residues), threshold, blocks)


def _complement(a: Periodic) -> Periodic:
    # The complement lists every other residue, so its size is the period.
    if a.period > MAX_PERIOD:
        raise TooComplex(f"period {a.period} over cap")
    residues = frozenset(set(range(a.period)) - a.residues)
    blocks = tuple(_complement_blocks(a.blocks, 1, a.threshold))
    return Periodic(a.period, residues, a.threshold, blocks)


def _from_schedule(s: sx.IntervalSchedule) -> Periodic | None:
    sel = reduce(s.selector)
    if sel is None:
        return None
    # Consecutive generator blocks tile, so the blocks of a run [lo, hi) of
    # selected indices cover [value(lo), value(hi)): two terms a run, kept
    # as ranges so the values may be astronomically large.
    if sel.is_finite or sel.is_cofinite:
        # Past the threshold a finite selection has no blocks, and a
        # cofinite one has every block: a full tail of N starting at
        # value(sel.threshold).
        blocks = merge_blocks((s.gen.value(lo), s.gen.value(hi)) for lo, hi in sel.blocks)
        if sel.is_finite:
            return Periodic(1, frozenset(), blocks[-1][1] if blocks else 1, blocks)
        return Periodic(1, frozenset({0}), s.gen.value(sel.threshold), blocks)
    if s.gen.affine is None:
        return None
    a, b = s.gen.affine
    # Block for index j is [a*j + b, a*j + a + b): an affine image, so the
    # union over a periodic index set is again eventually periodic.  Its
    # size is the residue count, not the period: a wide progression of
    # few residues stays cheap.
    if a * len(sel.residues) > MAX_PERIOD:
        raise TooComplex(f"{a * len(sel.residues)} residues over cap")
    period = a * sel.period
    residues = {(a * r + b + off) % period for r in sel.residues for off in range(a)}
    threshold = max(1, a * sel.threshold + b)
    blocks = merge_blocks((max(1, a * lo + b), a * hi + b) for lo, hi in sel.blocks)
    return Periodic(period, frozenset(residues), threshold, blocks)


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
    and callers copy its blocks before they change them.

    The memo keeps at most ``REDUCE_MEMO`` expressions and their normal
    forms alive: ``REDUCE_MEMO`` times the largest one reduced.  A normal
    form holds at most one residue per unit of its period and one block per
    member below its threshold; the guards cap a combined form at
    ``MAX_PERIOD`` residues (about 65 MB) and ``MAX_BLOCKS`` blocks per
    operand (about 20 MB each).  The hit sets that point-set classification
    reduces, over on-sets of about 100 points, take about 2 kB an entry.

    A union or intersection costs time linear in its operands' blocks (an
    intersection with few blocks, a few searches into the other operand's),
    plus the stretch of the tail a rebase lists between two thresholds.
    """
    if isinstance(s, sx.Finite):
        blocks = merge_blocks([(v, v + 1) for v in s.values])
        threshold = blocks[-1][1] if blocks else 1
        return Periodic(1, frozenset(), threshold, blocks)
    if isinstance(s, sx.ArithProg):
        return Periodic(
            s.step, frozenset({s.first % s.step}), s.first, ()
        )
    if isinstance(s, sx.Tail):
        return Periodic(1, frozenset({0}), s.start, ())
    if isinstance(s, sx.IntervalSchedule):
        return _from_schedule(s)
    if isinstance(s, sx.Union):
        left, right = reduce(s.left), reduce(s.right)
        if left is None or right is None:
            return None
        return _combine(left, right, "union")
    if isinstance(s, sx.Inter):
        left, right = reduce(s.left), reduce(s.right)
        if left is None or right is None:
            return None
        return _combine(left, right, "inter")
    if isinstance(s, sx.Compl):
        inner = reduce(s.inner)
        return None if inner is None else _complement(inner)
    raise TypeError(f"unknown expression {type(s).__name__}")
