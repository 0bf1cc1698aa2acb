import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealgames import seqspace as sq, setexpr as sx
from idealgames.errors import SpaceMismatch

SQUARES = sx.Finite(tuple(k * k for k in range(1, 101)))


def diagonal_rationals(n):
    # independent oracle: reduced fractions of (0,1) ordered by denominator
    out = []
    q = 1
    while len(out) < n:
        q += 1
        for p in range(1, q):
            if gcd(p, q) == 1:
                out.append(Fraction(p, q))
    return out[:n]


class TestEval:
    def test_alternating_odd_position(self):
        assert sq.eval_term(sq.AlternatingPair(0, 1), 7) == 0

    def test_piecewise_square(self):
        x = sq.PiecewiseOnSet(SQUARES, sq.RULE_IDENT, sq.CONST_ZERO)
        assert sq.eval_term(x, 9) == 9
        assert sq.eval_term(x, 10) == 0

    def test_rational_enum_first_terms(self):
        x = sq.RationalEnum()
        assert [x.term(n) for n in (1, 2, 3)] == [
            Fraction(1, 2),
            Fraction(1, 3),
            Fraction(2, 3),
        ]

    def test_rational_enum_matches_oracle(self):
        x = sq.RationalEnum()
        oracle = diagonal_rationals(500)
        assert [x.term(n) for n in range(1, 501)] == oracle

    def test_rational_enum_each_once_dense(self):
        vals = [sq.RationalEnum().term(n) for n in range(1, 2001)]
        assert len(set(vals)) == len(vals)
        assert all(0 < v < 1 for v in vals)
        # dense-ish: every 0.01-subinterval of (0,1) is hit
        floats = sorted(float(v) for v in vals)
        assert max(b - a for a, b in zip(floats, floats[1:])) < 0.01

    def test_signed_enum_interleaves(self):
        x = sq.SignedRationalEnum()
        plain = sq.RationalEnum()
        for k in range(1, 50):
            assert x.term(2 * k - 1) == plain.term(k)
            assert x.term(2 * k) == -plain.term(k)


class TestTransforms:
    def test_evens_of_alternating_is_constant(self):
        y = sq.Transformed(sq.AlternatingPair(0, 1), sq.Subseq.from_set(sx.EVENS))
        assert [y.term(n) for n in range(1, 20)] == [1] * 19

    def test_identity_subseq(self):
        x = sq.RationalEnum()
        y = sq.Transformed(x, sq.Subseq())
        assert [y.term(n) for n in range(1, 1001)] == [
            x.term(n) for n in range(1, 1001)
        ]

    def test_squares_of_reciprocal(self):
        y = sq.Transformed(sq.ExplicitTail((), sq.RULE_INV), sq.Subseq.from_set(SQUARES))
        assert [y.term(n) for n in (1, 2, 3)] == [
            Fraction(1, 1),
            Fraction(1, 4),
            Fraction(1, 9),
        ]

    def test_adjacent_swap_perm(self):
        stem = tuple(
            v for k in range(1, 501) for v in (2 * k, 2 * k - 1)
        )
        pi = sq.Perm(stem)
        y = sq.Transformed(sq.AlternatingPair(0, 1), pi)
        flipped = sq.AlternatingPair(1, 0)
        assert [y.term(n) for n in range(1, 1001)] == [
            flipped.term(n) for n in range(1, 1001)
        ]

    def test_identity_perm(self):
        x = sq.AlternatingPair(3, 4)
        y = sq.Transformed(x, sq.Perm())
        assert [y.term(n) for n in range(1, 100)] == [
            x.term(n) for n in range(1, 100)
        ]

    def test_perm_requires_initial_segment(self):
        with pytest.raises(ValueError):
            sq.Perm((2, 3))

    def test_perm_rejects_repeated_values(self):
        with pytest.raises(ValueError, match="distinct"):
            sq.Perm((1, 1))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=8, unique=True))
    def test_composition_pointwise(self, raw):
        # eval(Transformed(x, sigma), tau(n)) == eval(x, sigma(tau(n)))
        sigma = sq.Subseq(tuple(sorted(raw)))
        tau = sq.Subseq.from_set(sx.ArithProg(2, 3))
        x = sq.RationalEnum()
        y = sq.Transformed(x, sigma)
        for n in range(1, 50):
            assert y.term(tau.index(n)) == x.term(sigma.index(tau.index(n)))


class TestCylinders:
    def test_m_conventions(self):
        assert sq.Cylinder(sq.Space.SIGMA, (2, 5, 9)).m == 9
        assert sq.Cylinder(sq.Space.PI, (3, 1, 2)).m == 3
        assert sq.Cylinder(sq.Space.SIGMA, ()).m == 0

    def test_nesting(self):
        outer = sq.Cylinder(sq.Space.SIGMA, (2, 5))
        inner = sq.Cylinder(sq.Space.SIGMA, (2, 5, 9))
        assert inner.extends(outer)
        assert not outer.extends(inner)
        with pytest.raises(SpaceMismatch):
            inner.extends(sq.Cylinder(sq.Space.PI, (2,)))

    @pytest.mark.parametrize("space, stem, message", [
        (sq.Space.SIGMA, (2, 5, 5), "strictly increasing"),
        (sq.Space.SIGMA, (3, 2), "strictly increasing"),
        (sq.Space.PI, (2, 1, 2), "distinct"),
        (sq.Space.SIGMA, (0, 4), "start at 1"),
        (sq.Space.PI, (3, 0), "start at 1"),
    ])
    def test_invalid_stems_rejected(self, space, stem, message):
        with pytest.raises(ValueError, match=message):
            sq.Cylinder(space, stem)


class TestSampling:
    def test_first_index_mass(self):
        rng = random.Random(7)
        hits = sum(
            1 for _ in range(10_000) if sq.sample_subseq(rng, 64).stem[0] == 1
        )
        assert abs(hits / 10_000 - 0.5) < 0.03

    def test_two_index_mass(self):
        rng = random.Random(8)
        hits = 0
        for _ in range(10_000):
            stem = sq.sample_subseq(rng, 64).stem
            if stem[:2] == (1, 2):
                hits += 1
        assert abs(hits / 10_000 - 0.25) < 0.03

    def test_expected_stem_size(self):
        rng = random.Random(9)
        sizes = [len(sq.sample_subseq(rng, 1000).stem) for _ in range(200)]
        assert abs(np.mean(sizes) - 500) < 50

    def test_deterministic_from_seed(self):
        assert sq.sample_subseq(123, 500).stem == sq.sample_subseq(123, 500).stem

    def test_prefix_masses_within_three_se(self):
        # dyadic cylinder masses 2**-len for initial stems (1..j), j <= 4
        for j in range(1, 5):
            want = tuple(range(1, j + 1))
            hits = 0
            n = 10_000
            rng = random.Random(100 + j)
            for _ in range(n):
                stem = sq.sample_subseq(rng, 64).stem
                if stem[:j] == want and (len(stem) == j or stem[j] > j):
                    hits += 1
            p = 2.0**-j
            se = (p * (1 - p) / n) ** 0.5
            assert abs(hits / n - p) <= 3 * se


class TestHitSets:
    @settings(max_examples=25, deadline=None)
    @given(
        st.fractions(min_value=-2, max_value=2),
        st.fractions(min_value=0, max_value=1),
    )
    def test_hit_set_matches_bruteforce(self, center, radius):
        lo, hi = center - radius, center + radius
        fixtures = [
            sq.AlternatingPair(0, 1),
            sq.ExplicitTail((), sq.RULE_INV),
            sq.ExplicitTail((Fraction(5), Fraction(1, 2)), sq.TermRule("const", 0)),
            sq.PiecewiseOnSet(SQUARES, sq.RULE_IDENT, sq.CONST_ZERO),
        ]
        for x in fixtures:
            expr = x.hit_set(lo, hi)
            assert expr is not None
            for n in range(1, 300):
                assert expr.member(n) == (lo <= Fraction(x.term(n)) <= hi), (
                    x.label(),
                    n,
                )

    def test_rational_enum_has_no_symbolic_fibers(self):
        assert sq.RationalEnum().hit_set(Fraction(0), Fraction(1, 2)) is None


class TestBulkValues:
    def test_values_match_terms(self):
        fixtures = [
            sq.AlternatingPair(0, 1),
            sq.ExplicitTail((Fraction(7),), sq.RULE_INV),
            sq.PiecewiseOnSet(SQUARES, sq.RULE_IDENT, sq.CONST_ZERO),
            sq.RationalEnum(),
            sq.SignedRationalEnum(),
            sq.Transformed(sq.RationalEnum(), sq.Subseq((3, 6, 7))),
        ]
        for x in fixtures:
            vals = x.values(200)
            for n in range(1, 201):
                assert vals[n] == float(x.term(n)), x.label()
