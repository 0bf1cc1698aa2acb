from fractions import Fraction

import pytest

from idealgames import games as gm, ideals as il, series as se, seqspace as sq, setexpr as sx

CONST_ONE = sq.ExplicitTail((), sq.TermRule("const", 1))
ALT_PM = sq.AlternatingPair(1, -1)
SQUARES = sx.Finite(tuple(k * k for k in range(1, 101)))


class TestPartialSums:
    def test_constant_one(self):
        sums = se.partial_sums(CONST_ONE, 5)
        assert sums == (1, 2, 3, 4, 5)
        assert all(type(s) is Fraction for s in sums)

    def test_alternating(self):
        assert se.partial_sums(ALT_PM, 4) == (1, 0, 1, 0)

    def test_harmonic_exact(self):
        # oracle: hand-summed fractions
        sums = se.partial_sums(sq.ExplicitTail((), sq.RULE_INV), 4)
        assert sums == (
            Fraction(1),
            Fraction(3, 2),
            Fraction(11, 6),
            Fraction(25, 12),
        )

    def test_incremental_matches_scratch(self):
        x = sq.SignedRationalEnum()
        sums = se.partial_sums(x, 300)
        for n in (1, 50, 177, 300):
            scratch = sum((Fraction(x.term(i)) for i in range(1, n + 1)), Fraction(0))
            assert sums[n - 1] == scratch

    def test_float_sources_sum_in_floats(self):
        sums = se.partial_sums(sq.AlternatingPair(0.25, -0.5), 3)
        assert sums == (0.25, -0.25, 0.0)
        assert all(type(s) is float for s in sums)

    def test_sums_stay_exact_before_the_first_float_term(self):
        x = sq.ExplicitTail((Fraction(1, 3), Fraction(1, 3), 0.5), sq.CONST_ZERO)
        sums = se.partial_sums(x, 4)
        assert sums[:2] == (Fraction(1, 3), Fraction(2, 3))
        assert all(type(s) is float for s in sums[2:])
        assert sums[2] == float(Fraction(2, 3)) + 0.5


class TestIdealBounded:
    def test_empty_values_are_rejected(self):
        with pytest.raises(ValueError):
            se.ideal_bounded((), il.fin())

    def test_bounded_sums_are_in(self):
        sums = se.partial_sums(ALT_PM, 1000)
        for ideal in il.BUILTINS:
            v = se.ideal_bounded(sums, ideal, k_max=2)
            assert v.value is il.VerdictValue.IN

    def test_linear_growth_not_in(self):
        sums = se.partial_sums(CONST_ONE, 1000)
        v = se.ideal_bounded(sums, il.density0())
        assert v.value is il.VerdictValue.NOT_IN

    def test_square_exceedances_in_density(self):
        # |y_n| > k only on squares; squares have density zero
        y = sq.PiecewiseOnSet(SQUARES, sq.TermRule("const", 10), sq.CONST_ZERO)
        terms = [y.term(n) for n in range(1, 10_001)]
        v = se.ideal_bounded(terms, il.density0(), k_max=5)
        assert v.value is il.VerdictValue.IN

    def test_monotone_in_k(self):
        sums = se.partial_sums(ALT_PM, 1000)
        first = se.ideal_bounded(sums, il.fin(), k_max=1)
        assert first.value is il.VerdictValue.IN
        for k_max in (2, 4, 8):
            assert se.ideal_bounded(sums, il.fin(), k_max=k_max).value is (
                il.VerdictValue.IN
            )


class TestSubseqSums:
    def test_divergent_everywhere(self):
        # positive terms bounded away from zero: no subsequence stays bounded
        v = se.subseq_sums_bounded(sq.Subseq(), CONST_ONE, il.density0(), 1000)
        assert v.value is il.VerdictValue.NOT_IN
        evens = sq.Subseq.from_set(sx.EVENS)
        v2 = se.subseq_sums_bounded(evens, CONST_ONE, il.density0(), 1000)
        assert v2.value is il.VerdictValue.NOT_IN

    def test_identity_on_alternating(self):
        v = se.subseq_sums_bounded(sq.Subseq(), ALT_PM, il.density0(), 1000)
        assert v.value is il.VerdictValue.IN

    def test_steered_subsequence_is_in(self):
        x = sq.SignedRationalEnum()
        tr = gm.steer_series(x, lambda k: 20 * k, 10)
        sigma = sq.Subseq(tr.stem)
        v = se.subseq_sums_bounded(sigma, x, il.density0(), len(tr.stem), k_max=1)
        assert v.value is il.VerdictValue.IN

    def test_forced_run_exceedances_equal_union(self):
        x = sq.SignedRationalEnum()
        oracles = [
            gm.ForcingOracle(x) if k % 3 == 0 else gm.TrivialOracle()
            for k in range(1, 11)
        ]
        tr = gm.steer_series(x, lambda k: 25 * k, 10, oracles=oracles)
        sums = se.partial_sums(sq.Transformed(x, sq.Subseq(tr.stem)), len(tr.stem))
        exceed = [n for n in range(1, len(tr.stem) + 1) if abs(sums[n - 1]) >= 1]
        assert gm.blocks_from_values(exceed) == tr.union_blocks
