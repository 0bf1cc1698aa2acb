import numpy as np
import pytest

from idealgames import convergence as cv, ideals as il, seqspace as sq, setexpr as sx
from idealgames.errors import HorizonTooSmall

SQUARES = sx.Finite(tuple(k * k for k in range(1, 101)))
ALT = sq.AlternatingPair(0, 1)
INV = sq.ExplicitTail((), sq.RULE_INV)
PIECEWISE = sq.PiecewiseOnSet(SQUARES, sq.RULE_IDENT, sq.CONST_ZERO)


def eps_match(points, expected, eps):
    return cv.hausdorff(tuple(points), tuple(expected)) <= eps


class TestAccumulation:
    def test_alternating(self):
        ps = cv.accumulation_points(ALT, 1000, 0.05)
        assert ps.points == (0.0, 1.0)

    def test_null_sequence(self):
        ps = cv.accumulation_points(INV, 10_000, 0.05)
        assert eps_match(ps.points, (0.0,), 0.05)

    def test_rational_enum_covers_unit_interval(self):
        # oracle: the rationals are dense, so every grid cell is hit often
        ps = cv.accumulation_points(sq.RationalEnum(), 10_000, 0.1)
        grid = np.arange(0, 21) * 0.05
        assert len(ps.points) == 21
        assert np.allclose(ps.points, grid)

    def test_small_horizon_rejected(self):
        with pytest.raises(HorizonTooSmall):
            cv.accumulation_points(ALT, 10, 0.05)


class TestClusterPoints:
    def test_alternating_density(self):
        ps = cv.cluster_points(ALT, il.density0(), 10_000, 0.05)
        assert ps.points == (0.0, 1.0)

    def test_piecewise_density(self):
        # oracle: the off-part (non-squares) has density 1; every large
        # on-value escapes each ball
        ps = cv.cluster_points(PIECEWISE, il.density0(), 10_000, 0.05)
        assert eps_match(ps.points, (0.0,), 0.05)

    def test_fubini_keeps_odd_fiber_only(self):
        # odd positions carry 1; their index set meets the odds infinitely
        x = sq.AlternatingPair(1, 0)
        ps = cv.cluster_points(x, il.fubini_odd(), 10_000, 0.05)
        assert ps.points == (1.0,)

    def test_fin_collapse_exact(self):
        for x in (ALT, INV, PIECEWISE, sq.RationalEnum(), sq.SignedRationalEnum()):
            acc = cv.accumulation_points(x, 10_000, 0.05)
            gamma = cv.cluster_points(x, il.fin(), 10_000, 0.05)
            assert acc.points == gamma.points, x.label()


class TestLimitPoints:
    def test_alternating(self):
        ps = cv.limit_points(ALT, il.density0(), 10_000, eps=0.05)
        assert ps.points == (0.0, 1.0)

    def test_null_sequence_fin(self):
        ps = cv.limit_points(INV, il.fin(), 10_000, eps=0.05)
        assert eps_match(ps.points, (0.0,), 0.05)

    def test_piecewise_density(self):
        # oracle: the witness set of 0 holds the non-squares of each window
        ps = cv.limit_points(PIECEWISE, il.density0(), 10_000, eps=0.05)
        assert eps_match(ps.points, (0.0,), 0.05)

    def test_depth_validation(self):
        for depth in (0, -1, 601):
            with pytest.raises(ValueError, match=r"depth must lie in \[1, 600\]"):
                cv.limit_points(ALT, il.density0(), 600, 0.05, depth)
        for depth in (1, 3, 600):
            ps = cv.limit_points(ALT, il.density0(), 600, 0.05, depth)
            assert ps.points == (0.0, 1.0)


class TestInclusionChain:
    def test_chain_on_matrix(self):
        fixtures = (ALT, INV, PIECEWISE, sq.RationalEnum(), sq.SignedRationalEnum())
        for x in fixtures:
            for ideal in il.BUILTINS:
                lam = cv.limit_points(x, ideal, 10_000, eps=0.05)
                gam = cv.cluster_points(x, ideal, 10_000, 0.05)
                acc = cv.accumulation_points(x, 10_000, 0.05)
                for p in lam.points:
                    assert any(abs(p - q) <= 0.05 for q in gam.points), (
                        x.label(), ideal.kind, p)
                for p in gam.points:
                    assert any(abs(p - q) <= 0.05 for q in acc.points), (
                        x.label(), ideal.kind, p)


class TestPreserves:
    def test_evens_destroy_cluster_points(self):
        evens = sq.Subseq.from_set(sx.EVENS)
        assert not cv.preserve_outcome("cluster", ALT, evens, il.density0(), 10_000, 0.05).matched

    def test_identity_preserves_everything(self):
        ident = sq.Subseq()
        for ideal in il.BUILTINS:
            for kind in ("cluster", "limit"):
                assert cv.preserve_outcome(kind, ALT, ident, ideal, 10_000, 0.05).matched

    def test_anti_monotone_fubini_vs_fin(self):
        # decided cluster points for the Fubini ideal also appear for Fin
        x = sq.AlternatingPair(1, 0)
        fub = cv.cluster_points(x, il.fubini_odd(), 10_000, 0.05)
        fin = cv.cluster_points(x, il.fin(), 10_000, 0.05)
        for p in fub.points:
            assert any(abs(p - q) <= 0.05 for q in fin.points)

    def test_determinism(self):
        a = cv.cluster_points(sq.RationalEnum(), il.density0(), 10_000, 0.05)
        b = cv.cluster_points(sq.RationalEnum(), il.density0(), 10_000, 0.05)
        assert a == b

    def test_undecided_flag_surfaces(self):
        # Summable fibers of the rational enumeration are horizon-starved
        ps = cv.cluster_points(sq.RationalEnum(), il.summable(), 10_000, 0.05)
        assert cv.UNDECIDED_FLAG in ps.flags
        assert not ps.points
