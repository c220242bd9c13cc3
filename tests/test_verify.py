import math

import numpy as np
import pytest

from conewave.grid import Grid, RadialProfile
from conewave.norms import WeightParams, weight_row
from conewave.potential import convolve_profile
from conewave.solver import make_data
from conewave.verify import (
    bilinear_rhs,
    c1_constant,
    saturating_profile,
    verify_bilinear,
    verify_free_decay,
    verify_lemma_integrals,
    verify_trilinear,
)

from oracles import mp_convolution


class TestConstants:
    def test_positive_across_branches(self):
        for g in (-0.45, -0.4, 0.0, 0.5, 1.0, 1.9, 2.1, 2.5, 2.9):
            assert c1_constant(g, 2.0) > 0.0

    def test_log_branch_needs_r_above_one(self):
        with pytest.raises(ValueError):
            c1_constant(2.0, 1.0)
        assert c1_constant(2.0, 2.0) > 0.0

    def test_rhs_positive(self):
        r = np.linspace(0.0, 10.0, 50)
        for g, R in ((-0.4, 1.0), (1.0, 1.0), (2.0, 2.0), (2.5, 1.0)):
            assert np.all(bilinear_rhs(g, R, r, 3.0) > 0.0)


class TestSaturatingProfile:
    def test_unit_norm(self):
        grid = Grid.for_domain(1 / 32, 6.0, 0.0)
        for g in (-0.4, 1.0, 2.5):
            sat = saturating_profile(g, 1.0, 4.0, grid)
            wp = WeightParams(g, 1.0)
            r = grid.radii()
            mask = r <= 5.0 + 1e-12
            vals = weight_row(wp, r[mask], 4.0) * sat.samples[mask]
            assert np.max(vals) == pytest.approx(1.0, rel=1e-12)
            assert np.min(vals) == pytest.approx(1.0, rel=1e-12)


class TestBilinear:
    def test_zero_profile_zero_report(self):
        grid = Grid.for_domain(1 / 16, 3.0, 0.0)
        z = RadialProfile(grid, np.zeros(grid.n_r))
        assert np.all(convolve_profile(z, 1.0) == 0.0)

    def test_cone_window_against_mpmath(self):
        # verify_bilinear's t = 0 lattice profile at gamma = -0.4 on the
        # shipped lattice grid (R = 1, h = 1/16, T = 50R): a 16-cell support
        # on 817 nodes.  The window of the 17 cone nodes that it scores was
        # measured 2e-15 off, the all-node apply 5.5e-11 off.
        gamma, R = -0.4, 1.0
        grid = Grid.for_domain(1 / 16, 51.0, 0.0)
        sat = saturating_profile(gamma, R, 0.0, grid)
        w = RadialProfile(grid, sat.samples**2, sat.support_radius)
        k = int(np.count_nonzero(grid.radii() <= R + 1e-12))
        got = convolve_profile(w, gamma, n_out=k)
        assert (grid.n_r, k) == (817, 17) and got.shape == (k,)
        for i in (1, 8, 16):
            want = mp_convolution(w, gamma, i * grid.h)
            assert abs(got[i] - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("gamma,R", [(-0.4, 1.0), (1.0, 1.0), (2.0, 2.0), (2.5, 1.0)])
    def test_no_violations_small(self, gamma, R):
        rep = verify_bilinear(gamma, R, 12.0 * R, R / 32, n_lattice=13, n_random=10, seed=5)
        assert rep.violations == 0
        assert 0.0 < rep.max_ratio <= 1.0

    @pytest.mark.xfail(
        strict=False,
        reason="the per-time extremal ratio saturates from below for most "
        "branches instead of decreasing (see the decisions ledger)",
    )
    def test_per_time_ratio_nonincreasing_beyond_10R(self):
        rep = verify_bilinear(1.0, 1.0, 50.0, 1 / 32, n_lattice=26, n_random=0, seed=0)
        tail = [(t, m) for t, m in rep.extra["per_t_max_ratio"] if t >= 10.0]
        assert all(b[1] <= a[1] + 1e-12 for a, b in zip(tail, tail[1:]))


class TestTrilinear:
    def test_no_violations_and_growth(self):
        rep = verify_trilinear(-0.4, 1.0, 20.0, 1 / 16)
        assert rep.violations == 0
        assert rep.max_ratio < 1.0
        assert rep.extra["growth_10R_to_T"] > 1.0  # D-type growth present

    def test_gamma_positive_bounded(self):
        rep = verify_trilinear(1.0, 1.0, 20.0, 1 / 16)
        assert rep.violations == 0
        assert rep.max_ratio < 1.0

    def test_step_must_divide_R(self):
        # a step of 0.3 would march round(1/0.3) = 3 cells, a support of 0.9
        with pytest.raises(ValueError, match="integer number of grid cells"):
            verify_trilinear(1.0, 1.0, 4.0, 0.3)

    @pytest.mark.xfail(
        strict=False,
        reason="preasymptotic at desk scale: the measured slope against the "
        "growth factor is ~2.5 on [10R, 50R] and decays toward 1 roughly "
        "logarithmically (ledger has the window-resolved measurements)",
    )
    def test_growth_tracks_dgamma_within_15pct(self):
        rep = verify_trilinear(-0.4, 1.0, 50.0, 1 / 32)
        slope = rep.extra["slope_vs_dgamma"]
        assert abs(slope - 1.0) <= 0.15


class TestFreeDecay:
    def test_zero_data(self):
        grid = Grid.for_domain(1 / 16, 5.0, 4.0)
        z = RadialProfile(grid, np.zeros(grid.n_r), support_radius=1.0)
        rep = verify_free_decay(z, z, grid, 1.0)
        assert rep.empirical_constant == 0.0

    def test_linearity(self):
        grid = Grid.for_domain(1 / 32, 30.0, 25.0)
        v0, v1 = make_data("bump_both", 1.0, 1.0, grid)
        w0, w1 = make_data("bump_both", 2.0, 1.0, grid)
        r1 = verify_free_decay(v0, v1, grid, 1.0)
        r2 = verify_free_decay(w0, w1, grid, 1.0)
        assert r2.empirical_constant == pytest.approx(r1.empirical_constant, rel=1e-12)

    def test_stabilizes(self):
        grid = Grid.for_domain(1 / 16, 110.0, 105.0)
        v0, v1 = make_data("bump_both", 1.0, 1.0, grid)
        rep = verify_free_decay(v0, v1, grid, 1.0)
        series = rep.extra["series"]
        c50 = max(v for t, v in series if t <= 50.0)
        c100 = max(v for t, v in series if t <= 100.0)
        assert c100 / c50 <= 1.01
        assert rep.empirical_constant > 0.0


class TestLemmaIntegrals:
    def test_unit_ratio_points(self):
        # kappa = 1, r = t = 1: both sides equal 2/3
        from conewave.verify import _lhs_decay, _rhs_decay

        assert _lhs_decay(1.0, 1.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert _rhs_decay(1.0, 1.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
        # kappa = 0: both sides log 3
        assert _lhs_decay(0.0, 1.0, 1.0) == pytest.approx(math.log(3.0), rel=1e-12)
        assert _rhs_decay(0.0, 1.0, 1.0) == pytest.approx(math.log(3.0), rel=1e-12)
        # r = 0: empty interval
        assert _lhs_decay(0.7, 0.0, 2.0) == 0.0

    def test_randomized_no_violations(self):
        rep = verify_lemma_integrals(10_000, seed=3)
        assert rep.violations == 0
        assert rep.max_ratio <= 1.0 + 1e-12
        assert rep.empirical_constant > 0.0

    def test_report_serialization(self):
        rep = verify_lemma_integrals(50, seed=4)
        d = rep.to_dict()
        assert d["name"] == "decay_integral_lemmas"
        assert d["violations"] == 0
        assert d["samples"] == 50
        assert "max_ratio" in d

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            verify_lemma_integrals(0)
