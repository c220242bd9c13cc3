import math

import numpy as np
import pytest

from conewave.grid import Grid, RadialProfile, trapezoid_weighted
from conewave.potential import (
    ConvolutionKernel,
    bilinear_form,
    convolve_power,
    convolve_profile,
    convolve_profile_direct,
    kernel_value,
)

from oracles import mc_convolution, random_profile


@pytest.fixture
def grid():
    return Grid(h=1 / 64, n_r=4 * 64 + 1, n_t=1)


@pytest.fixture
def ball(grid):
    r = grid.radii()
    return RadialProfile(grid, (r <= 1.0 + 1e-12).astype(float), support_radius=1.0)


class TestClosedForms:
    def test_gamma0_total_mass(self, ball):
        for r in (0.0, 0.3, 0.7, 1.5):
            assert convolve_power(ball, 0.0, r) == pytest.approx(4 * math.pi / 3, rel=1e-12)

    def test_gamma1_axis(self, ball):
        assert convolve_power(ball, 1.0, 0.0) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_gamma1_newton_exterior(self, ball):
        assert convolve_power(ball, 1.0, 2.0) == pytest.approx(2 * math.pi / 3, rel=1e-12)
        # general profile: (V_1*w)(r) = mass(w)/(4 pi r) * 4 pi outside support
        rng = np.random.default_rng(5)
        w = random_profile(ball.grid, rng, nonneg=True)
        mass = 4 * math.pi * trapezoid_weighted(w, 2.0, 0.0, w.grid.r_max)
        r = w.support_radius + 0.8
        assert convolve_power(w, 1.0, r) == pytest.approx(mass / r, rel=1e-10)

    def test_gamma1_interior_harmonic(self, ball):
        # inside a uniform unit ball: 2 pi - (2 pi/3) r^2
        for r in (0.25, 0.5, 0.75):
            want = 2 * math.pi - 2 * math.pi / 3 * r * r
            assert convolve_power(ball, 1.0, r) == pytest.approx(want, rel=1e-12)

    def test_gamma_domain_error(self, ball):
        for g in (-0.5, 3.0, 3.5):
            with pytest.raises(ValueError):
                convolve_power(ball, g, 0.5)


class TestKernel:
    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for gamma in (-0.4, 0.5, 1.0, 2.0, 2.5):
            for _ in range(50):
                r, rho = rng.uniform(0.05, 5.0, 2)
                lhs = r * kernel_value(gamma, r, rho) / rho
                rhs = rho * kernel_value(gamma, rho, r) / r
                assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for gamma in (-0.4, 1.0, 2.0, 2.9):
            for _ in range(50):
                r, rho = rng.uniform(0.0, 5.0, 2)
                if abs(r - rho) < 1e-12:
                    continue
                assert kernel_value(gamma, r, rho) >= 0.0


class TestPaths:
    @pytest.mark.parametrize("gamma", [-0.4, 0.0, 0.5, 1.0, 2.0, 2.5])
    def test_slice_matches_point(self, gamma, grid):
        rng = np.random.default_rng(int(10 * (gamma + 1)))
        w = random_profile(grid, rng)
        # the same samples with the support ending 0.4 cells past the last
        # node, where the truncated cell carries mass
        n_sup = int(round(w.support_radius / grid.h))
        s = w.samples.copy()
        s[n_sup] = s[n_sup - 1]
        cut = RadialProfile(grid, s, support_radius=(n_sup + 0.4) * grid.h)
        for prof in (w, cut):
            fast = convolve_profile(prof, gamma)
            direct = convolve_profile_direct(prof, gamma)
            scale = np.max(np.abs(direct)) + 1e-300
            assert np.max(np.abs(fast - direct)) / scale < 1e-10

    def test_profile_cache_keys_on_whole_grid(self, grid):
        # grids that share h and n_r but not n_t (a verify run's bilinear
        # and trilinear grids can) each get their own kernel
        rng = np.random.default_rng(11)
        for n_t in (1, 5):
            w = random_profile(Grid(h=grid.h, n_r=grid.n_r, n_t=n_t), rng)
            assert np.array_equal(convolve_profile(w, 1.0), ConvolutionKernel(1.0, w.grid).apply(w))

    def test_near_log_branch_stability(self, grid):
        rng = np.random.default_rng(7)
        w = random_profile(grid, rng, nonneg=True)
        base = convolve_profile(w, 2.0)
        for g in (2.0 - 1e-6, 2.0 + 1e-6):
            close = convolve_profile(w, g)
            assert np.max(np.abs(close - base)) / np.max(np.abs(base)) < 1e-4

    def test_partial_cell_truncation(self, grid):
        # support radius strictly inside a cell: the ramp of the last cell
        # is integrated only up to the cutoff
        s = np.ones(grid.n_r)
        sup = 1.0 + 0.4 * grid.h
        r = grid.radii()
        s[r > sup] = 0.0
        w = RadialProfile(grid, s, support_radius=sup)
        got = convolve_power(w, 0.0, 0.5)
        # gamma = 0: convolution equals the total mass of the profile;
        # dense-sampled reference integral of the truncated ramp
        x = np.linspace(0.0, sup, 2_000_001)
        ramp = np.where(x <= 1.0, 1.0, 1.0 - (x - 1.0) / grid.h)
        want = 4 * math.pi * np.trapezoid(x**2 * ramp, x)
        assert got == pytest.approx(want, rel=1e-9)
        fast = convolve_profile(w, 0.0)
        assert fast[32] == pytest.approx(got, rel=1e-10)


class TestProperties:
    def test_monotonicity(self, grid):
        rng = np.random.default_rng(2)
        w1 = random_profile(grid, rng, nonneg=True)
        extra = np.abs(np.convolve(rng.normal(size=grid.n_r), np.ones(5) / 5, "same"))
        extra[int(w1.support_radius / grid.h) :] = 0.0
        w2 = RadialProfile(grid, w1.samples + extra, w1.support_radius)
        for gamma in (-0.4, 1.0, 2.5):
            c1 = convolve_profile(w1, gamma)
            c2 = convolve_profile(w2, gamma)
            assert np.all(c2 >= c1 - 1e-12 * np.max(np.abs(c2)))

    @pytest.mark.parametrize("gamma", [-0.4, 0.5, 1.0, 2.5])
    def test_bilinear_symmetry(self, gamma, grid):
        rng = np.random.default_rng(int(20 * (gamma + 1)))
        for _ in range(5):
            w1 = random_profile(grid, rng)
            w2 = random_profile(grid, rng)
            b12 = bilinear_form(w1, w2, gamma)
            b21 = bilinear_form(w2, w1, gamma)
            assert b12 == pytest.approx(b21, rel=1e-8, abs=1e-12)

    def test_bilinear_consistent_with_convolution(self, grid):
        rng = np.random.default_rng(9)
        w1 = random_profile(grid, rng)
        w2 = random_profile(grid, rng)
        gamma = 1.0
        b = bilinear_form(w1, w2, gamma)
        conv = convolve_profile(w1, gamma)
        r = grid.radii()
        w2v = np.where(r <= w2.support_radius, w2.samples, 0.0)
        approx = 4 * math.pi * np.trapezoid(r**2 * conv * w2v, r)
        assert b == pytest.approx(approx, rel=5e-4)

    def test_mc_oracle_spot(self, grid):
        rng = np.random.default_rng(11)
        w = random_profile(grid, rng, nonneg=True)
        for gamma in (0.5, 2.5):
            r0 = float(rng.uniform(0.0, 1.5))
            if r0 < grid.h / 2:
                r0 = 0.0
            est, err = mc_convolution(w, gamma, r0, 200_000, rng)
            got = convolve_power(w, gamma, r0)
            assert abs(got - est) <= 3.0 * err
