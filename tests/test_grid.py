import math

import numpy as np
import pytest

from conewave.grid import Grid, RadialProfile, cell_moments, interp, trapezoid_weighted


@pytest.fixture
def grid():
    return Grid(h=1 / 64, n_r=4 * 64 + 1, n_t=3)


def const_profile(grid, c=1.0):
    return RadialProfile(grid, np.full(grid.n_r, c))


class TestGrid:
    def test_alignment_and_extents(self, grid):
        assert grid.r_max == pytest.approx(4.0)
        assert grid.t_max == pytest.approx(2 / 64)
        assert np.allclose(np.diff(grid.radii()), grid.h)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(h=0.0, n_r=4, n_t=1)
        with pytest.raises(ValueError):
            Grid(h=0.1, n_r=1, n_t=1)
        with pytest.raises(ValueError):
            Grid(h=0.1, n_r=4, n_t=0)

    def test_index_of_time(self):
        g = Grid(h=0.25, n_r=4, n_t=9)
        assert g.index_of_time(1.5) == 6
        with pytest.raises(ValueError):
            g.index_of_time(1.51)


class TestProfile:
    def test_support_validation(self, grid):
        s = np.zeros(grid.n_r)
        s[10] = 1.0
        with pytest.raises(ValueError):
            RadialProfile(grid, s, support_radius=5 * grid.h)
        RadialProfile(grid, s, support_radius=10 * grid.h)  # edge node allowed

    def test_shape_validation(self, grid):
        with pytest.raises(ValueError):
            RadialProfile(grid, np.zeros(grid.n_r - 1))

    def test_default_support_is_full_grid(self, grid):
        p = const_profile(grid)
        assert p.support_radius == grid.r_max


class TestPowerMoment:
    def test_matches_antiderivative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            e = rng.uniform(-2.5, 3.0)
            x0 = rng.uniform(0.1, 2.0)
            x1 = x0 + rng.uniform(0.0, 3.0)
            got = float(cell_moments(e, x0, x1))
            if abs(e + 1.0) < 1e-12:
                want = math.log(x1 / x0)
            else:
                want = (x1 ** (e + 1) - x0 ** (e + 1)) / (e + 1)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_zero_endpoint(self):
        got = cell_moments(0.5, np.array([0.0, 1.0]), np.array([2.0, 1.0]))
        assert got[0] == pytest.approx(2.0**1.5 / 1.5, rel=1e-14)
        assert got[1] == 0.0  # empty cell
        with pytest.raises(ValueError):
            cell_moments(-1.5, 0.0, 1.0)


class TestTrapezoidWeighted:
    def test_const_profile_weight_one(self, grid):
        # int_1^3 lam dlam = 4
        assert trapezoid_weighted(const_profile(grid), 1.0, 1.0, 3.0) == pytest.approx(
            4.0, rel=1e-12
        )

    def test_zero_profile(self, grid):
        p = const_profile(grid, 0.0)
        assert trapezoid_weighted(p, -0.7, 0.5, 2.5) == 0.0

    def test_linear_profile_weight_zero(self, grid):
        p = RadialProfile(grid, grid.radii())
        assert trapezoid_weighted(p, 0.0, 0.0, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_polynomial_exactness(self, grid):
        # degree <= 1 profiles with integer exponents are exact
        rng = np.random.default_rng(1)
        r = grid.radii()

        def mom(e, lo, hi):
            if e == -1:
                return math.log(hi / lo)
            return (hi ** (e + 1) - lo ** (e + 1)) / (e + 1)

        for e in (-2, -1, 0, 1, 2, 3):
            a0, a1 = rng.normal(size=2)
            p = RadialProfile(grid, a0 + a1 * r)
            lo = 0.5 if e < 0 else 0.0
            hi = 3.5
            want = a0 * mom(e, lo, hi) + a1 * mom(e + 1, lo, hi)
            got = trapezoid_weighted(p, float(e), lo, hi)
            assert got == pytest.approx(want, rel=1e-12)

    def test_linearity_and_additivity(self, grid):
        rng = np.random.default_rng(2)
        p1 = RadialProfile(grid, rng.normal(size=grid.n_r))
        p2 = RadialProfile(grid, rng.normal(size=grid.n_r))
        combo = RadialProfile(grid, 2.0 * p1.samples - 3.0 * p2.samples)
        v = trapezoid_weighted(combo, 0.7, 0.2, 3.1)
        v12 = 2.0 * trapezoid_weighted(p1, 0.7, 0.2, 3.1) - 3.0 * trapezoid_weighted(
            p2, 0.7, 0.2, 3.1
        )
        assert v == pytest.approx(v12, rel=1e-12)
        whole = trapezoid_weighted(p1, 0.7, 0.2, 3.1)
        split = trapezoid_weighted(p1, 0.7, 0.2, 1.7) + trapezoid_weighted(p1, 0.7, 1.7, 3.1)
        assert whole == pytest.approx(split, rel=1e-13)

    def test_domain_errors(self, grid):
        p = const_profile(grid)
        with pytest.raises(ValueError):
            trapezoid_weighted(p, 1.0, 0.0, grid.r_max + 1.0)
        with pytest.raises(ValueError):
            trapezoid_weighted(p, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            trapezoid_weighted(p, -1.0, 0.0, 1.0)  # not integrable at 0

    def test_support_truncation(self, grid):
        # indicator of [0,1]: the cutoff inside the ramp cell is honored
        r = grid.radii()
        ind = RadialProfile(grid, (r <= 1.0 + 1e-12).astype(float), support_radius=1.0)
        assert trapezoid_weighted(ind, 0.0, 0.0, grid.r_max) == pytest.approx(1.0, rel=1e-13)
        assert trapezoid_weighted(ind, 2.0, 0.0, grid.r_max) == pytest.approx(
            1.0 / 3.0, rel=1e-13
        )


class TestInterp:
    def test_examples(self):
        g = Grid(h=1.0, n_r=3, n_t=1)
        p = RadialProfile(g, np.array([0.0, 1.0, 2.0]))
        assert interp(p, 0.5) == pytest.approx(0.5)
        for j, v in enumerate(p.samples):
            assert interp(p, float(j)) == v
        c = RadialProfile(g, np.full(3, 3.0))
        assert interp(c, 0.7) == pytest.approx(3.0)

    def test_bracketing(self, grid):
        rng = np.random.default_rng(3)
        p = RadialProfile(grid, rng.normal(size=grid.n_r))
        for r in rng.uniform(0.0, grid.r_max, 100):
            j = min(int(r / grid.h), grid.n_r - 2)
            lo = min(p.samples[j], p.samples[j + 1])
            hi = max(p.samples[j], p.samples[j + 1])
            assert lo - 1e-12 <= interp(p, r) <= hi + 1e-12

    def test_domain_error(self, grid):
        with pytest.raises(ValueError):
            interp(const_profile(grid), grid.r_max + 0.1)
        with pytest.raises(ValueError):
            interp(const_profile(grid), -0.1)
