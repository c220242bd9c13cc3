import math
from dataclasses import dataclass

import numpy as np
import pytest

from conewave.grid import Grid, RadialProfile
from conewave.waveops import (
    ConeAccumulator,
    dt_kirchhoff_radial,
    free_field,
    FreeField,
    kirchhoff_radial,
)

from oracles import duhamel_sum_ld, free_table, random_profile, slow_cone_integral


@pytest.fixture
def grid():
    return Grid(h=1 / 128, n_r=5 * 128 + 1, n_t=2)


def ones(grid):
    return RadialProfile(grid, np.ones(grid.n_r))


class TestKirchhoff:
    def test_t_zero(self, grid):
        rng = np.random.default_rng(0)
        phi = random_profile(grid, rng)
        assert kirchhoff_radial(phi, 1.3, 0.0) == 0.0

    def test_constant_mean(self, grid):
        assert kirchhoff_radial(ones(grid), 0.5, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_quadratic(self, grid):
        phi = RadialProfile(grid, grid.radii() ** 2)
        assert kirchhoff_radial(phi, 1.0, 2.0) == pytest.approx(10.0, rel=1e-4)

    def test_domain_error(self, grid):
        with pytest.raises(ValueError):
            kirchhoff_radial(ones(grid), 3.0, 3.0)

    def test_positivity_and_comparison(self, grid):
        # |W(Phi)| <= W(phi) whenever |Phi| <= phi
        rng = np.random.default_rng(1)
        for _ in range(30):
            big = random_profile(grid, rng, nonneg=True)
            signs = rng.choice([-1.0, 1.0], size=grid.n_r)
            small = RadialProfile(grid, big.samples * signs * rng.random(grid.n_r),
                                  big.support_radius)
            r = float(rng.uniform(0.1, 2.0))
            t = float(rng.uniform(0.0, 2.0))
            wb = kirchhoff_radial(big, r, t)
            ws = kirchhoff_radial(small, r, t)
            assert wb >= -1e-14
            assert abs(ws) <= wb + 1e-12 * max(1.0, wb)

    def test_linfty_bound(self, grid):
        # sup_r |W(phi; r, t)| <= t sup|phi| (sharp: equality at phi = const)
        rng = np.random.default_rng(2)
        for _ in range(100):
            phi = random_profile(grid, rng)
            t = float(rng.uniform(0.0, 2.5))
            sup_phi = float(np.max(np.abs(phi.samples)))
            for r in rng.uniform(0.0, grid.r_max - t, 5):
                val = abs(kirchhoff_radial(phi, float(r), t))
                assert val <= t * sup_phi + 1e-12

    @pytest.mark.xfail(
        strict=True,
        reason="the halved constant is refuted by constant data: W(c|r,t) = t c",
    )
    def test_linfty_bound_halved_constant(self, grid):
        phi = ones(grid)
        t = 2.0
        val = abs(kirchhoff_radial(phi, 0.5, t))
        assert val <= 0.5 * t + 1e-12


class TestDtKirchhoff:
    def test_constant(self, grid):
        phi = RadialProfile(grid, np.full(grid.n_r, 3.0))
        assert dt_kirchhoff_radial(phi, 0.8, 1.7) == pytest.approx(3.0, rel=1e-12)

    def test_axis_constant(self, grid):
        assert dt_kirchhoff_radial(ones(grid), 0.0, 3.0) == pytest.approx(1.0, rel=1e-12)

    def test_linear_profile(self, grid):
        phi = RadialProfile(grid, grid.radii())
        assert dt_kirchhoff_radial(phi, 1.0, 2.0) == pytest.approx(4.0, rel=1e-12)


class TestFreeField:
    def test_zero_data(self, grid):
        z = RadialProfile(grid, np.zeros(grid.n_r), support_radius=1.0)
        for (r, t) in [(0.0, 0.5), (1.0, 2.0)]:
            assert free_field(z, z, r, t) == 0.0

    def test_axis_example(self, grid):
        r = grid.radii()
        v1 = RadialProfile(grid, np.where(r <= 1, (1 - np.minimum(r, 1) ** 2) ** 3, 0.0),
                           support_radius=1.0)
        z = RadialProfile(grid, np.zeros(grid.n_r), support_radius=1.0)
        want = 0.5 * (1 - 0.25) ** 3
        assert free_field(z, v1, 0.0, 0.5) == pytest.approx(want, rel=1e-12)

    def test_initial_slice_is_v0(self, grid):
        r = grid.radii()
        bump = np.where(r <= 1, (1 - np.minimum(r, 1) ** 2) ** 3, 0.0)
        v0 = RadialProfile(grid, bump, support_radius=1.0)
        v1 = RadialProfile(grid, 0.5 * bump, support_radius=1.0)
        for rr in (0.0, 0.3, 0.9, 1.5):
            assert free_field(v0, v1, rr, 0.0) == pytest.approx(
                np.interp(rr, r, bump), abs=1e-14
            )

    def test_shell_support_exact(self):
        grid = Grid(h=1 / 32, n_r=32 * 8 + 1, n_t=32 * 4 + 1)
        r = grid.radii()
        bump = np.where(r <= 1, (1 - np.minimum(r, 1) ** 2) ** 3, 0.0)
        v0 = RadialProfile(grid, bump, support_radius=1.0)
        v1 = RadialProfile(grid, bump, support_radius=1.0)
        tab = free_table(FreeField(v0, v1, grid), grid.n_t)
        for n in range(grid.n_t):
            t = n * grid.h
            outside = (r > t + 1.0 + 1e-12) | (r < t - 1.0 - 1e-12)
            assert np.all(tab[n][outside] == 0.0)


    def test_window_matches_full_slice(self):
        # n_r > n_t + jr: the clamp of i + n at n_r - 1 binds on the full
        # slices, and the window reads the same table runs bit for bit
        h, jr = 1 / 16, 16
        grid = Grid(h=h, n_r=120, n_t=60)
        r = grid.radii()
        bump = np.where(r <= 1, (1 - np.minimum(r, 1) ** 2) ** 3, 0.0)
        v0, v1 = (RadialProfile(grid, c * bump, support_radius=1.0) for c in (1.0, 0.25))
        free = FreeField(v0, v1, grid)
        for n in range(grid.n_t):
            full = free.slice(n)
            assert full.shape == (grid.n_r,)
            for k in (1, 2, grid.window(n, jr), grid.n_r - 1):
                assert free.slice(n, k).tobytes() == full[:k].tobytes()


class TestDuhamel:
    def test_zero_source(self):
        grid = Grid(h=1 / 16, n_r=65, n_t=17)
        gt = np.zeros((grid.n_t, grid.n_r))
        assert duhamel_sum_ld(gt, grid, 8)[8] == 0.0

    def test_closed_form_l_one(self):
        h = 1 / 32
        grid = Grid(h=h, n_r=int(4.5 * 32) + 1, n_t=3 * 32 + 1)
        gt = np.ones((grid.n_t, grid.n_r))
        for (k, n) in [(22, 32), (0, 32), (40, 96), (10, 96)]:
            t = n * h
            want = t - math.log1p(t)
            assert duhamel_sum_ld(gt, grid, n)[k] == pytest.approx(want, abs=1e-12)

    def test_accumulator_matches_direct(self):
        # the fast path must reproduce the direct sum to 1e-10 on coarse
        # grids
        h, jr = 1 / 16, 16
        n_t = 49
        grid = Grid(h=h, n_r=n_t + jr, n_t=n_t)
        rng = np.random.default_rng(4)
        r = grid.radii()
        gt = np.zeros((n_t, grid.n_r))
        for m in range(n_t):
            row = np.convolve(rng.normal(size=grid.n_r), np.ones(5) / 5, "same")
            row[r > m * h + 1.0 + 1e-12] = 0.0
            gt[m] = row
        acc = ConeAccumulator(grid, jr)
        twin = ConeAccumulator(grid, jr)
        worst = 0.0
        for n in range(n_t):
            if n >= 1:
                # a decoy sweep first: the history kept for slice n must not
                # carry anything of the source it was first called with
                acc.eval_slice(2.0 * gt[n])
                fast = acc.eval_slice(gt[n])
                assert fast.tobytes() == twin.eval_slice(gt[n]).tobytes()
                direct = duhamel_sum_ld(gt, grid, n)
                kmax = fast.size - 1
                for k in (0, 1, max(1, n // 2), min(kmax, n), kmax):
                    if (k + n) * h <= grid.r_max + 1e-12:
                        scale = max(1.0, abs(direct[k]))
                        worst = max(worst, abs(fast[k] - direct[k]) / scale)
            acc.push_slice(gt[n])
            twin.push_slice(gt[n])
        assert worst < 1e-10

    def test_accumulator_against_long_double_sum(self):
        # the recurrence's roundoff along a 100-time-unit march (800 steps)
        # of signed random sources; it grows with n (2.9e-14 at n = 800)
        h, jr = 1 / 8, 8
        n_t = 801
        grid = Grid(h=h, n_r=n_t + jr, n_t=n_t)
        rng = np.random.default_rng(5)
        r = grid.radii()
        gt = np.zeros((n_t, grid.n_r))
        for m in range(n_t):
            row = np.convolve(rng.normal(size=grid.n_r), np.ones(5) / 5, "same")
            row[r > m * h + 1.0 + 1e-12] = 0.0
            gt[m] = row
        acc = ConeAccumulator(grid, jr)
        for n in range(n_t):
            if n in (1, 2, 3, 100, 400, 800):
                got = acc.eval_slice(gt[n])
                want = duhamel_sum_ld(gt, grid, n)
                assert np.all(want[got.size :] == 0.0)
                assert np.max(np.abs(got - want[: got.size])) <= 1e-12 * np.max(np.abs(want))
            acc.push_slice(gt[n])

    def test_positivity(self):
        grid = Grid(h=1 / 8, n_r=49, n_t=25)
        rng = np.random.default_rng(5)
        gt = np.abs(rng.normal(size=(grid.n_t, grid.n_r)))
        for (k, n) in [(4, 8), (12, 16), (0, 24)]:
            assert duhamel_sum_ld(gt, grid, n)[k] >= 0.0

    def test_independent_nested_oracle(self):
        # smooth analytic source against scipy-grade nested quadrature
        h = 1 / 32
        grid = Grid(h=h, n_r=int(4.0 / h) + 1, n_t=int(2.0 / h) + 1)
        r = grid.radii()

        def g_func(lam, s):
            return np.exp(-lam) * (1.0 + s)

        gt = np.array([g_func(r, n * h) for n in range(grid.n_t)])
        got = duhamel_sum_ld(gt, grid, 64)[24]  # r = 0.75, t = 2
        want = slow_cone_integral(g_func, 0.75, 2.0)
        assert got == pytest.approx(want, rel=2e-4)


@dataclass(frozen=True)
class ConeRegion:
    """Backward characteristic region of (r, t) in cone coordinates
    alpha = s + lam, beta = s - lam, clipped to sources supported in
    lam <= s + R."""

    r: float
    t: float
    R: float

    @property
    def alpha_range(self) -> tuple[float, float]:
        return (abs(self.t - self.r), self.t + self.r)

    @property
    def beta_range(self) -> tuple[float, float]:
        return (-self.R, self.t - self.r)

    def contains_lambda_s(self, lam: float, s: float) -> bool:
        if not (0.0 <= s <= self.t):
            return False
        return abs(self.r - (self.t - s)) <= lam <= self.r + (self.t - s)

    def contains_alpha_beta(self, alpha: float, beta: float) -> bool:
        """Membership in the raw (unclipped) region of the change of
        variables; the two-case split mirrors t >= r vs t < r.  The second
        piece ends at beta = r - t (the published display's t - r would
        overcount the region and break the integral identity)."""
        r, t = self.r, self.t
        if t >= r:
            in_d1 = (r - t <= beta <= t - r) and (t - r <= alpha <= r + t)
            in_d2 = (-r - t <= beta <= r - t) and (-beta <= alpha <= r + t)
            return in_d1 or in_d2
        return (-t - r <= beta <= t - r) and (-beta <= alpha <= r + t)


class TestConeRegion:
    def test_change_of_variables_equivalence(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            r = float(rng.uniform(0.05, 4.0))
            t = float(rng.uniform(0.05, 4.0))
            cone = ConeRegion(r=r, t=t, R=1.0)
            lam = float(rng.uniform(0.0, 5.0))
            s = float(rng.uniform(0.0, 5.0))
            ab = cone.contains_alpha_beta(s + lam, s - lam)
            ls = cone.contains_lambda_s(lam, s)
            if s >= 0.0 and lam >= 0.0:
                assert ab == ls

    def test_clipped_box_inclusion(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            R = float(rng.uniform(1.0, 2.0))
            t = float(rng.uniform(0.0, 5.0))
            r = float(rng.uniform(0.0, t + R))
            cone = ConeRegion(r=r, t=t, R=R)
            a0, a1 = cone.alpha_range
            b0, b1 = cone.beta_range
            assert a0 == pytest.approx(abs(t - r))
            assert a1 == pytest.approx(t + r)
            assert b0 == -R and b1 == pytest.approx(t - r)
            # support-clipped points stay in the box
            for _ in range(20):
                lam = rng.uniform(0.0, t + r)
                s = rng.uniform(0.0, t)
                if cone.contains_lambda_s(lam, s) and lam <= s + R:
                    alpha, beta = s + lam, s - lam
                    assert a0 - 1e-12 <= alpha <= a1 + 1e-12
                    assert b0 - 1e-12 <= beta <= b1 + 1e-12
