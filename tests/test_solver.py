import math

import numpy as np
import pytest

from conewave.grid import Grid, trapezoid_weighted
from conewave.solver import (
    BlowupReport,
    NumericalAbort,
    Params,
    SolutionHistory,
    dissipation_monitor,
    liouville,
    make_data,
    picard_local,
    picard_window,
    scale_symmetry_check,
    scattering_check,
    solve_dalembert,
    solve_march,
)
from conewave.verify import c1_constant
from conewave.waveops import FreeField


def _slow_tail(g, grid, M, r0, t0):
    """Backward cone integral of the source table g (rows 0..M, piecewise
    linear in lam and s) from t0 to t_M at radius r0, by nested Gauss
    panels: an evaluation independent of the accumulator."""
    h = grid.h
    r_nodes = grid.radii()
    xs, wxs = np.polynomial.legendre.leggauss(16)

    def g_interp(lam, s):
        m = min(int(s / h), M - 1)
        w = s / h - m
        row = (1 - w) * g[m] + w * g[m + 1]
        return np.interp(lam, r_nodes, row) if lam <= grid.r_max else 0.0

    total = 0.0
    edges = np.linspace(t0, M * h, 81)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for s, ws in zip(mid + half * xs, wxs * half):
            lo, hi = abs(r0 - (s - t0)), r0 + (s - t0)
            if hi <= lo:
                continue
            lmid, lhalf = 0.5 * (hi + lo), 0.5 * (hi - lo)
            lam = lmid + lhalf * xs
            inner = sum(wl * lv * g_interp(lv, s) for lv, wl in zip(lam, wxs * lhalf))
            total += ws * inner / (2.0 * r0) / (1.0 + s) ** 2
    return total


def build(gamma, R, eps, h, t_max, thr=1e6):
    grid = Grid.for_domain(h, t_max + R, t_max)
    return Params(gamma=gamma, R=R, epsilon=eps, grid=grid, blowup_threshold=thr)


class TestParams:
    def test_validation(self):
        grid = Grid.for_domain(1 / 8, 2.0, 1.0)
        with pytest.raises(ValueError):
            Params(gamma=3.2, R=1.0, epsilon=1.0, grid=grid)
        with pytest.raises(ValueError):
            Params(gamma=1.0, R=0.5, epsilon=1.0, grid=grid)
        with pytest.raises(ValueError):
            Params(gamma=1.0, R=1.0, epsilon=-1.0, grid=grid)
        with pytest.raises(ValueError):
            Params(gamma=1.0, R=1.03, epsilon=1.0, grid=grid)  # off-cell R
        for thr in (0.0, math.nan):  # a nan threshold could never stop a march
            with pytest.raises(ValueError):
                Params(gamma=1.0, R=1.0, epsilon=1.0, grid=grid, blowup_threshold=thr)


class TestMakeData:
    def test_peak_and_edge(self):
        grid = Grid.for_domain(1 / 64, 2.0, 1.0)
        v0, v1 = make_data("bump_v1_only", 1.0, 1.0, grid)
        assert np.all(v0.samples == 0.0)
        assert v1.samples[0] == pytest.approx(1.0)
        r = grid.radii()
        k = np.searchsorted(r, 1.0)
        assert v1.samples[k] == 0.0
        # two vanishing derivatives at the support edge: v' ~ h^2 and
        # v'' ~ h one cell inside for the cubic bump
        d1 = (v1.samples[k] - v1.samples[k - 1]) / grid.h
        d2 = (v1.samples[k] - 2 * v1.samples[k - 1] + v1.samples[k - 2]) / grid.h**2
        assert abs(d1) < 10 * grid.h**2
        assert abs(d2) < 60 * grid.h

    def test_mass_oracle(self):
        # 4 pi int r^2 (1-r^2)^3 dr = 64 pi/315 (exact polynomial integral)
        grid = Grid.for_domain(1 / 256, 2.0, 1.0)
        _, v1 = make_data("bump_v1_only", 2.0, 1.0, grid)
        got = 4 * math.pi * trapezoid_weighted(v1, 2.0, 0.0, grid.r_max)
        assert got == pytest.approx(2.0 * 64.0 * math.pi / 315.0, rel=1e-4)

    def test_unknown_family(self):
        grid = Grid.for_domain(1 / 8, 2.0, 1.0)
        with pytest.raises(ValueError):
            make_data("gauss", 1.0, 1.0, grid)


class TestMarch:
    def test_zero_data(self):
        p = build(1.0, 1.0, 0.0, 1 / 16, 3.0)
        d = make_data("bump_v1_only", 0.0, 1.0, p.grid)
        hist = solve_march(p, d)
        assert np.all(hist.u == 0.0)
        assert not hist.blowup.blew_up

    def test_nonlinearity_off_is_free_field(self):
        p = build(1.0, 1.0, 1.0, 1 / 32, 3.0)
        d = make_data("bump_both", 1.0, 1.0, p.grid)
        hist = solve_march(p, d, nonlinear=False)
        tab = FreeField(d[0], d[1], p.grid).table(p.grid.n_t)
        assert np.array_equal(hist.u, tab)

    def test_positivity_and_propagation(self):
        p = build(1.0, 1.0, 1.0, 1 / 16, 4.0)
        d = make_data("bump_v1_only", 1.0, 1.0, p.grid)
        hist = solve_march(p, d)
        assert hist.finite_propagation_violations() == 0
        assert hist.min_value() >= -1e-12

    def test_small_data_tracks_free_field(self):
        # cubic nonlinearity: relative correction is O(eps^2) for the norm
        p = build(1.0, 1.0, 1e-3, 1 / 16, 50.0)
        d = make_data("bump_v1_only", 1e-3, 1.0, p.grid)
        run = solve_march(p, d)
        free = solve_march(p, d, nonlinear=False)
        xa = run.series.x_norm_running[-1]
        xb = free.series.x_norm_running[-1]
        assert abs(xa - xb) <= 0.1 * xb

    def test_numerical_abort(self):
        p = build(1.0, 1.0, 1e150, 1 / 8, 2.0, thr=1e308)
        d = make_data("bump_v1_only", 1e150, 1.0, p.grid)
        for solve, backend in ((solve_march, "march"), (solve_dalembert, "dalembert")):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NumericalAbort) as exc:
                    solve(p, d)
            assert (exc.value.backend, exc.value.slice_index) == (backend, 2)

    def test_lean_mode_series_match(self):
        p = build(1.0, 1.0, 0.5, 1 / 16, 3.0)
        d = make_data("bump_v1_only", 0.5, 1.0, p.grid)
        full = solve_march(p, d, store_history=True)
        lean = solve_march(p, d, store_history=False)
        assert lean.u is None
        assert np.array_equal(full.series.sup_u, lean.series.sup_u)


class TestDalembert:
    def test_free_case_second_order(self):
        diffs = []
        for h in (1 / 16, 1 / 32):
            p = build(1.0, 1.0, 1.0, h, 3.0)
            d = make_data("bump_both", 1.0, 1.0, p.grid)
            hist = solve_dalembert(p, d, nonlinear=False)
            tab = FreeField(d[0], d[1], p.grid).table(p.grid.n_t)
            diffs.append(np.max(np.abs(hist.u - tab)))
        assert diffs[0] / diffs[1] > 3.0  # ~4 for second order

    def test_backend_cross_check(self):
        p = build(1.0, 1.0, 0.5, 1 / 32, 3.0)
        d = make_data("bump_v1_only", 0.5, 1.0, p.grid)
        hm = solve_march(p, d)
        hd = solve_dalembert(p, d)
        sup = np.max(np.abs(hm.u - hd.u))
        assert sup < 5e-4


class TestPicard:
    def setup_method(self):
        self.p = build(1.0, 1.0, 1e-3, 1 / 64, 1.0)
        self.d = make_data("bump_v1_only", 1e-3, 1.0, self.p.grid)
        self.c1 = c1_constant(1.0)

    def test_zero_data_one_step(self):
        d0 = make_data("bump_v1_only", 0.0, 1.0, self.p.grid)
        p0 = build(1.0, 1.0, 0.0, 1 / 64, 1.0)
        res = picard_local(p0, d0, 0.5, 1e-6, self.c1)
        assert res.converged and res.iterations == 1

    def test_contraction_and_fixed_point(self):
        T, M = picard_window(self.p, self.d, self.c1)
        res = picard_local(self.p, self.d, T, M, self.c1)
        assert res.converged
        assert all(rho <= 0.5 + 0.05 for rho in res.ratios)
        hist = solve_march(self.p, self.d)
        nT = self.p.grid.index_of_time(T)
        assert np.max(np.abs(res.u[: nT + 1] - hist.u[: nT + 1])) < 1e-6

    def test_smallness_preconditions(self):
        with pytest.raises(ValueError):
            picard_local(self.p, self.d, 1.5, 1.0, self.c1)  # T >= R
        with pytest.raises(ValueError):
            # M far too small for the free field
            picard_local(self.p, self.d, 0.5, 1e-9, self.c1)


class TestPostprocessing:
    def test_liouville(self):
        p = build(1.0, 1.0, 0.5, 1 / 16, 2.0)
        d = make_data("bump_v1_only", 0.5, 1.0, p.grid)
        hist = solve_march(p, d)
        v = liouville(hist)
        t = np.arange(hist.n_used) * p.grid.h
        assert np.array_equal(v.u, hist.u / (1.0 + t)[:, None])
        # multiplying back restores u to within one ulp
        back = v.u * (1.0 + t)[:, None]
        assert np.allclose(back, hist.u, rtol=1e-15, atol=0.0)
        n = hist.n_used // 2
        if hist.u[n].any():
            k = int(np.argmax(np.abs(hist.u[n])))
            assert v.u[n][k] == pytest.approx(hist.u[n][k] / (1.0 + t[n]), rel=1e-15)

    def test_zero_run_diagnostics(self):
        p = build(1.0, 1.0, 0.0, 1 / 16, 4.0)
        d = make_data("bump_v1_only", 0.0, 1.0, p.grid)
        hist = solve_march(p, d)
        ts, vals, rem = scattering_check(hist, 2.0)
        assert np.all(vals == 0.0)
        _, dis = dissipation_monitor(liouville(hist))
        assert np.all(dis == 0.0)

    def test_free_run_scatters_exactly(self):
        p = build(1.0, 1.0, 0.5, 1 / 16, 4.0)
        d = make_data("bump_v1_only", 0.5, 1.0, p.grid)
        hist = solve_march(p, d, nonlinear=False)
        ts, vals, rem = scattering_check(hist, 2.0)
        assert np.all(vals == 0.0)

    def test_scattering_tail_against_nested_quadrature(self):
        # independent slow evaluation of the backward cone integral
        p = build(1.0, 1.0, 0.8, 1 / 16, 8.0)
        d = make_data("bump_v1_only", 0.8, 1.0, p.grid)
        hist = solve_march(p, d)
        ts, vals, _, fields = scattering_check(hist, 4.0, keep_fields=True)
        grid = hist.grid
        h = grid.h
        t0 = 5.0
        n0 = grid.index_of_time(t0)
        scale = float(np.max(np.abs(fields[n0])))
        for k in (8, 24, 64, 100):
            slow = _slow_tail(hist.g, grid, hist.n_used - 1, k * h, t0)
            assert fields[n0][k] == pytest.approx(slow, rel=2e-2, abs=2e-2 * scale)

    def test_scattering_tail_inner_cone_limit(self):
        # a source held near the axis puts mass below the inner cone limit
        # |r - (s - t)|, where the outgoing shell of a real run has almost none
        p = build(1.0, 1.0, 0.0, 1 / 16, 8.0)
        grid = p.grid
        h = grid.h
        r = grid.radii()
        g = np.where(r[None, :] <= grid.times()[:, None] + p.R + 1e-12, np.exp(-r), 0.0)
        blowup = BlowupReport(blew_up=False, t_numeric=None, threshold=p.blowup_threshold)
        hist = SolutionHistory(p, grid, grid.n_t, series=None, blowup=blowup, g=g)
        _, _, _, fields = scattering_check(hist, 4.0, keep_fields=True)
        t0 = 5.0
        n0 = grid.index_of_time(t0)
        for k in (2, 8, 24, 64):
            slow = _slow_tail(g, grid, grid.n_t - 1, k * h, t0)
            assert fields[n0][k] == pytest.approx(slow, rel=2e-3)

    def test_scattering_refuses_blowup(self):
        p = build(-0.4, 1.0, 5.4, 1 / 16, 20.0)
        d = make_data("bump_v1_only", 5.4, 1.0, p.grid)
        hist = solve_march(p, d)
        assert hist.blowup.blew_up
        with pytest.raises(ValueError):
            scattering_check(hist, 5.0)


class TestScaleSymmetry:
    def test_identity_scale(self):
        p = build(1.0, 1.0, 1e-3, 1 / 16, 10.0)
        d = make_data("bump_v1_only", 1e-3, 1.0, p.grid)
        assert scale_symmetry_check(p, d, 1.0, t_check=3.0) == 0.0

    def test_zero_data(self):
        p = build(1.0, 1.0, 0.0, 1 / 16, 10.0)
        d = make_data("bump_v1_only", 0.0, 1.0, p.grid)
        assert scale_symmetry_check(p, d, 2.0, t_check=3.0) == 0.0

    def test_refinement_order(self):
        vals = []
        for h in (1 / 8, 1 / 16):
            p = build(1.0, 1.0, 0.5, h, 10.0)
            d = make_data("bump_v1_only", 0.5, 1.0, p.grid)
            vals.append(scale_symmetry_check(p, d, 2.0, t_check=3.0))
        assert vals[0] / vals[1] > 2.5  # ~4 at second order

    def test_sigma_domain(self):
        p = build(1.0, 1.0, 0.1, 1 / 8, 6.0)
        d = make_data("bump_v1_only", 0.1, 1.0, p.grid)
        with pytest.raises(ValueError):
            scale_symmetry_check(p, d, 2.5)
