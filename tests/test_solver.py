import math

import numpy as np
import pytest

from conewave.blowup import mass_diagnostics
from conewave.grid import Grid, trapezoid_weighted
from conewave.norms import slice_x_norm
from conewave.solver import (
    NumericalAbort,
    Params,
    dalembert_batch,
    dissipation_monitor,
    liouville,
    make_data,
    scattering_check,
    solve_dalembert,
    solve_march,
)
from conewave.verify import c1_constant
from conewave.waveops import ConeAccumulator, FreeField, duhamel_tails

from oracles import duhamel_sum_ld, free_table, picard_iterates, scale_symmetry_mismatch


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


def build(gamma, R, h, t_max, thr=1e6):
    grid = Grid.for_domain(h, t_max + R, t_max)
    return Params(gamma=gamma, R=R, grid=grid, blowup_threshold=thr)


class TestParams:
    def test_validation(self):
        grid = Grid.for_domain(1 / 8, 2.0, 1.0)
        with pytest.raises(ValueError):
            Params(gamma=3.2, R=1.0, grid=grid)
        with pytest.raises(ValueError):
            Params(gamma=1.0, R=0.5, grid=grid)
        with pytest.raises(ValueError):
            Params(gamma=1.0, R=1.03, grid=grid)  # off-cell R
        for thr in (0.0, math.nan):  # a nan threshold could never stop a march
            with pytest.raises(ValueError):
                Params(gamma=1.0, R=1.0, grid=grid, blowup_threshold=thr)


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

    def test_negative_epsilon(self):
        grid = Grid.for_domain(1 / 8, 2.0, 1.0)
        with pytest.raises(ValueError, match="epsilon"):
            make_data("bump_v1_only", -1.0, 1.0, grid)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_non_finite_epsilon(self, epsilon):
        grid = Grid.for_domain(1 / 8, 2.0, 1.0)
        with pytest.raises(ValueError, match="epsilon must be finite"):
            make_data("bump_v1_only", epsilon, 1.0, grid)


class TestMarch:
    def test_zero_data(self):
        p = build(1.0, 1.0, 1 / 16, 3.0)
        d = make_data("bump_v1_only", 0.0, 1.0, p.grid)
        hist = solve_march(p, d)
        assert np.all(hist.u == 0.0)
        assert not hist.blew_up

    @pytest.mark.parametrize(
        "grid",
        [
            # r_max = t_max + R - h: the cone of the last slice leaves the grid
            Grid.for_domain(1 / 8, 3.0 + 1.0 - 1 / 8, 3.0),
            # r_max = t_max: the d'Alembert stencil, which builds no
            # accumulator, must refuse it too
            Grid(h=1 / 16, n_r=49, n_t=49),
        ],
        ids=["off_by_one", "r_max_eq_t_max"],
    )
    def test_refuses_grid_short_of_forward_cone(self, grid):
        # neither backend can be handed such a problem, and the
        # accumulator still refuses the grid for its direct callers
        with pytest.raises(ValueError, match="forward cone"):
            Params(gamma=1.0, R=1.0, grid=grid)
        with pytest.raises(ValueError, match="forward cone"):
            ConeAccumulator(grid, round(1.0 / grid.h))

    def test_positivity_and_propagation(self):
        p = build(1.0, 1.0, 1 / 16, 4.0)
        d = make_data("bump_v1_only", 1.0, 1.0, p.grid)
        hist = solve_march(p, d)
        r = p.grid.radii()
        for n in range(hist.n_used):
            assert np.all(hist.u[n][r > n * p.grid.h + p.R + 1e-12] == 0.0)
        assert hist.min_value() >= -1e-12

    def test_small_data_tracks_free_field(self):
        # cubic nonlinearity: relative correction is O(eps^2) for the norm
        p = build(1.0, 1.0, 1 / 16, 50.0)
        d = make_data("bump_v1_only", 1e-3, 1.0, p.grid)
        run = solve_march(p, d)
        free = FreeField(d[0], d[1], p.grid)
        r = p.grid.radii()
        xa = run.x_norm_running[-1]
        xb = max(
            slice_x_norm(p.weights(), r, n * p.grid.h, free.slice(n)) for n in range(p.grid.n_t)
        )
        assert abs(xa - xb) <= 0.1 * xb

    def test_numerical_abort(self):
        p = build(1.0, 1.0, 1 / 8, 2.0, thr=1e308)
        d = make_data("bump_v1_only", 1e150, 1.0, p.grid)
        for solve, backend in ((solve_march, "march"), (solve_dalembert, "dalembert")):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NumericalAbort) as exc:
                    solve(p, d)
            assert (exc.value.backend, exc.value.slice_index) == (backend, 2)

    def test_lean_mode_series_match(self):
        p = build(1.0, 1.0, 1 / 16, 3.0)
        d = make_data("bump_v1_only", 0.5, 1.0, p.grid)
        full = solve_march(p, d, store_history=True)
        lean = solve_march(p, d, store_history=False)
        assert lean.u is None
        assert np.array_equal(full.sup_u, lean.sup_u)


class TestMarchBatch:
    """Rows of a lockstep stencil batch (``dalembert_batch``) against
    one-row stencils of the same data, and the one-row march's closure
    record."""

    def _points(self, eps, **kw):
        params = build(-0.4, 1.0, 1 / 16, 6.0, **kw)
        return params, [make_data("bump_v1_only", e, 1.0, params.grid) for e in eps]

    @pytest.mark.parametrize("store", [False, True])
    def test_rows_equal_one_point_marches(self, store):
        # 0.5 and 5.0 march to the end; 8.0 leaves the batch at slice 90
        # (late blow-up), 30.0 at slice 17 (within a few slices)
        params, data = self._points([0.5, 8.0, 5.0, 30.0])
        batch = dalembert_batch(params, data, store_history=store)
        for d, got in zip(data, batch):
            want = solve_dalembert(params, d)
            assert got.n_used == want.n_used and got.params is params
            assert repr(got.crossings) == repr(want.crossings)
            for a, b in zip(got.rows(), want.rows()):
                assert repr(a) == repr(b)
            assert got.closure_sweeps is None and got.g is None
            if store:
                assert got.u.tobytes() == want.u.tobytes()
            else:
                assert got.u is None and got.source_mass is None
        assert [h.n_used for h in batch] == [97, 91, 97, 18]

    def test_rows_keep_their_reference_distance(self):
        # a shared reference table: each row's distance to it is its
        # one-row distance
        params, data = self._points([0.5, 8.0])
        ref = solve_march(params, data[0]).u
        for d, got in zip(data, dalembert_batch(params, data, u_ref=ref)):
            want = solve_dalembert(params, d, u_ref=ref)
            assert got.u is None and got.ref_diff.tobytes() == want.ref_diff.tobytes()

    def test_blowup_facts_read_off_sup_series(self):
        # each fact follows from the sup series and the stop threshold
        params, data = self._points([0.5, 8.0, 5.0])
        h, stop = params.grid.h, params.blowup_threshold
        batch = dalembert_batch(params, data, store_history=False)
        for hist in batch:
            assert np.array_equal(hist.t, np.arange(hist.n_used) * h)
            for c, t in hist.crossings.items():
                assert t == int(np.flatnonzero(hist.sup_u > c)[0]) * h
            assert hist.blew_up == bool(hist.sup_u[-1] > stop)
        low, high, mid = batch
        assert not low.blew_up and not mid.blew_up and high.blew_up
        for quiet in (low, mid):
            assert quiet.crossings == {} and quiet.t_numeric is None
            assert math.isnan(quiet.threshold_gap)
        assert set(high.crossings) == {stop / 100.0, stop}
        assert high.t_numeric == high.crossings[stop] == (high.n_used - 1) * h
        assert high.threshold_gap == high.t_numeric - high.crossings[stop / 100.0] >= 0.0

    def test_closure_record(self):
        # slice 0 needs no closure; every later slice records 1 to
        # _MAX_SLICE_SWEEPS sweeps and the step it stopped at
        params, data = self._points([5.0])
        hist = solve_march(params, data[0])
        assert hist.closure_sweeps[0] == 0 and hist.closure_step[0] == 0.0
        assert np.all((hist.closure_sweeps[1:] >= 1) & (hist.closure_sweeps[1:] <= 4))
        assert np.all(hist.closure_step >= 0.0)
        assert solve_dalembert(params, data[0]).closure_sweeps is None

    def test_abort_is_held_for_its_row(self):
        # the rows on either side of the aborted one march on as alone
        params, data = self._points([5.0, 1e150, 0.5], thr=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            ok, bad, late = dalembert_batch(params, data, store_history=False)
            with pytest.raises(NumericalAbort) as solo:
                solve_dalembert(params, data[1])
        assert isinstance(bad, NumericalAbort) and (bad.backend, bad.slice_index) == ("dalembert", 2)
        assert solo.value.slice_index == bad.slice_index
        assert ok.n_used == late.n_used == params.grid.n_t
        for got, d in ((ok, data[0]), (late, data[2])):
            assert got.sup_u.tobytes() == solve_dalembert(params, d).sup_u.tobytes()


class TestDalembert:
    def test_free_case_second_order(self):
        # at eps = 1e-6 the cubic term is ~1e-12 of the field: the error
        # against the exact free field is the stencil's own
        diffs = []
        for h in (1 / 16, 1 / 32):
            p = build(1.0, 1.0, h, 3.0)
            d = make_data("bump_both", 1e-6, 1.0, p.grid)
            hist = solve_dalembert(p, d)
            tab = free_table(FreeField(d[0], d[1], p.grid), p.grid.n_t)
            diffs.append(np.max(np.abs(hist.u - tab)))
        assert diffs[0] / diffs[1] > 3.0  # ~4 for second order

    def test_backend_cross_check(self):
        p = build(1.0, 1.0, 1 / 32, 3.0)
        d = make_data("bump_v1_only", 0.5, 1.0, p.grid)
        hm = solve_march(p, d)
        hd = solve_dalembert(p, d)
        sup = np.max(np.abs(hm.u - hd.u))
        assert sup < 5e-4

    def test_record_keeps_u_only(self):
        # the source table's readers take march runs: a d'Alembert history
        # keeps no g, and scattering_check refuses it
        p = build(1.0, 1.0, 1 / 16, 8.0)
        hist = solve_dalembert(p, make_data("bump_v1_only", 1e-3, 1.0, p.grid))
        assert hist.g is None and hist.u.shape == (p.grid.n_t, p.grid.n_r)
        with pytest.raises(ValueError):
            scattering_check(hist, 4.0)

    def test_rows_vanish_past_window(self):
        # u of slice n is computed on its window, nodes 0..n + jr, and is
        # exactly zero past it
        p = build(1.0, 1.0, 1 / 16, 3.0)
        grid, jr = p.grid, p.support_cells
        hist = solve_dalembert(p, make_data("bump_both", 0.5, 1.0, grid))
        for n, row in enumerate(hist.u):
            k = grid.window(n, jr)
            assert np.any(row[:k]) and not np.any(row[k:])

    def test_window_capped_at_grid_edge(self):
        grid = Grid(h=1 / 16, n_r=49, n_t=40)
        assert [grid.window(n, 16) for n in (0, 31, 32, 39)] == [17, 48, 49, 49]


class TestPicard:
    def setup_method(self):
        self.p = build(1.0, 1.0, 1 / 64, 1.0)
        self.d = make_data("bump_v1_only", 1e-3, 1.0, self.p.grid)
        self.c1 = c1_constant(1.0)

    def test_zero_data_one_step(self):
        p0 = build(1.0, 1.0, 1 / 64, 1.0)
        d0 = make_data("bump_v1_only", 0.0, 1.0, p0.grid)
        _, _, u, norms, converged = picard_iterates(p0, d0, self.c1)
        assert converged and norms == [0.0]
        assert not u.any()

    def test_contraction_and_fixed_point(self):
        T, _, u, norms, converged = picard_iterates(self.p, self.d, self.c1)
        assert converged
        ratios = [b / a for a, b in zip(norms, norms[1:])]
        assert all(rho <= 0.5 + 0.05 for rho in ratios)
        hist = solve_march(self.p, self.d)
        nT = self.p.grid.index_of_time(T)
        assert np.max(np.abs(u - hist.u[: nT + 1])) < 1e-6


class TestPostprocessing:
    def test_liouville(self):
        p = build(1.0, 1.0, 1 / 16, 2.0)
        d = make_data("bump_v1_only", 0.5, 1.0, p.grid)
        hist = solve_march(p, d)
        v = np.stack(list(liouville(hist)))
        t = np.arange(hist.n_used) * p.grid.h
        assert np.array_equal(v, hist.u / (1.0 + t)[:, None])
        # multiplying back restores u to within one ulp
        back = v * (1.0 + t)[:, None]
        assert np.allclose(back, hist.u, rtol=1e-15, atol=0.0)
        n = hist.n_used // 2
        if hist.u[n].any():
            k = int(np.argmax(np.abs(hist.u[n])))
            assert v[n][k] == pytest.approx(hist.u[n][k] / (1.0 + t[n]), rel=1e-15)

    def test_zero_run_diagnostics(self):
        p = build(1.0, 1.0, 1 / 16, 4.0)
        d = make_data("bump_v1_only", 0.0, 1.0, p.grid)
        hist = solve_march(p, d)
        ts, vals, rem = scattering_check(hist, 2.0)
        assert np.all(vals == 0.0)
        _, dis = dissipation_monitor(liouville(hist), p.grid)
        assert np.all(dis == 0.0)

    def test_scattering_tail_against_nested_quadrature(self):
        # independent slow evaluation of the backward cone integral
        p = build(1.0, 1.0, 1 / 16, 8.0)
        d = make_data("bump_v1_only", 0.8, 1.0, p.grid)
        hist = solve_march(p, d)
        grid = hist.grid
        fields = dict(duhamel_tails(hist.g, grid, p.support_cells, grid.index_of_time(4.0)))
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
        p = build(1.0, 1.0, 1 / 16, 8.0)
        grid = p.grid
        h = grid.h
        r = grid.radii()
        t = np.arange(grid.n_t) * h
        g = np.where(r[None, :] <= t[:, None] + p.R + 1e-12, np.exp(-r), 0.0)
        fields = dict(duhamel_tails(g, grid, p.support_cells, grid.index_of_time(4.0)))
        t0 = 5.0
        n0 = grid.index_of_time(t0)
        for k in (2, 8, 24, 64):
            slow = _slow_tail(g, grid, grid.n_t - 1, k * h, t0)
            assert fields[n0][k] == pytest.approx(slow, rel=2e-3)

    def test_scattering_tails_against_long_double_sum(self):
        # the late tails of a global run are tiny (1.3e-21 on the top slice
        # against 3.0e-17 at t_star); each must hold its own digits
        p = build(1.0, 1.0, 1 / 16, 40.0)
        grid = p.grid
        hist = solve_march(p, make_data("bump_v1_only", 1e-3, 1.0, grid))
        M, n_stop = hist.n_used - 1, grid.index_of_time(20.0)
        fields = dict(duhamel_tails(hist.g, grid, p.support_cells, n_stop, hist.g_from))
        for n in (M - 1, M - 2, M - 3, M - 10, (M + n_stop) // 2, n_stop):
            want = duhamel_sum_ld(hist.g, grid, n, top=M)
            assert np.max(np.abs(fields[n] - want)) <= 1e-10 * np.max(np.abs(want))

    def test_scattering_refuses_blowup(self):
        p = build(-0.4, 1.0, 1 / 16, 20.0)
        d = make_data("bump_v1_only", 5.4, 1.0, p.grid)
        hist = solve_march(p, d)
        assert hist.blew_up
        with pytest.raises(ValueError):
            scattering_check(hist, 5.0)


class TestLeanRecord:
    """Solve mode's lean record (sources from t_star on, a d'Alembert run
    against the march's u table, v rows one at a time) against the same
    diagnostics computed from full tables."""

    @pytest.fixture(scope="class")
    def runs(self):
        p = build(1.0, 1.0, 1 / 16, 8.0)
        d = make_data("bump_v1_only", 0.8, 1.0, p.grid)
        n_star = p.grid.index_of_time(4.0)
        full = solve_march(p, d)
        lean = solve_march(p, d, sources_from=n_star)
        return p, d, n_star, full, lean

    def test_sources_from_t_star(self, runs):
        p, _, n_star, full, lean = runs
        assert lean.g_from == n_star and len(lean.g) == lean.n_used - n_star
        assert lean.g.tobytes() == full.g[n_star:].tobytes()
        assert lean.u.tobytes() == full.u.tobytes()
        assert solve_march(p, runs[1], sources_from=None).g is None

    def test_scattering_check_bitwise(self, runs):
        _, _, _, full, lean = runs
        for a, b in zip(scattering_check(full, 4.0), scattering_check(lean, 4.0)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        # the tails before the first stored source row are not there
        with pytest.raises(ValueError):
            scattering_check(lean, 3.0)

    def test_backend_sup_diff_bitwise(self, runs):
        p, d, _, full, _ = runs
        alt = solve_dalembert(p, d)
        n = min(full.n_used, alt.n_used)
        want = max(float(np.max(np.abs(a - b))) for a, b in zip(full.u[:n], alt.u[:n]))
        ref = solve_dalembert(p, d, u_ref=full.u)
        assert ref.u is None and ref.g is None and len(ref.ref_diff) == n
        assert float(ref.ref_diff.max()) == want
        for a, b in zip(ref.rows(), alt.rows()):
            assert repr(a) == repr(b)

    def test_dissipation_monitor_bitwise(self, runs):
        p, _, _, _, lean = runs
        grid = p.grid
        r = grid.radii()
        t = np.arange(lean.n_used) * grid.h
        v = lean.u / (1.0 + t)[:, None]
        want = [(1.0 + t[n]) * float(np.max((1.0 + t[n] + r) * np.abs(v[n])))
                for n in range(len(v))]
        td, dis = dissipation_monitor(liouville(lean), grid)
        assert td.tobytes() == t.tobytes()
        assert dis.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("store", [True, False])
    def test_sources_from_is_a_slice(self, runs, store):
        p, d = runs[:2]
        for bad in (-1, p.grid.n_t):
            with pytest.raises(ValueError, match="sources_from"):
                solve_march(p, d, store_history=store, sources_from=bad)

    def test_mass_diagnostics_needs_the_series(self, runs):
        # a stored run keeps tables; a lean run from t_star on keeps the
        # series of the later slices only
        p, d, n_star, full, lean = runs
        late = solve_march(p, d, store_history=False, sources_from=n_star)
        every = solve_march(p, d, store_history=False)
        assert late.g_from == n_star and late.u is None and late.g is None
        for name in ("source_mass", "square_mass"):
            want = getattr(every, name)[n_star:]
            assert getattr(late, name).tobytes() == want.tobytes()
        for hist in (full, lean, late):
            with pytest.raises(ValueError, match="source_mass and square_mass"):
                mass_diagnostics(hist, d[1], 0.8)


class TestScaleSymmetry:
    def test_zero_data(self):
        p = build(1.0, 1.0, 1 / 16, 10.0)
        d = make_data("bump_v1_only", 0.0, 1.0, p.grid)
        assert scale_symmetry_mismatch(p, d, 2.0, t_check=3.0) == 0.0

    def test_refinement_order(self):
        vals = []
        for h in (1 / 8, 1 / 16):
            p = build(1.0, 1.0, h, 10.0)
            d = make_data("bump_v1_only", 0.5, 1.0, p.grid)
            vals.append(scale_symmetry_mismatch(p, d, 2.0, t_check=3.0))
        assert vals[0] / vals[1] > 2.5  # ~4 at second order
