import math

import numpy as np
import pytest

from conewave.blowup import mass_diagnostics
from conewave.grid import Grid, trapezoid_weighted
from conewave.norms import slice_x_norm
from conewave.solver import (
    NumericalAbort,
    Params,
    SolutionHistory,
    _axis_value,
    dalembert_batch,
    dissipation_monitor,
    liouville,
    make_data,
    scattering_check,
    solve_dalembert,
    solve_march,
)
from conewave.verify import c1_constant
from conewave.waveops import ConeAccumulator, FreeField

from oracles import free_table, picard_iterates, scale_symmetry_mismatch, stencil_tail_ld


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
        # (late blow-up), 30.0 at slice 17 (within a few slices); each row
        # keeps its sources from slice 10 on, as a table or as masses
        params, data = self._points([0.5, 8.0, 5.0, 30.0])
        batch = dalembert_batch(params, data, store_history=store, sources_from=10)
        for d, got in zip(data, batch):
            want = solve_dalembert(params, d, store_history=store, sources_from=10)
            assert got.n_used == want.n_used and got.params is params
            assert repr(got.crossings) == repr(want.crossings)
            for a, b in zip(got.rows(), want.rows()):
                assert repr(a) == repr(b)
            assert got.closure_sweeps is None and got.g_from == 10
            kept = ("u", "g") if store else ("source_mass", "square_mass")
            for name in ("u", "g", "source_mass", "square_mass"):
                a, b = getattr(got, name), getattr(want, name)
                if name in kept:
                    assert a.tobytes() == b.tobytes()
                else:
                    assert a is None and b is None
            # the sources of slices 10 .. n_used - 1, the stop slice included
            assert len(getattr(got, kept[1])) == got.n_used - 10
        assert [h.n_used for h in batch] == [97, 91, 97, 18]

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
        # a stencil run keeps its sources only from a given slice on:
        # without one it keeps no g, and scattering_check refuses it
        p = build(1.0, 1.0, 1 / 16, 8.0)
        hist = solve_dalembert(p, make_data("bump_v1_only", 1e-3, 1.0, p.grid))
        assert hist.g is None and hist.u.shape == (p.grid.n_t, p.grid.n_r)
        with pytest.raises(ValueError):
            scattering_check(hist, 4.0)

    @pytest.mark.parametrize("h,eps", [(1 / 16, 1e-3), (1 / 4, 0.5)])
    def test_positivity(self, h, eps):
        # v0 = 0, v1 >= 0: u stays >= 0 on every node, the axis included,
        # also where the data's trailing edge leaves the axis
        p = build(1.0, 1.0, h, 3.0)
        hist = solve_dalembert(p, make_data("bump_v1_only", eps, 1.0, p.grid))
        assert hist.min_value() >= 0.0

    def test_axis_value_keeps_the_sign_of_node_1(self):
        u1 = np.array([1.0, 1.0, -1.0, 0.0, 0.0, 2.0, -2.0])
        u2 = np.array([0.5, 5.0, -5.0, 1.0, 0.0, -1.0, 1.0])
        want = np.array([3.5 / 3.0, 0.0, 0.0, 0.0, 0.0, 3.0, -3.0])
        assert np.array_equal(_axis_value(u1, u2), want)
        assert _axis_value(np.float64(1.0), np.float64(0.5)) == 3.5 / 3.0

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
        hist = solve_dalembert(p, d, sources_from=p.grid.index_of_time(2.0))
        ts, vals, rem = scattering_check(hist, 2.0)
        assert np.all(vals == 0.0)
        _, dis = dissipation_monitor(liouville(hist), p.grid)
        assert np.all(dis == 0.0)

    @staticmethod
    def _hold_to_long_double_sum(hist, t_star):
        # every distance, down to the tiny late ones, holds its own digits;
        # the series ends two slices before the top, where it is 0 by
        # construction
        grid, M = hist.grid, hist.n_used - 1
        r, n_star = grid.radii(), grid.index_of_time(t_star)
        ts, vals, _ = scattering_check(hist, t_star)
        assert ts.tobytes() == (np.arange(n_star, M - 1) * grid.h).tobytes()
        for n, t, val in zip(range(n_star, M - 1), ts, vals):
            tail = stencil_tail_ld(hist.g, grid, n, M, hist.g_from)
            want = float(np.max((1.0 + t + r) * np.abs(tail)))
            assert abs(val - want) <= 1e-12 * want
        return vals

    def test_scattering_check_against_long_double_sum(self):
        # a global run: its backward domain of dependence passes the grid
        # edge from t_star on
        p = build(1.0, 1.0, 1 / 8, 12.0)
        grid = p.grid
        n_star = grid.index_of_time(4.0)
        hist = solve_dalembert(p, make_data("bump_v1_only", 0.8, 1.0, grid), sources_from=n_star)
        vals = self._hold_to_long_double_sum(hist, 4.0)
        assert vals[-1] < 1e-2 * vals[0]

    def test_scattering_check_source_to_grid_edge(self):
        # a source that fills the cone out to the grid edge at every slice,
        # and sits on the axis, where the odd reflection acts
        p = build(1.0, 1.0, 1 / 8, 8.0)
        grid = p.grid
        r = grid.radii()
        t = np.arange(grid.n_t) * grid.h
        g = np.where(r[None, :] <= t[:, None] + p.R + 1e-12, np.exp(-r), 0.0)
        zero = np.zeros(grid.n_t)
        hist = SolutionHistory(p, grid.n_t, zero, zero, zero, zero, g=g)
        self._hold_to_long_double_sum(hist, 1.0)

    def test_scattering_refuses_blowup(self):
        p = build(-0.4, 1.0, 1 / 16, 20.0)
        d = make_data("bump_v1_only", 5.4, 1.0, p.grid)
        hist = solve_dalembert(p, d, sources_from=0)
        assert hist.blew_up
        with pytest.raises(ValueError, match="blew up"):
            scattering_check(hist, 5.0)
        # a quiet run at gamma <= 0 is refused too
        quiet = solve_dalembert(p, make_data("bump_v1_only", 0.5, 1.0, p.grid), sources_from=0)
        assert not quiet.blew_up
        with pytest.raises(ValueError, match="gamma > 0"):
            scattering_check(quiet, 5.0)

    def test_scattering_refuses_march_history(self):
        # the march keeps no sources, so its history cannot be checked
        p = build(1.0, 1.0, 1 / 16, 4.0)
        march = solve_march(p, make_data("bump_v1_only", 0.5, 1.0, p.grid))
        assert march.g is None and march.u is not None
        with pytest.raises(ValueError, match="stored stencil run"):
            scattering_check(march, 2.0)

    def test_scattering_needs_two_slices_after_t_star(self):
        p = build(1.0, 1.0, 1 / 16, 4.0)
        hist = solve_dalembert(p, make_data("bump_v1_only", 0.5, 1.0, p.grid), sources_from=0)
        with pytest.raises(ValueError, match="two slices"):
            scattering_check(hist, 4.0 - 1 / 16)
        ts, vals, _ = scattering_check(hist, 4.0 - 2 / 16)
        assert len(ts) == len(vals) == 1 and vals[0] > 0.0


class TestLeanRecord:
    """Solve mode's lean record (stencil sources from t_star on, the
    reference march against the stencil's u table, v rows one at a time)
    against the same diagnostics computed from full tables."""

    @pytest.fixture(scope="class")
    def runs(self):
        p = build(1.0, 1.0, 1 / 16, 8.0)
        d = make_data("bump_v1_only", 0.8, 1.0, p.grid)
        n_star = p.grid.index_of_time(4.0)
        full = solve_dalembert(p, d, sources_from=0)
        lean = solve_dalembert(p, d, sources_from=n_star)
        return p, d, n_star, full, lean

    def test_sources_from_t_star(self, runs):
        p, _, n_star, full, lean = runs
        assert lean.g_from == n_star and len(lean.g) == lean.n_used - n_star
        assert lean.g.tobytes() == full.g[n_star:].tobytes()
        assert lean.u.tobytes() == full.u.tobytes()
        assert solve_dalembert(p, runs[1]).g is None

    def test_scattering_check_bitwise(self, runs):
        _, _, _, full, lean = runs
        for a, b in zip(scattering_check(full, 4.0), scattering_check(lean, 4.0)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        # the distances before the first kept source row are not there
        with pytest.raises(ValueError, match="first kept source"):
            scattering_check(lean, 3.0)

    def test_backend_sup_diff_bitwise(self, runs):
        p, d, _, full, _ = runs
        alt = solve_march(p, d)
        n = min(full.n_used, alt.n_used)
        want = max(float(np.max(np.abs(a - b))) for a, b in zip(full.u[:n], alt.u[:n]))
        ref = solve_march(p, d, u_ref=full.u)
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
                solve_dalembert(p, d, store_history=store, sources_from=bad)

    def test_mass_diagnostics_needs_the_series(self, runs):
        # a stored run keeps tables; a lean run from t_star on keeps the
        # series of the later slices only
        p, d, n_star, full, lean = runs
        late = solve_dalembert(p, d, store_history=False, sources_from=n_star)
        every = solve_dalembert(p, d, store_history=False, sources_from=0)
        assert late.g_from == n_star and late.u is None and late.g is None
        for name in ("source_mass", "square_mass"):
            want = getattr(every, name)[n_star:]
            assert getattr(late, name).tobytes() == want.tobytes()
        for hist in (full, lean, late, solve_march(p, d, store_history=False)):
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
