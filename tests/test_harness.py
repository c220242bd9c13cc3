import math

import numpy as np
import pytest

from conewave import harness
from conewave.harness import fit_slope, lifespan_measure, sweep
from conewave.solver import NumericalAbort, solve_dalembert


class TestFitSlope:
    def test_exact_power_law(self):
        eps = [1.0, 1.3, 1.7, 2.2, 2.9]
        pairs = [(e, e**-5.0) for e in eps]
        fit = fit_slope(pairs, gamma=-0.4)
        assert fit.slope == pytest.approx(-5.0, abs=1e-12)
        assert fit.slope_stderr == pytest.approx(0.0, abs=1e-12)
        assert fit.passed

    def test_noisy_regression(self):
        rng = np.random.default_rng(0)
        eps = np.geomspace(1.0, 3.0, 12)
        pairs = [(e, 3.0 * e**-5.0 * (1.0 + 0.01 * rng.normal())) for e in eps]
        fit = fit_slope(pairs, gamma=-0.4)
        assert abs(fit.slope + 5.0) < 0.1
        assert fit.slope_stderr < 0.1

    def test_insufficient_data(self):
        # below MIN_FIT_POINTS uncensored pairs the fit is not made
        fit = fit_slope([(1.0, 10.0), (2.0, 0.3), (3.0, 0.04)], gamma=-0.4)
        assert math.isnan(fit.slope) and math.isnan(fit.slope_stderr)
        assert not fit.passed
        assert fit.epsilons == [1.0, 2.0, 3.0]

    def test_censored_excluded(self):
        pairs = [(1.0, None)] + [(e, e**-5.0) for e in (1.5, 2.0, 2.5, 3.0)]
        fit = fit_slope(pairs, gamma=-0.4)
        assert len(fit.epsilons) == 4

    def test_pass_flag_threshold(self):
        eps = [1.0, 1.4, 2.0, 2.8]
        fit = fit_slope([(e, e**-3.0) for e in eps], gamma=-0.4)  # slope -3 vs -5
        assert not fit.passed


class TestLifespanMeasure:
    def test_requires_blowup_regime(self):
        with pytest.raises(ValueError):
            lifespan_measure(0.5, 1.0, 1.0, 1 / 8, 5.0)

    def test_censored_run(self):
        pt = lifespan_measure(-0.4, 1.0, 0.05, 1 / 8, 3.0, refine=0)
        assert pt.censored and pt.t_numeric is None

    def test_quick_blowup_point(self):
        pt = lifespan_measure(-0.4, 1.0, 8.0, 1 / 16, 6.0, refine=1)
        assert not pt.censored
        assert pt.t_numeric is not None and 0.0 < pt.t_numeric < 6.0
        assert pt.threshold_gap <= 2.0 * (1 / 32) + 1e-12
        assert len(pt.levels) == 2


def _serial_stencil_points(eps, h, t_max, refine=1, blowup_threshold=1e6):
    """The sweep's points measured one point at a time, level by level, on
    ``solve_dalembert``: a point-by-point stencil sweep."""
    points = []
    for e in eps:
        levels = []
        for lev in range(refine + 1):
            hh = h / 2**lev
            params, (data,) = harness._level_runs(
                -0.4, 1.0, [e], hh, t_max, "bump_v1_only", blowup_threshold
            )
            hist = solve_dalembert(params, data)
            levels.append((hh, hist.t_numeric))
        points.append(harness._point(e, levels, hist))
    return points


class TestLockstepSweep:
    """A sweep marches each level's points in lockstep on the stencil; every
    point must be what the same stencil measures one point at a time."""

    def test_points_equal_one_point_runs(self):
        # censored (0.05, 6.0), blow-up at t = 5.625 (8.0) and within a few
        # slices (30.0): rows leave the batch at different slices
        eps = [0.05, 6.0, 8.0, 30.0]
        fit = sweep(-0.4, 1.0, eps, 1 / 8, 8.0, refine=1)
        solo = _serial_stencil_points(eps, 1 / 8, 8.0)
        assert [p.censored for p in fit.points] == [True, True, False, False]
        # repr prints every float exactly, nan and the sign of zero included
        assert [repr(p) for p in fit.points] == [repr(p) for p in solo]
        assert math.isnan(fit.slope)

    def test_histories_keep_series_only(self, monkeypatch):
        # a sweep's stencils and the one-point march keep no table and no
        # mass chain
        marched = []

        def spy(march):
            def wrapped(*args, **kw):
                out = march(*args, **kw)
                marched.extend(out if isinstance(out, list) else [out])
                return out
            return wrapped

        monkeypatch.setattr(harness, "dalembert_batch", spy(harness.dalembert_batch))
        monkeypatch.setattr(harness, "solve_march", spy(harness.solve_march))
        sweep(-0.4, 1.0, [6.0, 8.0], 1 / 8, 8.0, refine=0)
        lifespan_measure(-0.4, 1.0, 8.0, 1 / 8, 8.0, refine=0)
        assert len(marched) == 3
        for hist in marched:
            assert hist.u is None and hist.g is None
            assert hist.source_mass is None and hist.square_mass is None

    def test_abort_order_matches_serial_sweep(self):
        # with no stop threshold the stencil runs into overflow: 8.0 aborts
        # at slice 49, before 6.0 (slice 93), but a point-by-point sweep
        # meets 6.0's abort first, and so must the lockstep sweep
        kw = dict(h=1 / 8, t_max=12.0, blowup_threshold=math.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalAbort) as serial:
                _serial_stencil_points([6.0, 8.0], **kw)
            with pytest.raises(NumericalAbort) as batched:
                sweep(-0.4, 1.0, [6.0, 8.0], refine=1, **kw)
        got = (batched.value.slice_index, batched.value.backend)
        assert got == (serial.value.slice_index, serial.value.backend) == (93, "dalembert")

    def test_march_reference_agrees(self):
        # the march, an independent discretization, as the sweep's
        # reference: at h = 1/8 -> 1/16 the two Richardson lifespans of
        # these points differ by 1/24, 1/12, 1/12 and 0, within a bound of
        # two fine cells
        eps = [4.7, 5.4, 6.0, 7.0]
        fit = sweep(-0.4, 1.0, eps, 1 / 8, 30.0, refine=1)
        for p in fit.points:
            ref = lifespan_measure(-0.4, 1.0, p.epsilon, 1 / 8, 30.0, refine=1)
            assert not p.censored and not ref.censored
            assert abs(p.t_numeric - ref.t_numeric) <= 2.0 / 16


class TestSweepFixture:
    def test_slope_and_stderr(self, lifespan_sweep):
        fit = lifespan_sweep
        assert fit.passed
        assert abs(fit.slope - fit.theoretical) <= 0.25 * abs(fit.theoretical)
        assert fit.slope_stderr < 0.5

    def test_monotonicity(self, lifespan_sweep):
        assert lifespan_sweep.monotone_in_epsilon

    def test_refinement_stability(self, lifespan_sweep):
        for p in lifespan_sweep.points:
            h_coarse, t_coarse = p.levels[0]
            h_fine, t_fine = p.levels[1]
            # halving h moves the crossing by less than the coarse increment
            assert abs(t_fine - t_coarse) <= max(0.05 * t_fine, 4.0 * h_coarse)

    def test_lower_bound_shape(self, lifespan_sweep):
        # anchored at the smallest epsilon with the same 25% slope latitude
        # the fit check uses
        pts = lifespan_sweep.uncensored
        e0, t0 = pts[0].epsilon, pts[0].t_numeric
        theo = lifespan_sweep.theoretical
        for p in pts:
            floor = (
                np.log(t0)
                + theo * (np.log(p.epsilon) - np.log(e0))
                - abs(theo) * 0.25 * abs(np.log(p.epsilon / e0))
            )
            assert np.log(p.t_numeric) >= floor - 1e-12
