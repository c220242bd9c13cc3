"""Lifespan sweeps: measure threshold blow-up times across epsilon and fit
the log-log scaling law against the theoretical exponent 2/gamma.

``sweep`` marches all epsilon of one refinement level in lockstep on the
d'Alembert stencil, the production backend of every mode, as the rows of
one lean ``solver.dalembert_batch`` call per level, one slice convolution
per slice.  ``lifespan_measure`` measures one point on the
integral-equation march (``solver.solve_march``), the independent
reference that a sweep's lifespans are held to; the march's other role is
solve mode's backend check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid
from .solver import NumericalAbort, Params, dalembert_batch, make_data, solve_march

__all__ = [
    "MIN_FIT_POINTS", "LifespanPoint", "LifespanFit", "lifespan_measure", "fit_slope", "sweep",
]

MIN_FIT_POINTS = 4  # uncensored (eps, T) pairs the slope fit needs


@dataclass
class LifespanPoint:
    epsilon: float
    t_numeric: float | None  # Richardson-extrapolated; None when censored
    censored: bool
    levels: list = field(default_factory=list)  # (h, t_at_stop_threshold)
    threshold_gap: float = math.nan  # the finest level's SolutionHistory.threshold_gap
    richardson_increment: float = math.nan


@dataclass
class LifespanFit:
    gamma: float
    epsilons: list
    t_numerics: list
    slope: float
    slope_stderr: float
    theoretical: float
    passed: bool
    delta: float = 0.5
    points: list = field(default_factory=list)

    @property
    def uncensored(self) -> list:
        return [p for p in self.points if not p.censored]

    @property
    def monotone_in_epsilon(self) -> bool:
        """Blow-up times strictly decrease along the uncensored points."""
        pts = self.uncensored
        return all(b.t_numeric < a.t_numeric for a, b in zip(pts, pts[1:]))

    @property
    def threshold_gaps_within_2h(self) -> bool:
        """Every uncensored threshold gap is at most two finest-grid cells."""
        fine_h = self.points[0].levels[-1][0]
        return all(p.threshold_gap <= 2.0 * fine_h + 1e-12 for p in self.uncensored)

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "epsilons": list(self.epsilons),
            "t_numerics": list(self.t_numerics),
            "slope": self.slope,
            "slope_stderr": self.slope_stderr,
            "theoretical": self.theoretical,
            "theoretical_upper": self.theoretical - self.delta,
            "passed": bool(self.passed),
        }


def _level_runs(gamma, R, epsilons, h, t_max, family, blowup_threshold):
    """The problem on the grid of spacing h, and the data of each epsilon."""
    grid = Grid.for_domain(h, t_max + R, t_max)
    params = Params(gamma=gamma, R=R, grid=grid, blowup_threshold=blowup_threshold)
    return params, [make_data(family, e, R, grid) for e in epsilons]


def _point(epsilon: float, levels: list, hist) -> LifespanPoint:
    """The point of one epsilon from its (h, t) levels, coarse to fine, and
    the finest level's history: Richardson on the two finest levels."""
    if hist.t_numeric is None:
        return LifespanPoint(epsilon=epsilon, t_numeric=None, censored=True, levels=levels)
    if len(levels) >= 2 and levels[-2][1] is not None:
        t_f = levels[-1][1]
        t_c = levels[-2][1]
        extrap = t_f + (t_f - t_c) / 3.0
        inc = abs(t_f - t_c)
    else:
        extrap = levels[-1][1]
        inc = math.nan
    return LifespanPoint(
        epsilon=epsilon,
        t_numeric=extrap,
        censored=False,
        levels=levels,
        threshold_gap=hist.threshold_gap,
        richardson_increment=inc,
    )


def lifespan_measure(
    gamma: float,
    R: float,
    epsilon: float,
    h: float,
    t_max: float,
    family: str = "bump_v1_only",
    blowup_threshold: float = 1e6,
    refine: int = 1,
) -> LifespanPoint:
    """Threshold blow-up time with grid-refinement acceptance, on the march.

    Runs at h, h/2, ... (``refine``+1 levels), records the stop-threshold
    crossing per level, Richardson-extrapolates the two finest levels
    assuming second order, and reports the coarse/fine increment and the
    finest level's gap between the stop and stop/100 crossings.
    Censored when no crossing occurs before t_max at the finest level.
    """
    if gamma >= 0.0:
        raise ValueError("lifespan_measure expects the blow-up regime gamma < 0")
    levels = []
    hist = None
    for lev in range(refine + 1):
        hh = h / 2**lev
        params, (data,) = _level_runs(gamma, R, [epsilon], hh, t_max, family, blowup_threshold)
        hist = solve_march(params, data, store_history=False)
        levels.append((hh, hist.t_numeric))
    return _point(epsilon, levels, hist)


def fit_slope(pairs, gamma: float, delta: float = 0.5) -> LifespanFit:
    """Least-squares slope of log T against log eps with its standard error
    over the uncensored (eps, T) pairs; passes when the slope is within 25
    percent of 2/gamma.  With fewer than ``MIN_FIT_POINTS`` uncensored
    pairs the fit is not made: slope and its error are nan and the fit does
    not pass."""
    pairs = [(e, t) for e, t in pairs if t is not None and t > 0.0]
    slope = stderr = math.nan
    if len(pairs) >= MIN_FIT_POINTS:
        x = np.log([e for e, _ in pairs])
        y = np.log([t for _, t in pairs])
        n = len(x)
        xbar = x.mean()
        ybar = y.mean()
        sxx = float(np.sum((x - xbar) ** 2))
        slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
        resid = y - (ybar + slope * (x - xbar))
        stderr = math.sqrt(float(np.sum(resid**2)) / max(n - 2, 1) / sxx)
    theo = 2.0 / gamma
    return LifespanFit(
        gamma=gamma,
        epsilons=[e for e, _ in pairs],
        t_numerics=[t for _, t in pairs],
        slope=slope,
        slope_stderr=stderr,
        theoretical=theo,
        passed=abs(slope - theo) <= 0.25 * abs(theo),  # False on a nan slope
        delta=delta,
    )


def sweep(
    gamma: float,
    R: float,
    epsilons,
    h: float,
    t_max: float,
    family: str = "bump_v1_only",
    blowup_threshold: float = 1e6,
    refine: int = 1,
    delta: float = 0.5,
) -> LifespanFit:
    """Measure each sweep point and fit the scaling law.

    Each refinement level marches its points in lockstep on the stencil
    (one lean ``dalembert_batch`` call); every point equals the same
    measurement made one point at a time on ``solve_dalembert``.  A point
    that aborts raises its ``NumericalAbort`` once the level ends, the first
    in (point, level) order as a point-by-point sweep would, and later
    points are not marched further.

    Censored points never enter the fit (``fit_slope``); epsilons must be
    strictly increasing so the monotonicity check is meaningful.
    """
    eps = list(epsilons)
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly increasing")
    if gamma >= 0.0:
        raise ValueError("sweep expects the blow-up regime gamma < 0")
    levels = [[] for _ in eps]
    hists: list = [None] * len(eps)
    abort = None  # the first abort in (point, level) order
    n_run = len(eps)  # points before the first aborted one
    for lev in range(refine + 1):
        if not n_run:
            break
        hh = h / 2**lev
        params, data = _level_runs(gamma, R, eps[:n_run], hh, t_max, family, blowup_threshold)
        for i, out in enumerate(dalembert_batch(params, data, store_history=False)):
            if isinstance(out, NumericalAbort):
                abort, n_run = out, i
                break
            levels[i].append((hh, out.t_numeric))
            hists[i] = out
    if abort is not None:
        raise abort
    points = [_point(e, lv, hist) for e, lv, hist in zip(eps, levels, hists)]
    fit = fit_slope(((p.epsilon, p.t_numeric) for p in points), gamma, delta)
    fit.points = points
    return fit
