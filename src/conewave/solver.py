"""Causal solvers for the damped cubic-convolution wave equation in radial
symmetry, plus the run diagnostics built on top of them.

The unknown is the transformed field u (original field times 1+t), which
satisfies the integral equation

    u = u0 + L[(V_gamma * u^2) u],

with u0 the free field of data (v0, v0+v1).  Two independent backends are
provided:

* ``solve_march``   -- discretizes the integral equation itself: at each
  slice the Duhamel term comes from the cone accumulator, and the newest
  cell is closed by a short fixed-point sweep in the current source slice;
* ``solve_dalembert`` -- rewrites r*u as a 1+1-dimensional wave equation
  with source r*(V*u^2)u/(1+t)^2 and marches it with the exact
  characteristic stencil (dt = dr).

Both hand each finished slice to one recorder, which keeps the same
per-slice series (weighted norm, dissipation weight, mass functional, sup)
and threshold crossings for either, so they can be cross-validated slice
by slice.  Both always march the cubic equation: the linear field is the
``waveops.FreeField`` table, not a solver option.  A stored run is
post-processed by ``liouville`` (the table v = u/(1+t)), whose rows
``dissipation_monitor`` reads, and by ``scattering_check`` (distance to the
outgoing free wave).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, MassWeights, RadialProfile
from .norms import NormSeries, WeightParams, slice_x_norm
from .potential import cached_kernel
from .waveops import ConeAccumulator, FreeField, duhamel_tails, lam_prefix

__all__ = [
    "NumericalAbort",
    "Params",
    "BlowupReport",
    "SolutionHistory",
    "DATA_FAMILIES",
    "make_data",
    "solve_march",
    "solve_dalembert",
    "liouville",
    "scattering_check",
    "dissipation_monitor",
]

_MAX_SLICE_SWEEPS = 4
_PICARD_TOL = 1e-11

DATA_FAMILIES = ("bump_v1_only", "bump_both")


class NumericalAbort(RuntimeError):
    """Non-finite value during a march; carries the offending slice index."""

    def __init__(self, slice_index: int, backend: str):
        super().__init__(f"non-finite value in backend {backend} at slice {slice_index}")
        self.slice_index = slice_index
        self.backend = backend


@dataclass(frozen=True)
class Params:
    """One run of the damped Hartree wave problem."""

    gamma: float
    R: float
    epsilon: float
    grid: Grid
    blowup_threshold: float = 1e6

    def __post_init__(self):
        if not (-0.5 < self.gamma < 3.0):
            raise ValueError(f"gamma must lie in (-1/2, 3), got {self.gamma}")
        if self.R < 1.0:
            raise ValueError(f"R must be >= 1, got {self.R}")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")
        if not self.blowup_threshold > 0.0:
            raise ValueError("blowup_threshold must be positive")
        jr = self.R / self.grid.h
        if abs(jr - round(jr)) > 1e-9:
            raise ValueError("R must be an integer number of grid cells")

    @property
    def support_cells(self) -> int:
        return int(round(self.R / self.grid.h))

    def weights(self) -> WeightParams:
        return WeightParams(self.gamma, self.R)


# a run records the first crossing of the stop threshold and of this many
# times less, so a lifespan comes with its agreement across two decades
_LOW_THRESHOLD_FACTOR = 100.0


@dataclass
class BlowupReport:
    blew_up: bool
    t_numeric: float | None
    threshold: float
    crossings: dict = field(default_factory=dict)  # threshold -> first crossing time

    @property
    def threshold_gap(self) -> float:
        """|t(threshold) - t(threshold / 100)|; nan unless both were crossed."""
        c = self.crossings
        low = self.threshold / _LOW_THRESHOLD_FACTOR
        return abs(c.get(self.threshold, math.nan) - c.get(low, math.nan))


@dataclass
class SolutionHistory:
    """March output: solution table (optional), source table (optional),
    per-slice series, and blow-up bookkeeping."""

    params: Params
    grid: Grid
    n_used: int
    series: NormSeries
    blowup: BlowupReport
    u: np.ndarray | None = None
    g: np.ndarray | None = None

    def finite_propagation_violations(self) -> int:
        if self.u is None:
            raise ValueError("run stored no history")
        r = self.grid.radii()
        bad = 0
        for n in range(self.n_used):
            if np.any(self.u[n][r > n * self.grid.h + self.params.R + 1e-12] != 0.0):
                bad += 1
        return bad

    def min_value(self) -> float:
        if self.u is None:
            raise ValueError("run stored no history")
        return float(np.min(self.u[: self.n_used]))


def make_data(family: str, epsilon: float, R: float, grid: Grid):
    """Compactly supported C^2 data families scaled by epsilon.

    ``bump_v1_only``: v0 = 0, v1 = eps (1-(r/R)^2)^3 on r <= R;
    ``bump_both``: the same bump in both components.
    """
    if family not in DATA_FAMILIES:
        raise ValueError(f"unknown data family {family!r}")
    r = grid.radii()
    x = np.minimum(r / R, 1.0)
    bump = np.where(r <= R, (1.0 - x * x) ** 3, 0.0)
    v1 = RadialProfile(grid, epsilon * bump, support_radius=R)
    if family == "bump_both":
        return v1, v1
    return RadialProfile(grid, np.zeros(grid.n_r), support_radius=R), v1


class _Recorder:
    """The one record of a run.  Each finished slice goes through
    ``record``, which aborts on non-finite values, stores the rows (with
    ``store_history``), updates the per-slice series and the threshold
    crossings, and reports the stop; ``history`` builds the result."""

    def __init__(self, params: Params, backend: str, store_history: bool = True):
        grid = params.grid
        self.params = params
        self.backend = backend
        self.r = grid.radii()
        self.wp = params.weights()
        self.h = grid.h
        self.mw = MassWeights(grid)
        n_t = grid.n_t
        self.x_run = np.zeros(n_t)
        self.dissip = np.zeros(n_t)
        self.mass = np.zeros(n_t)
        self.sup_u = np.zeros(n_t)
        self.u = np.zeros((n_t, grid.n_r)) if store_history else None
        self.g = np.zeros((n_t, grid.n_r)) if store_history else None
        self.stop_threshold = params.blowup_threshold
        self.thresholds = (self.stop_threshold / _LOW_THRESHOLD_FACTOR, self.stop_threshold)
        self.crossings: dict = {}
        self.n_used = 0
        self.blew_up = False

    def record(self, n: int, u_row: np.ndarray, g_row: np.ndarray) -> bool:
        """Record slice n; True when it crosses the stop threshold."""
        if not np.all(np.isfinite(u_row)):
            raise NumericalAbort(n, self.backend)
        if self.u is not None:
            self.u[n] = u_row
            self.g[n] = g_row
        t = n * self.h
        sup = float(np.max(np.abs(u_row)))
        self.sup_u[n] = sup
        xs = slice_x_norm(self.wp, self.r, t, u_row)
        self.x_run[n] = max(xs, self.x_run[n - 1] if n else 0.0)
        self.dissip[n] = float(np.max((1.0 + t + self.r) * np.abs(u_row))) / (1.0 + t)
        self.mass[n] = self.mw.mass(u_row)
        for thr in self.thresholds:
            if thr not in self.crossings and sup > thr:
                self.crossings[thr] = t
        self.n_used = n + 1
        self.blew_up = sup > self.stop_threshold
        return self.blew_up

    def history(self) -> SolutionHistory:
        sl = slice(0, self.n_used)
        series = NormSeries(
            t=np.arange(self.n_used) * self.h,
            x_norm_running=self.x_run[sl].copy(),
            dissipation=self.dissip[sl].copy(),
            mass=self.mass[sl].copy(),
            sup_u=self.sup_u[sl].copy(),
        )
        blowup = BlowupReport(
            blew_up=self.blew_up,
            t_numeric=self.crossings.get(self.stop_threshold) if self.blew_up else None,
            threshold=self.stop_threshold,
            crossings=self.crossings,
        )
        return SolutionHistory(
            params=self.params,
            grid=self.params.grid,
            n_used=self.n_used,
            series=series,
            blowup=blowup,
            u=None if self.u is None else self.u[sl],
            g=None if self.g is None else self.g[sl],
        )


def solve_march(
    params: Params,
    data,
    store_history: bool = True,
) -> SolutionHistory:
    """March the integral equation causally on the characteristic grid.

    Each slice is free field + accumulated Duhamel history; the current
    slice enters only through the newest-cell closure and is resolved by a
    few fixed-point sweeps (tolerance ``_PICARD_TOL``).  Marching
    stops early once sup|u| exceeds ``params.blowup_threshold``.
    """
    v0, v1 = data
    grid = params.grid
    jr = params.support_cells
    # first, so a grid short of the forward cone fails before any table is built
    acc = ConeAccumulator(grid, jr)
    kern = cached_kernel(params.gamma, grid)
    free = FreeField(v0, v1, grid)
    rec = _Recorder(params, "march", store_history)
    n_r = grid.n_r

    for n in range(grid.n_t):
        support = (n + jr) * grid.h
        base = free.slice(n)
        if n == 0:
            u_row = base
            g_row = kern.cubic(u_row, support)
        else:
            # the sweeps run on the live window, nodes 0..min(n + jr, n_r - 1)
            k = min(n + jr, n_r - 1) + 1
            g_cur = g_prev[:k]
            prev_delta = math.inf
            for sweep in range(_MAX_SLICE_SWEEPS):
                u_w = base[:k] + acc.eval_slice(g_cur)
                g_new = kern.cubic(u_w, support)
                delta = float(np.max(np.abs(g_new - g_cur)))
                scale = 1.0 + float(np.max(np.abs(g_new)))
                g_cur = g_new
                if delta <= _PICARD_TOL * scale:
                    break
                if delta > prev_delta and sweep >= 1:
                    break  # closure no longer contracting (late blow-up stage)
                prev_delta = delta
            u_row = np.zeros(n_r)
            u_row[:k] = u_w
            g_row = np.zeros(n_r)
            g_row[:k] = g_cur
        if rec.record(n, u_row, g_row):
            break
        acc.push_slice(g_row)
        g_prev = g_row
    return rec.history()


def solve_dalembert(params: Params, data) -> SolutionHistory:
    """Independent backend: U = r u solves U_tt - U_rr = r G/(1+t)^2 with
    odd reflection at the axis; exact characteristic stencil at dt = dr."""
    v0, v1 = data
    grid = params.grid
    jr = params.support_cells
    kern = cached_kernel(params.gamma, grid)
    rec = _Recorder(params, "dalembert")
    n_r, n_t = grid.n_r, grid.n_t
    h = grid.h
    r = grid.radii()

    def close(n, U_row):
        # slice n from U = r u: zero beyond the cone, divide by r, axis limit
        kmax = min(n + jr, n_r - 1)
        U_row[kmax + 1 :] = 0.0
        u_row = np.zeros(n_r)
        u_row[1:] = U_row[1:] / r[1:]
        u_row[0] = (4.0 * u_row[1] - u_row[2]) / 3.0
        u_row[kmax + 1 :] = 0.0
        g_row = kern.cubic(u_row, (n + jr) * h)
        rec.record(n, u_row, g_row)
        return g_row

    damp = 1.0 / (1.0 + np.arange(n_t) * h) ** 2

    u_prev = v0.samples.copy()
    g_prev = kern.cubic(u_prev, jr * h)
    U_prev = r * u_prev
    if rec.record(0, u_prev, g_prev) or n_t == 1:
        return rec.history()

    psi = lam_prefix((v0 + v1).samples, h)
    S0 = r * g_prev * damp[0]
    U_cur = np.zeros(n_r)
    U_cur[1:-1] = (
        0.5 * (U_prev[2:] + U_prev[:-2])
        + 0.5 * (psi[2:] - psi[:-2])
        + 0.5 * h * h * S0[1:-1]
    )
    g_cur = close(1, U_cur)
    for n in range(1, n_t - 1):
        if rec.blew_up:
            break
        S = r * g_cur * damp[n]
        U_next = np.zeros(n_r)
        U_next[1:-1] = U_cur[2:] + U_cur[:-2] - U_prev[1:-1] + h * h * S[1:-1]
        g_cur = close(n + 1, U_next)
        U_prev, U_cur = U_cur, U_next
    return rec.history()


# ---------------------------------------------------------------------------
# Post-processing
# ---------------------------------------------------------------------------


def liouville(hist: SolutionHistory) -> np.ndarray:
    """The table v = u/(1+t): the damping substitution inverted slice by slice."""
    if hist.u is None:
        raise ValueError("run stored no history")
    t = np.arange(hist.n_used) * hist.grid.h
    return hist.u / (1.0 + t)[:, None]


def dissipation_monitor(v: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Series t -> (1+t) sup_r (1+t+r)|v| for the rows of a v table
    (the output of ``liouville``)."""
    r = grid.radii()
    t = np.arange(len(v)) * grid.h
    vals = np.empty(len(v))
    for n in range(len(v)):
        vals[n] = (1.0 + t[n]) * float(np.max((1.0 + t[n] + r) * np.abs(v[n])))
    return t, vals


def scattering_check(hist: SolutionHistory, t_star: float):
    """Weighted distance to the outgoing free wave.

    Builds u_plus by subtracting the remaining Duhamel tail (truncated at
    the end of the run; ``waveops.duhamel_tails``) and returns
    (t, sup_r (1+t+r)|u - u_plus|) for t >= t_star, plus an estimate of the
    neglected tail.  Refuses blown-up runs.
    """
    if hist.blowup.blew_up:
        raise ValueError("scattering_check refuses runs that blew up")
    if hist.g is None:
        raise ValueError("run must store source history")
    if hist.params.gamma <= 0.0:
        raise ValueError("scattering diagnostics need gamma > 0")
    grid = hist.grid
    h = grid.h
    n_star = grid.index_of_time(t_star)
    M = hist.n_used - 1
    if n_star >= M:
        raise ValueError("t_star must leave room before the end of the run")
    r = grid.radii()
    out_t = []
    out_val = []
    for n, tail in duhamel_tails(hist.g[: M + 1], grid, hist.params.support_cells, n_star):
        t = n * h
        out_t.append(t)
        out_val.append(float(np.max((1.0 + t + r) * np.abs(tail))))
    out_t.reverse()
    out_val.reverse()
    # crude estimate of the neglected tail beyond the run, assuming the
    # source keeps its (1+s)^-(gamma+1) envelope
    supg = float(np.max(np.abs(hist.g[M])))
    q = 3.0 + hist.params.gamma
    U = 1.0 + M * h
    rem = supg * U ** (hist.params.gamma + 1.0) * (
        U ** (2.0 - q) / (q - 2.0) - (1.0 + t_star) * U ** (1.0 - q) / (q - 1.0)
    ) / 2.0
    return np.array(out_t), np.array(out_val), rem
