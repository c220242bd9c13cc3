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
by slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, MassWeights, RadialProfile
from .norms import NormSeries, WeightParams, slice_x_norm, x_norm
from .potential import ConvolutionKernel
from .waveops import ConeAccumulator, FreeField, lam_prefix

__all__ = [
    "NumericalAbort",
    "Params",
    "BlowupReport",
    "SolutionHistory",
    "DATA_FAMILIES",
    "make_data",
    "solve_march",
    "solve_dalembert",
    "PicardResult",
    "picard_window",
    "picard_local",
    "liouville",
    "scattering_check",
    "dissipation_monitor",
    "scale_symmetry_check",
]

_MAX_SLICE_SWEEPS = 4
_PICARD_MAX_ITER = 25
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
    backend: str = "march"
    kind: str = "u"

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
            backend=self.backend,
        )


def _source_row(
    kern: ConvolutionKernel | None, u_row: np.ndarray, support_radius: float
) -> np.ndarray:
    """G = (V_gamma * u^2) u for one slice (undamped: no 1/(1+t)^2 here);
    zero without a kernel (the linear reference runs)."""
    if kern is None:
        return np.zeros_like(u_row)
    sq = RadialProfile(kern.grid, u_row * u_row, support_radius=support_radius)
    return kern.apply(sq) * u_row


def solve_march(
    params: Params,
    data,
    nonlinear: bool = True,
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
    if grid.n_r - 1 < grid.n_t - 1 + jr:
        raise ValueError("grid must satisfy r_max >= t_max + R for the causal march")
    kern = ConvolutionKernel(params.gamma, grid) if nonlinear else None
    free = FreeField(v0, v1, grid)
    acc = ConeAccumulator(grid, jr)
    rec = _Recorder(params, "march", store_history)
    n_r = grid.n_r

    g_prev = np.zeros(n_r)
    for n in range(grid.n_t):
        kmax = min(n + jr, n_r - 1)
        support = (n + jr) * grid.h
        base = free.slice(n)
        if n == 0 or kern is None:
            u_row = base
            g_row = _source_row(kern, u_row, support)
        else:
            g_cur = g_prev
            u_row = np.zeros(n_r)
            prev_delta = math.inf
            for sweep in range(_MAX_SLICE_SWEEPS):
                dh = acc.eval_slice(n, g_cur, kmax)
                new_row = np.zeros(n_r)
                new_row[: kmax + 1] = base[: kmax + 1] + dh
                g_new = _source_row(kern, new_row, support)
                delta = float(np.max(np.abs(g_new - g_cur)))
                scale = 1.0 + float(np.max(np.abs(g_new)))
                u_row = new_row
                g_cur = g_new
                if delta <= _PICARD_TOL * scale:
                    break
                if delta > prev_delta and sweep >= 1:
                    break  # closure no longer contracting (late blow-up stage)
                prev_delta = delta
            g_row = g_cur
        if rec.record(n, u_row, g_row):
            break
        acc.push_slice(g_row)
        g_prev = g_row
    return rec.history()


def solve_dalembert(params: Params, data, nonlinear: bool = True) -> SolutionHistory:
    """Independent backend: U = r u solves U_tt - U_rr = r G/(1+t)^2 with
    odd reflection at the axis; exact characteristic stencil at dt = dr."""
    v0, v1 = data
    grid = params.grid
    jr = params.support_cells
    kern = ConvolutionKernel(params.gamma, grid) if nonlinear else None
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
        g_row = _source_row(kern, u_row, (n + jr) * h)
        rec.record(n, u_row, g_row)
        return g_row

    damp = 1.0 / (1.0 + np.arange(n_t) * h) ** 2

    u_prev = v0.samples.copy()
    g_prev = _source_row(kern, u_prev, jr * h)
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
# Picard iteration on a short window
# ---------------------------------------------------------------------------


@dataclass
class PicardResult:
    u: np.ndarray
    ratios: list
    norms: list
    iterations: int
    converged: bool
    diagnosis: str = ""


def picard_window(params: Params, data, c1: float) -> tuple[float, float]:
    """A (T, M) pair satisfying the smallness condition
    T <= sqrt(2 pi / (3 M^2 C1 R^(3-gamma))) with M sized from the free
    field's weighted norm."""
    grid = params.grid
    v0, v1 = data
    free = FreeField(v0, v1, grid)
    n_R = min(grid.n_t - 1, int(round(params.R / grid.h)))
    tab = free.table(n_R + 1)
    b = x_norm(tab, params.weights(), grid)
    M = max(2.2 * b, 1e-12)
    t_bound = math.sqrt(2.0 * math.pi / (3.0 * M * M * c1 * params.R ** (3.0 - params.gamma)))
    T = min(0.95 * t_bound, params.R - grid.h)
    T = max(grid.h, math.floor(T / grid.h) * grid.h)
    return T, M


def picard_local(params: Params, data, T: float, M: float, c1: float) -> PicardResult:
    """Iterate u -> u0 + L[(V*u^2)u] on [0, T] from u_0 = u0.

    Validates the smallness condition, tracks the weighted norms of the
    successive differences, and reports their ratios (the contraction
    factors).  A ratio above 0.6 marks the run as a failed precondition.
    """
    grid = params.grid
    n_T = grid.index_of_time(T)
    if n_T < 1:
        raise ValueError("T must span at least one slice")
    if T >= params.R:
        raise ValueError("smallness requires T < R")
    t_bound = math.sqrt(2.0 * math.pi / (3.0 * M * M * c1 * params.R ** (3.0 - params.gamma)))
    if T > t_bound * (1.0 + 1e-12):
        raise ValueError(f"T={T} violates the smallness bound {t_bound}")
    v0, v1 = data
    jr = params.support_cells
    kern = ConvolutionKernel(params.gamma, grid)
    free_tab = FreeField(v0, v1, grid).table(n_T + 1)
    wp = params.weights()
    u0_norm = x_norm(free_tab, wp, grid)
    if u0_norm > 0.5 * M * (1.0 + 1e-9):
        raise ValueError(f"free-field norm {u0_norm} exceeds M/2 = {0.5 * M}")

    u_old = free_tab.copy()
    ratios: list[float] = []
    norms: list[float] = []
    converged = False
    iterations = 0
    for it in range(_PICARD_MAX_ITER):
        g_tab = np.zeros_like(u_old)
        for m in range(n_T + 1):
            g_tab[m] = _source_row(kern, u_old[m], (m + jr) * grid.h)
        acc = ConeAccumulator(grid, jr)
        u_new = free_tab.copy()
        for n in range(n_T + 1):
            if n >= 1:
                kmax = min(n + jr, grid.n_r - 1)
                u_new[n, : kmax + 1] += acc.eval_slice(n, g_tab[n], kmax)
            acc.push_slice(g_tab[n])
        d = x_norm(u_new - u_old, wp, grid)
        norms.append(d)
        if len(norms) >= 2 and norms[-2] > 0.0:
            ratios.append(norms[-1] / norms[-2])
        u_old = u_new
        iterations = it + 1
        if d <= _PICARD_TOL * max(1.0, x_norm(u_new, wp, grid)):
            converged = True
            break
    diagnosis = ""
    if any(rho > 0.6 for rho in ratios):
        diagnosis = "non-contraction: a successive-difference ratio exceeded 0.6"
    return PicardResult(
        u=u_old, ratios=ratios, norms=norms, iterations=iterations,
        converged=converged, diagnosis=diagnosis,
    )


# ---------------------------------------------------------------------------
# Post-processing
# ---------------------------------------------------------------------------


def liouville(hist: SolutionHistory) -> SolutionHistory:
    """v = u/(1+t): invert the damping substitution slice by slice."""
    if hist.u is None:
        raise ValueError("run stored no history")
    t = np.arange(hist.n_used) * hist.grid.h
    v = hist.u / (1.0 + t)[:, None]
    return SolutionHistory(
        params=hist.params,
        grid=hist.grid,
        n_used=hist.n_used,
        series=hist.series,
        blowup=hist.blowup,
        u=v,
        g=None,
        backend=hist.backend,
        kind="v",
    )


def dissipation_monitor(v_hist: SolutionHistory) -> tuple[np.ndarray, np.ndarray]:
    """Series t -> (1+t) sup_r (1+t+r)|v| for a Liouville-transformed run."""
    if v_hist.kind != "v":
        raise ValueError("dissipation_monitor expects the output of liouville()")
    grid = v_hist.grid
    r = grid.radii()
    t = np.arange(v_hist.n_used) * grid.h
    vals = np.empty(v_hist.n_used)
    for n in range(v_hist.n_used):
        vals[n] = (1.0 + t[n]) * float(np.max((1.0 + t[n] + r) * np.abs(v_hist.u[n])))
    return t, vals


def scattering_check(hist: SolutionHistory, t_star: float, keep_fields: bool = False):
    """Weighted distance to the outgoing free wave.

    Builds u_plus by subtracting the remaining Duhamel tail (truncated at
    the end of the run) and returns (t, sup_r (1+t+r)|u - u_plus|) for
    t >= t_star, plus an estimate of the neglected tail.  Refuses blown-up
    runs.  With ``keep_fields`` the pointwise tail slices are returned as a
    fourth element (slice index -> array), for cross-validation.
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
    acc = ConeAccumulator(grid, hist.params.support_cells)
    r = grid.radii()
    out_t = []
    out_val = []
    fields: dict[int, np.ndarray] = {}
    # fold slices in from the top down; after slice n+1 is in, emit t_n.  The
    # top slice carries only the right-endpoint weight of its cell.
    for m in range(M, n_star, -1):
        acc._add(m, acc.tw.wr[m - 1] if m == M else acc.tw.w_slice[m], hist.g[m])
        n = m - 1
        tail = acc.eval_tail(n, hist.g[n])
        t = n * h
        out_t.append(t)
        out_val.append(float(np.max((1.0 + t + r) * np.abs(tail))))
        if keep_fields:
            fields[n] = tail

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
    if keep_fields:
        return np.array(out_t), np.array(out_val), rem, fields
    return np.array(out_t), np.array(out_val), rem


def _build_scaled_data(hist: SolutionHistory, s: float):
    """Data of the s-scaled companion run, read off the base run at the
    slice t = s - 1 (s >= 1): u_scaled(r, 0) = s^e u(s r, s-1) with
    e = (3-gamma)/2, and the matching time derivative by centered
    differences."""
    grid = hist.grid
    h = grid.h
    gamma = hist.params.gamma
    n1 = grid.index_of_time(s - 1.0)
    if n1 + 1 >= hist.n_used:
        raise ValueError("base run too short to read scaled data")
    e = 0.5 * (3.0 - gamma)
    r = grid.radii()
    rs = s * r  # radii past r_max lie outside the data support; clamping them is harmless
    u_here = np.interp(np.minimum(rs, grid.r_max), r, hist.u[n1])
    if n1 >= 1:
        ut_here = np.interp(
            np.minimum(rs, grid.r_max), r, (hist.u[n1 + 1] - hist.u[n1 - 1]) / (2.0 * h)
        )
    else:
        ut_here = np.interp(np.minimum(rs, grid.r_max), r, (hist.u[1] - hist.u[0]) / h)
    sup = ((s - 1.0) + hist.params.R) / s
    u0 = s**e * u_here
    ut0 = s ** (e + 1.0) * ut_here
    u0[r > sup + 1e-12] = 0.0
    ut0[r > sup + 1e-12] = 0.0
    v0 = RadialProfile(grid, u0, support_radius=min(sup, grid.r_max))
    v1 = RadialProfile(grid, ut0 - u0, support_radius=min(sup, grid.r_max))
    return v0, v1


def scale_symmetry_check(params: Params, data, sigma: float, t_check: float | None = None) -> float:
    """Equivariance of the original field under the scaling symmetry.

    For sigma >= 1 the companion run starts from the scaled state of the
    base run; for sigma < 1 the roles invert (the map at 1/sigma is applied
    to the companion and compared against the base).  Returns the sup
    mismatch of v over the aligned grid points; 0 for sigma = 1 by
    determinism.
    """
    if not (0.5 - 1e-12 <= sigma <= 2.0 + 1e-12):
        raise ValueError("sigma must lie in [1/2, 2]")
    grid = params.grid
    h = grid.h
    if abs(round(1.0 / h) - 1.0 / h) > 1e-9:
        raise ValueError("scale check needs 1/h integer so shifted times stay on the grid")
    s = sigma if sigma >= 1.0 else 1.0 / sigma
    gamma = params.gamma
    e = 0.5 * (3.0 - gamma)

    t_b = t_check if t_check is not None else (grid.t_max - (s - 1.0)) / s - 2 * h
    base = solve_march(params, data)
    if base.blowup.blew_up:
        raise ValueError("scale check needs a run without blow-up")
    if s == 1.0:
        comp = solve_march(params, data)  # identical inputs, deterministic
    else:
        comp = solve_march(params, _build_scaled_data(base, s))

    mism = 0.0
    off = round((s - 1.0) / h)
    n = 1
    while True:
        tn = n * h
        npr = round(s * n) + off  # base-run slice at time s(1+t_n) - 1
        if npr >= base.n_used or n >= comp.n_used or tn > t_b:
            break
        kk = np.arange(comp.grid.n_r)
        ks = s * kk
        k_int = np.abs(ks - np.round(ks)) < 1e-9
        ks_idx = np.round(ks[k_int]).astype(int)
        valid = ks_idx <= base.grid.n_r - 1
        comp_u = comp.u[n][k_int][valid]
        base_u = base.u[npr][ks_idx[valid]]
        if sigma >= 1.0:
            # v_comp(y, t) vs s^(5-g)/2 v_base(s y, s(1+t)-1)
            mism = max(mism, float(np.max(np.abs(comp_u - s**e * base_u))) / (1.0 + tn))
        else:
            # inverse reading: v_base at the pulled-back point vs
            # sigma^(5-g)/2 v_comp
            tb = npr * h
            lhs_v = base_u / (1.0 + tb)
            rhs_v = sigma ** (0.5 * (5.0 - gamma)) * comp_u / (1.0 + tn)
            mism = max(mism, float(np.max(np.abs(lhs_v - rhs_v))))
        n += 1
    return mism
