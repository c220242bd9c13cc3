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

A ``Params`` is one problem (gamma, R, grid, stop threshold); the data
(v0, v1), which carry the amplitude epsilon, are its rows.  The march
itself is ``march_batch``: the rows of one problem march in lockstep as one
stack, each slice on its live window, with one slice convolution per
closure sweep for all rows that still sweep.  Every row equals its
one-point march bit for bit; ``solve_march`` is the batch of one.

Both backends compute u of slice n on its window (``Grid.window``), so they
write zeros past node n + jr by construction (finite propagation speed).  Both
hand each finished window to one recorder, which keeps the same per-slice
values for every row (weighted norm by ``norms.slice_x_norm``, dissipation
weight, mass functional by ``grid.mass`` over the window's cells, sup), so
they can be cross-validated slice by slice; the march adds each slice's closure sweeps,
last relative step and sources from a chosen slice on (a stored run their
table, a lean run the masses of G and of u^2).  A d'Alembert run keeps its
u table, or, given the march's u table as a reference, only its per-slice
distance to it.  Each row's result is one ``SolutionHistory``: it holds the
per-slice series and reads the blow-up facts (threshold crossings,
lifespan) off its sup series.  Both always march the cubic equation: the
linear field is the ``waveops.FreeField`` table, not a solver option.  A
stored run is post-processed by ``liouville`` (the rows v_n = u_n/(1+t_n),
one at a time), which ``dissipation_monitor`` reads, and by
``scattering_check`` (distance to the outgoing free wave).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, RadialProfile, mass
from .norms import WeightParams, slice_x_norm
from .potential import cached_kernel
from .waveops import ConeAccumulator, FreeField, duhamel_tails, lam_prefix

__all__ = [
    "NumericalAbort",
    "Params",
    "SolutionHistory",
    "DATA_FAMILIES",
    "make_data",
    "march_batch",
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
    """One damped Hartree wave problem: gamma, the data support radius R,
    a grid that holds the forward cone of that support, and the stop
    threshold.  The data of a run, scaled by epsilon (``make_data``), are
    passed beside it."""

    gamma: float
    R: float
    grid: Grid
    blowup_threshold: float = 1e6

    def __post_init__(self):
        self.weights()  # validates gamma and R
        if not self.blowup_threshold > 0.0:
            raise ValueError("blowup_threshold must be positive")
        jr = self.R / self.grid.h
        if abs(jr - round(jr)) > 1e-9:
            raise ValueError("R must be an integer number of grid cells")
        self.grid.check_cone(self.support_cells)

    @property
    def support_cells(self) -> int:
        return int(round(self.R / self.grid.h))

    def weights(self) -> WeightParams:
        return WeightParams(self.gamma, self.R)


# a run reports the first crossing of the stop threshold and of this many
# times less, so a lifespan comes with its agreement across two decades
_LOW_THRESHOLD_FACTOR = 100.0


@dataclass
class SolutionHistory:
    """The one record of a run: per-slice series of the slices 0 ..
    ``n_used - 1``, u table (None unless stored), the march's sources from
    slice ``g_from`` on (table ``g`` or lean masses, or None) and closure
    record.  The blow-up facts are read off ``sup_u``: a run stops
    at the first slice whose sup|u| exceeds ``params.blowup_threshold``."""

    params: Params
    n_used: int
    # per slice: running max of the weighted norm, dissipation weight of
    # v = u/(1+t), mass functional, sup|u|
    x_norm_running: np.ndarray
    dissipation: np.ndarray
    mass: np.ndarray
    sup_u: np.ndarray
    u: np.ndarray | None = None
    g: np.ndarray | None = None
    g_from: int = 0
    # a d'Alembert run given a reference u table: max|u - u_ref[n]| per
    # slice n, for the slices of both runs
    ref_diff: np.ndarray | None = None
    # a lean march, per slice from g_from on: the masses of G and of u^2
    source_mass: np.ndarray | None = None
    square_mass: np.ndarray | None = None
    # per slice of a march: closure sweeps, and the last step max|g_new - g|
    # relative to 1 + max|g_new| (slice 0 needs no closure: 0 and 0.0)
    closure_sweeps: np.ndarray | None = None
    closure_step: np.ndarray | None = None

    @property
    def grid(self) -> Grid:
        return self.params.grid

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.n_used) * self.grid.h

    @property
    def crossings(self) -> dict:
        """threshold -> time of the first slice whose sup|u| exceeds it, for
        the stop threshold and 100 times less, where crossed."""
        stop = self.params.blowup_threshold
        out = {}
        for c in (stop / _LOW_THRESHOLD_FACTOR, stop):
            above = np.flatnonzero(self.sup_u > c)
            if above.size:
                out[c] = int(above[0]) * self.grid.h
        return out

    @property
    def t_numeric(self) -> float | None:
        """Time of the stop-threshold crossing; None if the run did not blow up."""
        return self.crossings.get(self.params.blowup_threshold)

    @property
    def blew_up(self) -> bool:
        return self.t_numeric is not None

    @property
    def threshold_gap(self) -> float:
        """|t(threshold) - t(threshold / 100)|; nan unless both were crossed."""
        c = self.crossings
        stop = self.params.blowup_threshold
        return abs(c.get(stop, math.nan) - c.get(stop / _LOW_THRESHOLD_FACTOR, math.nan))

    def rows(self):
        """Per slice the tuple (t, x_norm, dissipation, mass, sup_u)."""
        return zip(self.t, self.x_norm_running, self.dissipation, self.mass, self.sup_u)

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
    if not 0.0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and >= 0")
    r = grid.radii()
    x = np.minimum(r / R, 1.0)
    bump = np.where(r <= R, (1.0 - x * x) ** 3, 0.0)
    v1 = RadialProfile(grid, epsilon * bump, support_radius=R)
    if family == "bump_both":
        return v1, v1
    return RadialProfile(grid, np.zeros(grid.n_r), support_radius=R), v1


class _Recorder:
    """The recorder of a run of ``params``, one row per data row of a
    batch.  Each finished slice goes through ``record`` with the rows still
    marching, which stores the rows (with ``store_history``) and that
    slice's own values, and reports the rows that stop: a row stops when
    its sup|u| exceeds the stop threshold, or with a ``NumericalAbort``
    kept for it on a non-finite value.  ``outcome`` builds each row's
    result, with the running max of the weighted norm.

    A march keeps its sources from slice ``sources_from`` on (None: none),
    with ``store_history`` as a table, else as the masses of G and of u^2.
    Given a reference table ``u_ref``, the record keeps each slice's
    max|u - u_ref[n]| instead of storing u."""

    def __init__(self, params: Params, n_rows: int, backend: str, store_history: bool = True,
                 sources_from: int | None = 0, u_ref: np.ndarray | None = None):
        grid = params.grid
        self.params = params
        self.backend = backend
        self.r = grid.radii()
        self.wp = params.weights()
        self.h = grid.h
        self.grid = grid
        shape = (n_rows, grid.n_t)
        self.x_norm = np.zeros(shape)
        self.dissip = np.zeros(shape)
        self.mass = np.zeros(shape)
        self.sup_u = np.zeros(shape)
        # closure sweeps and the last relative step delta / scale per slice
        self.sweeps = np.zeros(shape, dtype=int) if backend == "march" else None
        self.step = np.zeros(shape) if backend == "march" else None
        self.u = np.zeros(shape + (grid.n_r,)) if store_history and u_ref is None else None
        self.g = self.source_mass = self.square_mass = None
        self.g_from = sources_from or 0
        if backend == "march" and sources_from is not None:
            if not 0 <= sources_from < grid.n_t:
                raise ValueError(f"sources_from must be a slice of the grid, got {sources_from}")
            kept = (n_rows, grid.n_t - sources_from)
            if store_history:
                self.g = np.zeros(kept + (grid.n_r,))
            else:
                self.source_mass, self.square_mass = np.zeros(kept), np.zeros(kept)
        self.u_ref = u_ref
        self.ref_diff = None if u_ref is None else np.zeros(shape)
        self.n_used = np.zeros(n_rows, dtype=int)
        self.aborts: list = [None] * n_rows

    def record(self, n, rows, u, g=None, sweeps=None, step=None) -> np.ndarray:
        """Record slice n of the batch ``rows``: ``u`` holds their samples
        (len(rows), k) on the first k nodes, zero past them; a march adds
        their sources ``g`` there, closure ``sweeps`` and last relative
        ``step``.  Returns the mask of the rows that stop at this slice."""
        finite = np.isfinite(u).all(axis=-1)
        if not finite.all():
            for i in rows[~finite]:
                self.aborts[i] = NumericalAbort(n, self.backend)
            rows, u = rows[finite], u[finite]
            if sweeps is not None:
                g, sweeps, step = g[finite], sweeps[finite], step[finite]
        k = u.shape[-1]
        if rows.size and rows[-1] - rows[0] + 1 == rows.size:
            rows = slice(rows[0], rows[-1] + 1)  # a run of rows: views, no gathers
        if self.u is not None:
            self.u[rows, n, :k] = u
        if self.g is not None and n >= self.g_from:
            self.g[rows, n - self.g_from, :k] = g
        if self.source_mass is not None and n >= self.g_from:
            self.source_mass[rows, n - self.g_from] = mass(g, self.grid)
            self.square_mass[rows, n - self.g_from] = mass(u**2, self.grid)
        if self.u_ref is not None and n < len(self.u_ref):
            # both rows vanish past the window: the distance lies on it
            self.ref_diff[rows, n] = np.abs(u - self.u_ref[n, :k]).max(axis=-1)
        if self.sweeps is not None:
            self.sweeps[rows, n] = sweeps
            self.step[rows, n] = step
        t = n * self.h
        r = self.r[:k]
        au = np.abs(u)
        sup = au.max(axis=-1)
        self.sup_u[rows, n] = sup
        self.x_norm[rows, n] = slice_x_norm(self.wp, r, t, u)
        self.dissip[rows, n] = ((1.0 + t + r) * au).max(axis=-1) / (1.0 + t)
        self.mass[rows, n] = mass(u, self.grid)
        self.n_used[rows] = n + 1
        stop = ~finite
        stop[finite] = sup > self.params.blowup_threshold
        return stop

    def outcome(self, i: int):
        """Row i's ``SolutionHistory``, or its ``NumericalAbort``."""
        if self.aborts[i] is not None:
            return self.aborts[i]
        n_used = int(self.n_used[i])
        sl, kept = slice(0, n_used), slice(0, max(n_used - self.g_from, 0))
        return SolutionHistory(
            params=self.params,
            n_used=n_used,
            x_norm_running=np.maximum.accumulate(self.x_norm[i, sl]),
            dissipation=self.dissip[i, sl].copy(),
            mass=self.mass[i, sl].copy(),
            sup_u=self.sup_u[i, sl].copy(),
            u=None if self.u is None else self.u[i, sl],
            g=None if self.g is None else self.g[i, kept],
            g_from=self.g_from,
            ref_diff=None if self.u_ref is None
            else self.ref_diff[i, : min(n_used, len(self.u_ref))].copy(),
            source_mass=None if self.source_mass is None else self.source_mass[i, kept].copy(),
            square_mass=None if self.square_mass is None else self.square_mass[i, kept].copy(),
            closure_sweeps=None if self.sweeps is None else self.sweeps[i, sl].copy(),
            closure_step=None if self.step is None else self.step[i, sl].copy(),
        )

    def history(self) -> SolutionHistory:
        """The result of a one-row run; raises its ``NumericalAbort``."""
        out = self.outcome(0)
        if isinstance(out, NumericalAbort):
            raise out
        return out


def _close_slice(acc: ConeAccumulator, kern, base: np.ndarray, g: np.ndarray):
    """Close slice n = ``acc.n_pushed`` for the rows of ``base`` (the free
    field on the live window) by fixed-point sweeps in the source rows
    ``g``, which start from the previous slice's sources and are updated in
    place.  A row freezes once its step falls to ``_PICARD_TOL`` relative
    to its source, or once the step grows (closure no longer contracting,
    late blow-up stage); the other rows sweep on.  Returns (u, sweeps,
    last relative step) per row."""
    n_rows = base.shape[0]
    u = np.empty_like(base)
    sweeps = np.zeros(n_rows, dtype=int)
    step = np.zeros(n_rows)
    prev = np.full(n_rows, math.inf)
    live = np.arange(n_rows)
    for sweep in range(_MAX_SLICE_SWEEPS):
        # a plain slice while every row sweeps: no gather copies
        sel = slice(None) if live.size == n_rows else live
        u[sel] = base[sel] + acc.eval_slice(g)[sel]
        g_new = kern.cubic(u[sel])
        delta = np.abs(g_new - g[sel]).max(axis=-1)
        scale = 1.0 + np.abs(g_new).max(axis=-1)
        g[sel] = g_new
        sweeps[sel] = sweep + 1
        step[sel] = delta / scale
        done = delta <= _PICARD_TOL * scale
        if sweep:
            done |= delta > prev[sel]
        if done.all():
            break
        prev[sel] = delta
        if done.any():
            live = live[~done]
    return u, sweeps, step


def march_batch(params: Params, data: list, store_history: bool = True,
                sources_from: int | None = 0) -> list:
    """March the integral equation of one problem for several data rows in
    lockstep.

    ``data`` holds each row's (v0, v1).  Each slice runs one free-field
    slice, one closure (``_close_slice``), one record and one push for all
    rows that still march.  A row leaves the batch when it crosses the stop
    threshold or hits a non-finite value.  With ``store_history`` the
    record keeps the u table and the sources from slice ``sources_from`` on
    (None: none); a lean record keeps those sources' masses and those of
    u^2.  Returns per row its ``SolutionHistory`` (whose ``params`` is
    ``params``) or its ``NumericalAbort``, each equal to a one-row march.
    """
    grid = params.grid
    jr = params.support_cells
    acc = ConeAccumulator(grid, jr)
    kern = cached_kernel(params.gamma, grid)
    rows = np.arange(len(data))
    free = FreeField([d[0] for d in data], [d[1] for d in data], grid)
    rec = _Recorder(params, len(data), "march", store_history, sources_from)

    for n in range(grid.n_t):
        base = free.slice(n, grid.window(n, jr))
        if n == 0:
            u = base
            g = kern.cubic(u)
            sweeps = np.zeros(rows.size, dtype=int)
            step = np.zeros(rows.size)
        else:
            g = np.zeros(base.shape)
            g[:, : g_prev.shape[-1]] = g_prev
            u, sweeps, step = _close_slice(acc, kern, base, g)
        stop = rec.record(n, rows, u, g, sweeps, step)
        if stop.any():
            keep = ~stop
            rows = rows[keep]
            if not rows.size:
                break
            g = g[keep]
            acc.keep_rows(keep)
            free = FreeField([data[i][0] for i in rows], [data[i][1] for i in rows], grid)
        acc.push_slice(g)
        g_prev = g
    return [rec.outcome(i) for i in range(len(data))]


def solve_march(
    params: Params,
    data,
    store_history: bool = True,
    sources_from: int | None = 0,
) -> SolutionHistory:
    """March the integral equation causally on the characteristic grid.

    Each slice is free field + accumulated Duhamel history; the current
    slice enters only through the newest-cell closure and is resolved by a
    few fixed-point sweeps (tolerance ``_PICARD_TOL``).  Marching
    stops early once sup|u| exceeds ``params.blowup_threshold``.  This is
    the one-point batch of ``march_batch``.
    """
    (out,) = march_batch(params, [data], store_history, sources_from)
    if isinstance(out, NumericalAbort):
        raise out
    return out


def solve_dalembert(params: Params, data, u_ref: np.ndarray | None = None) -> SolutionHistory:
    """Independent backend: U = r u solves U_tt - U_rr = r G/(1+t)^2 with
    odd reflection at the axis; exact characteristic stencil at dt = dr.

    Given ``u_ref`` (rows of slices 0, 1, ..., such as a march's u table),
    the history keeps max|u - u_ref[n]| per slice (``ref_diff``) and no u
    table."""
    v0, v1 = data
    grid = params.grid
    jr = params.support_cells
    kern = cached_kernel(params.gamma, grid)
    rec = _Recorder(params, 1, "dalembert", u_ref=u_ref)
    row = np.zeros(1, dtype=int)
    n_r, n_t = grid.n_r, grid.n_t
    h = grid.h
    r = grid.radii()
    damp = 1.0 / (1.0 + np.arange(n_t) * h) ** 2

    def close(n, U_row):
        # slice n from U = r u: zero beyond the cone, divide by r on the
        # window, axis limit; True when the run stops here
        k = grid.window(n, jr)
        U_row[k:] = 0.0
        u = np.empty(k)
        u[1:] = U_row[1:k] / r[1:k]
        u[0] = (4.0 * u[1] - u[2]) / 3.0
        return u, rec.record(n, row, u[None])[0]

    def source(n, u):
        # r G/(1+t)^2 of slice n from its window u, zero past it
        S = np.zeros(n_r)
        S[: u.size] = r[: u.size] * kern.cubic(u) * damp[n]
        return S

    u = v0.samples[: grid.window(0, jr)]
    if rec.record(0, row, u[None])[0] or n_t == 1:
        return rec.history()

    U_prev = r * v0.samples
    psi = lam_prefix((v0 + v1).samples, grid)
    S = source(0, u)
    U_cur = np.zeros(n_r)
    U_cur[1:-1] = (
        0.5 * (U_prev[2:] + U_prev[:-2])
        + 0.5 * (psi[2:] - psi[:-2])
        + 0.5 * h * h * S[1:-1]
    )
    u, stop = close(1, U_cur)
    for n in range(1, n_t - 1):
        if stop:
            break
        S = source(n, u)
        U_next = np.zeros(n_r)
        U_next[1:-1] = U_cur[2:] + U_cur[:-2] - U_prev[1:-1] + h * h * S[1:-1]
        u, stop = close(n + 1, U_next)
        U_prev, U_cur = U_cur, U_next
    return rec.history()


# ---------------------------------------------------------------------------
# Post-processing
# ---------------------------------------------------------------------------


def liouville(hist: SolutionHistory):
    """The rows v_n = u_n/(1+t_n), yielded one at a time: the damping
    substitution inverted slice by slice, with no v table."""
    if hist.u is None:
        raise ValueError("run stored no history")
    return (row / (1.0 + tn) for row, tn in zip(hist.u, hist.t))


def dissipation_monitor(v, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Series t -> (1+t) sup_r (1+t+r)|v| over the rows v_0, v_1, ... of
    ``v`` (such as ``liouville``'s)."""
    r = grid.radii()
    h = grid.h
    vals = []
    for n, row in enumerate(v):
        tn = n * h
        vals.append((1.0 + tn) * float(np.max((1.0 + tn + r) * np.abs(row))))
    return np.arange(len(vals)) * h, np.array(vals)


def scattering_check(hist: SolutionHistory, t_star: float):
    """Weighted distance to the outgoing free wave.

    Builds u_plus by subtracting the remaining Duhamel tail (truncated at
    the end of the run; ``waveops.duhamel_tails``) and returns
    (t, sup_r (1+t+r)|u - u_plus|) for t >= t_star, plus an estimate of the
    neglected tail.  Refuses blown-up runs.
    """
    if hist.blew_up:
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
    for n, tail in duhamel_tails(hist.g, grid, hist.params.support_cells, n_star, hist.g_from):
        t = n * h
        out_t.append(t)
        out_val.append(float(np.max((1.0 + t + r) * np.abs(tail))))
    out_t.reverse()
    out_val.reverse()
    # crude estimate of the neglected tail beyond the run, assuming the
    # source keeps its (1+s)^-(gamma+1) envelope
    supg = float(np.max(np.abs(hist.g[-1])))
    q = 3.0 + hist.params.gamma
    U = 1.0 + M * h
    rem = supg * U ** (hist.params.gamma + 1.0) * (
        U ** (2.0 - q) / (q - 2.0) - (1.0 + t_star) * U ** (1.0 - q) / (q - 1.0)
    ) / 2.0
    return np.array(out_t), np.array(out_val), rem
