"""Causal solvers for the damped cubic-convolution wave equation in radial
symmetry, plus the run diagnostics built on top of them.

The unknown is the transformed field u (original field times 1+t), which
satisfies the integral equation

    u = u0 + L[(V_gamma * u^2) u],

with u0 the free field of data (v0, v0+v1).  Two independent backends are
provided:

* ``dalembert_batch`` -- rewrites r*u as a 1+1-dimensional wave equation
  with source r*(V*u^2)u/(1+t)^2 and marches it with the exact
  characteristic stencil (dt = dr), one slice convolution per slice;
* ``solve_march``   -- discretizes the integral equation itself: at each
  slice the Duhamel term comes from the cone accumulator, and the newest
  cell is closed by a short fixed-point sweep in the current source slice,
  one slice convolution per sweep.

A ``Params`` is one problem (gamma, R, grid, stop threshold); the data
(v0, v1), which carry the amplitude epsilon, are its rows.  The stencil is
the production backend: it marches the rows of one problem in lockstep as
one stack, each slice on its live window; every row equals its one-row run
bit for bit, and ``solve_dalembert`` is the batch of one.  Sweeps, solve
mode and blow-up mode march on it.  The march is one row and the
independent reference: solve mode's backend check and the one-point
lifespan that a sweep is held to run on it.

Both backends compute u of slice n on its window (``Grid.window``), so
they write zeros past node n + jr by construction (finite propagation
speed).  Both hand each finished window to one recorder, which keeps the
same per-slice values for every row (weighted norm by
``norms.slice_x_norm``, dissipation weight, mass functional by
``grid.mass`` over the window's cells, sup), so they can be cross-validated
slice by slice.  A stencil run keeps its u table or none (lean), and its
sources G from a chosen slice on (a stored run their table, a lean run the
masses of G and of u^2).  A march keeps its u table, none, or, given a
reference table, only its per-slice distance to it, and adds each slice's
closure sweeps and last relative step.  Each row's result is one
``SolutionHistory``: it holds the per-slice series and reads the blow-up
facts (threshold crossings, lifespan) off its sup series.  Both always
march the cubic equation; the march's linear field is the
``waveops.FreeField`` table.  A stored run is post-processed by
``liouville`` (the rows v_n = u_n/(1+t_n), one at a time), which
``dissipation_monitor`` reads, and a stored stencil run with its sources by
``scattering_check`` (distance to the outgoing free wave, by the stencil
run backward).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, RadialProfile, mass
from .norms import WeightParams, slice_x_norm
from .potential import cached_kernel
from .waveops import ConeAccumulator, FreeField, lam_prefix

__all__ = [
    "NumericalAbort",
    "Params",
    "SolutionHistory",
    "DATA_FAMILIES",
    "make_data",
    "solve_march",
    "dalembert_batch",
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
    ``n_used - 1``, u table (None unless stored), the stencil's sources
    from slice ``g_from`` on (table ``g`` or lean masses, or None) and the
    march's closure record.  The blow-up facts are read off ``sup_u``: a run stops
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
    # a march given a reference u table: max|u - u_ref[n]| per slice n,
    # for the slices of both runs
    ref_diff: np.ndarray | None = None
    # a lean stencil run, per slice from g_from on: the masses of G and of u^2
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
    batch.  Each finished slice goes through ``finite``, which keeps a
    ``NumericalAbort`` for each row with a non-finite value, and then its
    finite rows through ``record``, which stores the rows (with
    ``store_history``) and that slice's own values, and reports the rows
    that stop: a row stops when its sup|u| exceeds the stop threshold.
    ``outcome`` builds each row's result, with the running max of the
    weighted norm.

    A stencil keeps its sources from slice ``sources_from`` on (None:
    none), with ``store_history`` as a table, else as the masses of G and
    of u^2.  Given a reference table ``u_ref``, the record keeps each
    slice's max|u - u_ref[n]| instead of storing u."""

    def __init__(self, params: Params, n_rows: int, backend: str, store_history: bool = True,
                 sources_from: int | None = None, u_ref: np.ndarray | None = None):
        grid = params.grid
        self.params = params
        self.backend = backend
        self.r = grid.radii()
        self.wp = params.weights()
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
        if sources_from is not None:
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

    def finite(self, n, rows, u) -> np.ndarray:
        """The mask of the batch ``rows`` whose samples ``u`` of slice n
        (len(rows), k), a lone row's as a 1-D row, are all finite; each
        other row stops with a ``NumericalAbort``."""
        ok = np.isfinite(u.reshape(len(rows), -1)).all(axis=-1)
        for i in rows[~ok]:
            self.aborts[i] = NumericalAbort(n, self.backend)
        return ok

    def record(self, n, rows, u, g=None, sweeps=None, step=None) -> np.ndarray:
        """Record slice n of the finite batch ``rows``: ``u`` holds their
        samples (len(rows), k) on the first k nodes, zero past them, a lone
        row's as a 1-D row, and ``g`` their sources on the same nodes where
        they are kept; a march (one row) adds its closure ``sweeps`` and
        last relative ``step``.  Returns the mask of the rows that stop at
        this slice."""
        u = u.reshape(len(rows), -1)
        k = u.shape[-1]
        if rows[-1] - rows[0] + 1 == rows.size:
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
        t = n * self.grid.h
        r = self.r[:k]
        au = np.abs(u)
        sup = au.max(axis=-1)
        self.sup_u[rows, n] = sup
        self.x_norm[rows, n] = slice_x_norm(self.wp, r, t, u)
        self.dissip[rows, n] = ((1.0 + t + r) * au).max(axis=-1) / (1.0 + t)
        self.mass[rows, n] = mass(u, self.grid)
        self.n_used[rows] = n + 1
        return sup > self.params.blowup_threshold

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
    """Close slice n = ``acc.n_pushed`` of a march from ``base`` (the free
    field on the live window) by fixed-point sweeps in its source row,
    starting from ``g`` (the previous slice's sources on the window).  The
    sweeps stop once the step falls to ``_PICARD_TOL`` relative to the
    source, or once it grows (closure no longer contracting, late blow-up
    stage).  Returns (u, sources, sweeps, last relative step)."""
    prev = math.inf
    for sweep in range(1, _MAX_SLICE_SWEEPS + 1):
        u = base + acc.eval_slice(g)
        g_new = kern.cubic(u)
        delta = float(np.abs(g_new - g).max())
        scale = 1.0 + float(np.abs(g_new).max())
        g = g_new
        if delta <= _PICARD_TOL * scale or (sweep > 1 and delta > prev):
            break
        prev = delta
    return u, g, sweep, delta / scale


def solve_march(
    params: Params,
    data,
    store_history: bool = True,
    u_ref: np.ndarray | None = None,
) -> SolutionHistory:
    """March the integral equation causally on the characteristic grid.

    Each slice is free field + accumulated Duhamel history on its live
    window; the current slice enters only through the newest-cell closure
    and is resolved by a few fixed-point sweeps (``_close_slice``, one slice
    convolution each).  Marching stops early once sup|u| exceeds
    ``params.blowup_threshold``.  With ``store_history`` the record keeps
    the u table; given ``u_ref`` (rows of slices 0, 1, ..., such as a
    stencil's u table) it keeps max|u - u_ref[n]| per slice (``ref_diff``)
    instead.
    """
    v0, v1 = data
    grid = params.grid
    jr = params.support_cells
    acc = ConeAccumulator(grid, jr)
    kern = cached_kernel(params.gamma, grid)
    free = FreeField(v0, v1, grid)
    rec = _Recorder(params, 1, "march", store_history, u_ref=u_ref)
    row = np.zeros(1, dtype=int)

    for n in range(grid.n_t):
        base = free.slice(n, grid.window(n, jr))
        if n == 0:
            u, g, sweeps, step = base, kern.cubic(base), 0, 0.0
        else:
            g = np.zeros(base.shape)
            g[: g_prev.size] = g_prev
            u, g, sweeps, step = _close_slice(acc, kern, base, g)
        if not rec.finite(n, row, u)[0] or rec.record(n, row, u, sweeps=sweeps, step=step)[0]:
            break
        acc.push_slice(g)
        g_prev = g
    return rec.history()


def _axis_value(u1, u2):
    """u at the axis from nodes 1 and 2: the even extrapolation
    (4 u_1 - u_2)/3, or 0 where it takes another sign than u_1.  Where the
    data's trailing edge leaves the axis (u_2 > 4 u_1 >= 0) the
    extrapolation undershoots by O(h^2), and u is >= 0 there."""
    x = (4.0 * u1 - u2) / 3.0
    return np.where(np.sign(x) == np.sign(u1), x, 0.0)


def dalembert_batch(params: Params, data: list, store_history: bool = True,
                    sources_from: int | None = None) -> list:
    """The production backend, for several data rows of one problem in
    lockstep: U = r u solves U_tt - U_rr = r G/(1+t)^2 with odd reflection
    at the axis, by the exact characteristic stencil at dt = dr,

        U_{n+1}(k) = U_n(k+1) + U_n(k-1) - U_{n-1}(k) + h^2 S_n(k),

    S_n = r G_n/(1+t_n)^2, one slice convolution per slice.

    ``data`` holds each row's (v0, v1).  The rows march as one stack (a
    single row as a 1-D row), each slice on its live window in three
    rotating U buffers; u of slice n is U/r there, with the axis value
    of ``_axis_value``.  A row leaves the batch when it crosses the stop
    threshold or hits a non-finite value, and no slice convolution runs on
    a non-finite row.  With ``store_history`` the record keeps the u table.
    From slice ``sources_from`` on (None: none) it keeps the sources G_n:
    with ``store_history`` as a table (``g``, which ``scattering_check``
    reads), else as the per-slice masses of G and of u^2 (``source_mass``,
    ``square_mass``, which ``blowup.mass_diagnostics`` reads).  Returns per
    row its ``SolutionHistory`` or its ``NumericalAbort``, each equal to a
    one-row batch.
    """
    grid = params.grid
    jr = params.support_cells
    kern = cached_kernel(params.gamma, grid)
    rec = _Recorder(params, len(data), "dalembert", store_history, sources_from)
    rows = np.arange(len(data))
    n_t, n_r, h = grid.n_t, grid.n_r, grid.h
    r = grid.radii()
    damp = 1.0 / (1.0 + np.arange(n_t) * h) ** 2

    def stack(profiles):
        # a lone row stays 1-D: the closed-form cubic costs more on a stack
        return profiles[0].samples if len(data) == 1 else np.stack([p.samples for p in profiles])

    v0 = stack([d[0] for d in data])
    U_prev, U_cur, U_next = np.zeros(v0.shape), r * v0, np.zeros(v0.shape)
    S = np.zeros(v0.shape)  # S_n on its window, zeros past it
    # the prefix integrals of lam (v0 + v1) that the first step reads
    psi = lam_prefix(stack([d[0] + d[1] for d in data])[..., : grid.window(1, jr) + 1], grid)
    u = v0[..., : grid.window(0, jr)]

    def drop(keep, G=None):
        # the rows of the batch leave where keep is False; returns G's rows kept
        nonlocal rows, u, U_prev, U_cur, U_next, S, psi
        rows, u, U_prev, U_cur, U_next, S, psi = (
            a[keep] for a in (rows, u, U_prev, U_cur, U_next, S, psi)
        )
        return None if G is None else G[keep]

    for n in range(n_t):
        ok = rec.finite(n, rows, u)
        if not ok.all():
            if not ok.any():
                break
            drop(ok)
        G = kern.cubic(u) if sources_from is not None and n >= sources_from else None
        stop = rec.record(n, rows, u, G)
        if stop.any():
            if stop.all():
                break
            G = drop(~stop, G)
        if n == n_t - 1:
            break
        k = u.shape[-1]
        S[..., :k] = r[:k] * (kern.cubic(u) if G is None else G) * damp[n]
        # U_{n+1} on nodes 1..m-1: zero at the axis, past the window and on
        # the grid edge
        m = min(grid.window(n + 1, jr), n_r - 1)
        out = U_next[..., 1:m]
        if n == 0:
            out[...] = (
                0.5 * (U_cur[..., 2 : m + 1] + U_cur[..., : m - 1])
                + 0.5 * (psi[..., 2 : m + 1] - psi[..., : m - 1])
                + 0.5 * h * h * S[..., 1:m]
            )
        else:
            np.add(U_cur[..., 2 : m + 1], U_cur[..., : m - 1], out=out)
            out -= U_prev[..., 1:m]
            out += h * h * S[..., 1:m]
        U_prev, U_cur, U_next = U_cur, U_next, U_prev
        k = grid.window(n + 1, jr)
        u = np.empty(U_cur.shape[:-1] + (k,))
        u[..., 1:] = U_cur[..., 1:k] / r[1:k]
        u[..., 0] = _axis_value(u[..., 1], u[..., 2])
    return [rec.outcome(i) for i in range(len(data))]


def solve_dalembert(params: Params, data, store_history: bool = True,
                    sources_from: int | None = None) -> SolutionHistory:
    """The d'Alembert stencil for one data row: the batch of one of
    ``dalembert_batch``, with its options."""
    (out,) = dalembert_batch(params, [data], store_history, sources_from)
    if isinstance(out, NumericalAbort):
        raise out
    return out


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
    """Weighted distance to the outgoing free wave of a stored stencil run
    that keeps its sources from t_star on (``solve_dalembert`` with
    ``sources_from``).

    The outgoing wave u_plus is the source-free stencil run that matches u
    at the last two slices M - 1 and M.  So D = r (u - u_plus) runs the
    stencil backward over the kept sources S_n = r G_n/(1+t_n)^2, from
    D_M = D_{M-1} = 0:

        D_{n-1}(k) = D_n(k+1) + D_n(k-1) - D_{n+1}(k) + h^2 S_n(k),

    with D_n(0) = 0.  Its backward domain of dependence passes the grid
    edge, so D_n runs on the nodes up to n_r - 1 + (M - n), past which it
    vanishes.  u - u_plus is D/r, with the even extrapolation
    (4 d_1 - d_2)/3 at the axis: D has no sign to keep.  Returns
    (t, sup_r (1+t+r)|u - u_plus|) for t_star <= t <= t_{M-2} (at M - 1
    and M the distance is 0 by construction), plus an estimate of the tail
    neglected beyond the run.
    Refuses runs that blew up, gamma <= 0, a run without those sources,
    and a t_star less than two slices before the end.
    """
    if hist.blew_up:
        raise ValueError("scattering_check refuses runs that blew up")
    if hist.g is None:
        raise ValueError("scattering_check needs a stored stencil run that keeps its sources "
                         "(solve_dalembert with sources_from)")
    if hist.params.gamma <= 0.0:
        raise ValueError("scattering diagnostics need gamma > 0")
    grid = hist.grid
    h, n_r = grid.h, grid.n_r
    n_star = grid.index_of_time(t_star)
    M = hist.n_used - 1
    if n_star > M - 2:
        raise ValueError("t_star must leave two slices before the end of the run")
    if n_star < hist.g_from:
        raise ValueError(f"t_star lies before the first kept source, slice {hist.g_from}")
    r = grid.radii()
    d_next, d_cur = np.zeros((2, n_r + M - n_star + 1))  # D_{n+1}, D_n
    d = np.empty(n_r)
    ts = np.arange(n_star, M - 1) * h
    vals = np.empty(ts.size)
    for n in range(M - 1, n_star, -1):
        # D_{n-1} on nodes 1..m, written over D_{n+1}
        m = n_r + M - n
        out = d_next[1 : m + 1]
        np.subtract(d_cur[2 : m + 2], out, out=out)
        out += d_cur[:m]
        out[: n_r - 1] += h * h * (r[1:] * hist.g[n - hist.g_from, 1:] / (1.0 + n * h) ** 2)
        d_next, d_cur = d_cur, d_next
        d[1:] = d_cur[1:n_r] / r[1:]
        d[0] = (4.0 * d[1] - d[2]) / 3.0
        vals[n - 1 - n_star] = np.max((1.0 + ts[n - 1 - n_star] + r) * np.abs(d))
    # crude estimate of the neglected tail beyond the run, assuming the
    # source keeps its (1+s)^-(gamma+1) envelope
    supg = float(np.max(np.abs(hist.g[-1])))
    q = 3.0 + hist.params.gamma
    U = 1.0 + M * h
    rem = supg * U ** (hist.params.gamma + 1.0) * (
        U ** (2.0 - q) / (q - 2.0) - (1.0 + t_star) * U ** (1.0 - q) / (q - 1.0)
    ) / 2.0
    return ts, vals, rem
