"""Free-wave solution operator, its time derivative, and the damped Duhamel
integral, all in radial reduction.

For radial phi the spherical mean collapses to a line integral,

    W(phi | r, t) = (1/2r) int_{|r-t|}^{r+t} lam phi(lam) dlam,

with the axis limit t*phi(t).  The Duhamel term of the damped problem is

    (L G)(r, t) = int_0^t (1/2r) int_{|r-(t-s)|}^{r+(t-s)} lam G(lam, s)
                   / (1+s)^2  dlam ds.

Quadrature: the inner integral is the exact lambda-weighted trapezoid of the
piecewise-linear slice; the outer integral uses the closed-form moments of
(1+s)^-2 against the piecewise-linear inner values, plus a short-time
closure on the newest cell where the inner integral degenerates.  With
dt = dr every cone edge sits on grid nodes, so inner integrals differ by
two prefix-sum lookups, and 2 r times the sum over the earlier slices obeys
the discrete d'Alembert identity of an undamped 1+1-D wave (after
u = (1+t) v the damped problem is one): each slice is one leapfrog step
from the two before it plus the terms of the three newest source slices,
so a full causal march costs O(n_t * n_r) total instead of
O(n_t^2 * n_r).  The closure makes L exact for sources that are constant in
lambda and linear in (t - s), e.g. L(1) = t - log(1+t) to roundoff.

``FreeField`` tabulates the free field that ``kirchhoff_radial``,
``dt_kirchhoff_radial`` and ``free_field`` evaluate point by point.
``ConeAccumulator`` marches the Duhamel term for the reference march
(``solver.solve_march``) and for ``verify.verify_trilinear``; its
reference, a direct long-double sum of the same quadrature, lives with the
tests (``tests/oracles.py::duhamel_sum_ld``).  It takes one source row, on
a window of the first k nodes; the production backend, the d'Alembert
stencil (``solver.dalembert_batch``), marches stacks of rows and takes
``lam_prefix`` of a stack in its first step.

The cells' exact lambda-weighted integrals are ``grid.cell_integrals`` at
e = 1, the sum that the mass functional and the closed-form convolution
also take: ``lam_prefix`` sums them, and the cone steps add the two next
to each node.  ``FreeField`` tabulates its clamped (min(i + n, n_r - 1))
and reflected (|i - n|) gather indices, r and 2r once per field.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Grid, RadialProfile, cell_integrals, interp, trapezoid_weighted

__all__ = [
    "kirchhoff_radial",
    "dt_kirchhoff_radial",
    "free_field",
    "FreeField",
    "derivative_profile",
    "TimeWeights",
    "lam_prefix",
    "ConeAccumulator",
]


# ---------------------------------------------------------------------------
# Free field
# ---------------------------------------------------------------------------


def kirchhoff_radial(phi: RadialProfile, r: float, t: float) -> float:
    """W(phi | r, t); requires r + t <= r_max so the cone stays on the grid."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if r < 0.0:
        raise ValueError(f"r must be >= 0, got {r}")
    if r + t > phi.grid.r_max + 1e-9 * max(1.0, phi.grid.r_max):
        raise ValueError(f"integration interval [{abs(r-t)}, {r+t}] exits the grid")
    if t == 0.0:
        return 0.0
    if r < 0.5 * phi.h:
        return t * interp(phi, t)
    return trapezoid_weighted(phi, 1.0, abs(r - t), r + t) / (2.0 * r)


def derivative_profile(phi: RadialProfile) -> RadialProfile:
    """Centered-difference radial derivative; even extension at the axis."""
    s = phi.samples
    h = phi.h
    d = np.empty_like(s)
    d[1:-1] = (s[2:] - s[:-2]) / (2.0 * h)
    d[0] = 0.0
    d[-1] = (s[-1] - s[-2]) / h
    return RadialProfile(phi.grid, d)


def dt_kirchhoff_radial(phi: RadialProfile, r: float, t: float) -> float:
    """d/dt of W(phi | r, t) in radial form:
    [ (r+t) phi(r+t) + (r-t) phi(|r-t|) ] / (2r), axis limit
    phi(t) + t phi'(t)."""
    if t < 0.0 or r < 0.0:
        raise ValueError("r and t must be >= 0")
    if r + t > phi.grid.r_max + 1e-9 * max(1.0, phi.grid.r_max):
        raise ValueError(f"evaluation point r+t={r+t} exits the grid")
    if r < 0.5 * phi.h:
        dphi = derivative_profile(phi)
        return interp(phi, t) + t * interp(dphi, t)
    return ((r + t) * interp(phi, r + t) + (r - t) * interp(phi, abs(r - t))) / (2.0 * r)


def free_field(v0: RadialProfile, v1: RadialProfile, r: float, t: float) -> float:
    """u0(r, t) = d/dt W(v0) + W(v0 + v1) for data (v0, v1)."""
    return dt_kirchhoff_radial(v0, r, t) + kirchhoff_radial(v0 + v1, r, t)


class FreeField:
    """Vectorized per-slice free field on a grid.

    Precomputes the prefix integral of lam*(v0+v1) and the samples needed by
    the time-derivative term; each slice is then O(n_r) gathers.  Values are
    exactly zero outside the shell t - R <= r <= t + R because both prefix
    lookups saturate at the same total.

    The gather indices of slice n at nodes i >= 1 are the clamped
    min(i + n, n_r - 1) and the reflected |i - n|; both are runs of two
    tables built once per field, as are r and 2r.
    """

    def __init__(self, v0: RadialProfile, v1: RadialProfile, grid: Grid):
        if v0.grid != grid or v1.grid != grid:
            raise ValueError("data profiles must live on the marching grid")
        self.grid = grid
        psum = v0 + v1
        self._psi = lam_prefix(psum.samples, grid)
        self._v0s = v0.samples
        self._dv0 = derivative_profile(v0).samples
        self._sum_s = psum.samples
        n_t, n_r = grid.n_t, grid.n_r
        self._clamp = np.minimum(np.arange(n_t + n_r), n_r - 1)  # at i + n
        self._reflect = np.abs(np.arange(-n_t, n_r))  # at i - n + n_t
        self._r = grid.radii()
        self._2r = 2.0 * self._r

    def slice(self, n: int, k: int | None = None) -> np.ndarray:
        """Slice n (0 <= n < n_t) at the first ``k`` nodes (all of them by
        default)."""
        grid = self.grid
        n_r, n_t = grid.n_r, grid.n_t
        if not 0 <= n < n_t:
            raise ValueError(f"slice {n} lies outside 0..{n_t - 1}")
        k = n_r if k is None else k
        t = n * grid.h
        hi = self._clamp[n + 1 : n + k]
        lo = self._reflect[n_t - n + 1 : n_t - n + k]
        r = self._r[1:k]
        r2 = self._2r[1:k]
        out = np.empty(k)
        w_part = (self._psi.take(hi) - self._psi.take(lo)) / r2
        dt_part = ((r + t) * self._v0s.take(hi) + (r - t) * self._v0s.take(lo)) / r2
        out[1:] = dt_part + w_part
        # axis: phi(t) + t phi'(t) + t (v0+v1)(t)
        j = min(n, n_r - 1)
        out[0] = self._v0s[j] + t * self._dv0[j] + t * self._sum_s[j]
        return out


# ---------------------------------------------------------------------------
# Duhamel quadrature pieces
# ---------------------------------------------------------------------------


def lam_prefix(g_row: np.ndarray, grid: Grid) -> np.ndarray:
    """Prefix integrals Phi(j) = int_0^{j h} lam * PL(g_row)(lam) dlam,
    along the last axis, for the samples of the first nodes of ``grid``:
    the running sum of the cells' exact integrals (``grid.cell_integrals``)."""
    g_row = np.asarray(g_row, dtype=float)
    out = np.empty(g_row.shape)
    out[..., 0] = 0.0
    np.cumsum(cell_integrals(g_row, grid, 1, g_row.shape[-1] - 1), axis=-1, out=out[..., 1:])
    return out


class TimeWeights:
    """Closed-form moments of (1+s)^-2 on the time cells.

    ``wl[m]``/``wr[m]`` weight the left/right endpoint of cell
    [t_m, t_{m+1}].  The closure replaces the one cell next to the
    evaluation time, where the inner integral degenerates, by the model
    I(s) ~ 2 r |t-s| * [linear interpolant of G(r, .)]: ``closure(n)``
    returns (J1, J2) multiplying the source slices n-1 and n for the
    value at t_n.
    """

    def __init__(self, n_t: int, h: float):
        self.h = h
        m = np.arange(n_t - 1)
        A = 1.0 + m * h
        B = A + h
        logr = np.log1p(h / A)
        m0 = h / (A * B)
        self.wr = (logr - h / B) / h
        self.wl = m0 - self.wr
        # interior weight of slice m when it is not adjacent to the cap
        self.w_slice = np.zeros(n_t)
        self.w_slice[:-1] += self.wl
        self.w_slice[1:] += self.wr

    def closure(self, n: int) -> tuple[float, float]:
        h = self.h
        Bc = 1.0 + n * h
        Ac = Bc - h
        lg = math.log1p(h / Ac)
        J1 = Bc / Ac - (2.0 * Bc / h) * lg + 1.0
        K1 = h / Ac - lg
        return J1, K1 - J1


# ---------------------------------------------------------------------------
# Incremental cone accumulator (the marching hot path)
# ---------------------------------------------------------------------------


def _at(a: np.ndarray, i: int) -> float:
    """a[i], or 0.0 for an index outside ``a``: the weight of a dropped term."""
    return float(a[i]) if 0 <= i < a.size else 0.0


def _pair_sums(g_row: np.ndarray, c: int, grid: Grid):
    """F(k) = Phi(k+1) - Phi(k-1) at nodes 0..n_r for one source slice,
    with Phi its prefix (``lam_prefix``) saturated past node ``c``: the sum
    of the exact lambda-weighted integrals of the two cells next to k,
    F(0) = 0 and zeros past c.  Returns (the samples of nodes 0..c, zero
    padded, F)."""
    g = np.asarray(g_row, dtype=float)[: c + 1]
    if g.size < c + 1:
        g = np.concatenate([g, np.zeros(c + 1 - g.size)])
    cells = cell_integrals(g, grid, 1, c)
    f = np.zeros(grid.n_r + 1)
    f[1 : c + 1] = cells
    f[1:c] += cells[1:]
    return g, f


def _leapfrog(y, y_prev, f, w, k: int) -> None:
    """One step of the discrete d'Alembert recurrence on nodes 1..k,
    written over ``y_prev``:

        y_prev(j) <- y(j+1) + y(j-1) - y_prev(j) - w0 f0(j)
                     + w1 (f1(j+1) + f1(j-1)) + w2 f2(j)

    for f = (f0, f1, f2) and w = (w0, w1, w2).  Every array vanishes at
    node 0 and holds node k + 1."""
    (f0, f1, f2), (w0, w1, w2) = f, w
    out = y_prev[1 : k + 1]
    np.subtract(y[2 : k + 2], out, out=out)
    out += y[:k]
    out -= w0 * f0[1 : k + 1]
    out += w1 * (f1[2 : k + 2] + f1[:k])
    out += w2 * f2[1 : k + 1]


class ConeAccumulator:
    """The causal march's Duhamel term by its characteristic recurrence.

    After u = (1+t) v the damped problem is an undamped wave equation, and
    the cone quadrature inherits the discrete d'Alembert identity: the
    history part of slice n at node k >= 1 is Y_n(k) / (2 k h), with

        Y_n(k) = sum_m c_m [Phi_m(k+n-m) - Phi_m(|k-n+m|)],

    c_m the endpoint weights at slice m of the time cells 0..n-2 (the
    newest cell is left to the closure (J1, J2)).  Pushing source slice m
    advances it by one step of ``_leapfrog``,

        Y_{m+1}(k) = Y_m(k+1) + Y_m(k-1) - Y_{m-1}(k) - wl[m-2] F_{m-2}(k)
                     + wl[m-1] (F_{m-1}(k+1) + F_{m-1}(k-1)) + wr[m-1] F_m(k),

    where F_m(k) = Phi_m(k+1) - Phi_m(k-1), wl and wr are the
    ``TimeWeights`` of the cells, a term with a negative index is dropped,
    Y_0 = Y_1 = 0 and Y_n(0) = 0.  The state is Y_n, Y_{n-1}, the F of
    the last two slices, the lambda-moment antidiagonal that gives the axis
    value, and the history of slice n with the J1 term of the previous
    source, so each closure sweep of :meth:`eval_slice` costs one vector
    add.
    ``support_cells`` is the source support radius in cells (R/h for the
    nonlinear march); the recurrence runs on the live window
    (``Grid.window``), past which Y_n vanishes.

    The march pushes slices 0, 1, ... and reads :meth:`eval_slice`.
    """

    def __init__(self, grid: Grid, support_cells: int):
        self.grid = grid
        self.jr = int(support_cells)
        grid.check_cone(self.jr)
        self.tw = TimeWeights(grid.n_t, grid.h)
        self.n_pushed = 0
        self._y, self._y_prev, self._f1, self._f2 = (np.zeros(grid.n_r + 1) for _ in range(4))
        self._ax = np.zeros(grid.n_t + grid.n_r)
        self._base: np.ndarray | None = None  # slice n_pushed but its J2 term
        self._J2 = 0.0
        self._lam = grid.radii()
        self._den = 2.0 * np.arange(1, grid.n_r) * grid.h

    def push_slice(self, g_row: np.ndarray) -> None:
        """Push source slice m = ``n_pushed``; ``g_row`` may stop at any
        node past the support (zeros follow)."""
        grid, tw, m = self.grid, self.tw, self.n_pushed
        k = grid.window(m + 1, self.jr) - 1  # F_m's last node too
        g, f = _pair_sums(g_row, k, grid)
        weights = (_at(tw.wl, m - 2), _at(tw.wl, m - 1), _at(tw.wr, m - 1))
        _leapfrog(self._y, self._y_prev, (self._f2, self._f1, f), weights, k)
        self._y, self._y_prev = self._y_prev, self._y
        self._f2, self._f1 = self._f1, f
        self._ax[m : m + k + 1] += tw.w_slice[m] * self._lam[: k + 1] * g
        self.n_pushed = n = m + 1
        J1, self._J2 = tw.closure(n)
        base = np.empty(k + 1)
        base[1:] = self._y[1 : k + 1] / self._den[:k] + J1 * g[1:]
        base[0] = self._ax[n] - _at(tw.wl, m) * grid.h * g[1] + J1 * g[0]
        self._base = base

    def eval_slice(self, g_cur: np.ndarray) -> np.ndarray:
        """Duhamel values of slice n = ``n_pushed`` on its live window
        (``Grid.window``), given the current source iterate ``g_cur``
        of that slice."""
        k = self.grid.window(self.n_pushed, self.jr)
        if self._base is None:
            return np.zeros(k)
        return self._base + self._J2 * g_cur[:k]
