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
two prefix-sum lookups, and the time sums regroup into per-diagonal
accumulators: a full causal march costs O(n_t * n_r) total instead of
O(n_t^2 * n_r).  The closure makes L exact for sources that are constant in
lambda and linear in (t - s), e.g. L(1) = t - log(1+t) to roundoff.

Each operator has one fast path and one pointwise reference: ``FreeField``
tabulates the free field that ``kirchhoff_radial``, ``dt_kirchhoff_radial``
and ``free_field`` evaluate point by point, and ``ConeAccumulator`` marches
the Duhamel term that ``duhamel_direct`` sums directly; ``duhamel_tails``
runs the same bookkeeping backward over a finished run.  Both fast paths
take stacks of rows, one per point of a lockstep march, on a window of the
first k nodes, and give each row what a one-row call gives, bit for bit.

What depends only on the grid is tabulated once and read per slice as
contiguous runs: ``lam_prefix`` sums the cells' exact lambda-weighted
integrals with the e = 1 node weights of ``grid.cell_weights``, the one
per-grid table that the mass functional and the closed-form convolution
also read; ``FreeField`` its clamped (min(i + n, n_r - 1)) and reflected
(|i - n|) gather indices, r and 2r; ``ConeAccumulator`` its fold
staircase, lambda row and 2 k h denominators.  The accumulator's runs
need no clamps because a march window ends at kmax <= n + support_cells
(see its docstring).
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Grid, RadialProfile, cell_weights, interp, trapezoid_weighted

__all__ = [
    "kirchhoff_radial",
    "dt_kirchhoff_radial",
    "free_field",
    "FreeField",
    "derivative_profile",
    "TimeWeights",
    "lam_prefix",
    "duhamel_direct",
    "ConeAccumulator",
    "duhamel_tails",
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

    ``v0`` and ``v1`` are profiles, or equal-length sequences of profiles
    for a stack of fields; a slice then has one row per pair.
    """

    def __init__(self, v0, v1, grid: Grid):
        single = isinstance(v0, RadialProfile)
        pairs = [(v0, v1)] if single else list(zip(v0, v1, strict=True))
        if any(a.grid != grid or b.grid != grid for a, b in pairs):
            raise ValueError("data profiles must live on the marching grid")
        self.grid = grid
        tables = []
        for a, b in pairs:
            psum = a + b
            tables.append(
                (lam_prefix(psum.samples, grid), a.samples, derivative_profile(a).samples,
                 psum.samples)
            )
        cols = [np.stack(col) for col in zip(*tables)]
        self._psi, self._v0s, self._dv0, self._sum_s = (c[0] for c in cols) if single else cols
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
        out = np.empty(self._psi.shape[:-1] + (k,))
        w_part = (self._psi.take(hi, axis=-1) - self._psi.take(lo, axis=-1)) / r2
        s0_hi = self._v0s.take(hi, axis=-1)
        s0_lo = self._v0s.take(lo, axis=-1)
        dt_part = ((r + t) * s0_hi + (r - t) * s0_lo) / r2
        out[..., 1:] = dt_part + w_part
        # axis: phi(t) + t phi'(t) + t (v0+v1)(t)
        j = min(n, n_r - 1)
        out[..., 0] = self._v0s[..., j] + t * self._dv0[..., j] + t * self._sum_s[..., j]
        return out


# ---------------------------------------------------------------------------
# Duhamel quadrature pieces
# ---------------------------------------------------------------------------


def lam_prefix(g_row: np.ndarray, grid: Grid) -> np.ndarray:
    """Prefix integrals Phi(j) = int_0^{j h} lam * PL(g_row)(lam) dlam,
    along the last axis, for the samples of the first nodes of ``grid``:
    the running sum of the cells' exact integrals (``grid.cell_weights``)."""
    g_row = np.asarray(g_row, dtype=float)
    n = g_row.shape[-1]
    wl, wr = cell_weights(grid)[1]
    cell = wl[: n - 1] * g_row[..., :-1] + wr[: n - 1] * g_row[..., 1:]
    out = np.empty(g_row.shape)
    out[..., 0] = 0.0
    np.cumsum(cell, axis=-1, out=out[..., 1:])
    return out


class TimeWeights:
    """Closed-form moments of (1+s)^-2 on the time cells.

    ``wl[m]``/``wr[m]`` weight the left/right endpoint of cell
    [t_m, t_{m+1}].  The two closures replace the one cell next to the
    evaluation time, where the inner integral degenerates, by the model
    I(s) ~ 2 r |t-s| * [linear interpolant of G(r, .)]: ``closure(n)``
    returns (J1, J2) multiplying the source slices n-1 and n for the
    forward value at t_n, and ``tail_closure(n)`` returns (J1, J2)
    multiplying the slices n+1 and n for the backward tail at t_n.
    """

    def __init__(self, n_t: int, h: float):
        self.h = h
        m = np.arange(n_t - 1) if n_t > 1 else np.arange(0)
        A = 1.0 + m * h
        B = A + h
        logr = np.log1p(h / A)
        m0 = h / (A * B)
        self.wr = (logr - h / B) / h
        self.wl = m0 - self.wr
        # interior weight of slice m when it is not adjacent to the cap
        self.w_slice = np.empty(n_t)
        if n_t > 1:
            self.w_slice[0] = self.wl[0]
            self.w_slice[1:-1] = self.wr[:-1] + self.wl[1:]
            self.w_slice[-1] = self.wr[-1]
        else:
            self.w_slice[0] = 0.0

    def closure(self, n: int) -> tuple[float, float]:
        h = self.h
        Bc = 1.0 + n * h
        Ac = Bc - h
        lg = math.log1p(h / Ac)
        J1 = Bc / Ac - (2.0 * Bc / h) * lg + 1.0
        K1 = h / Ac - lg
        return J1, K1 - J1

    def tail_closure(self, n: int) -> tuple[float, float]:
        h = self.h
        A1 = 1.0 + n * h
        B1 = A1 + h
        lg = math.log1p(h / A1)
        J1 = 1.0 - (2.0 * A1 / h) * lg + A1 / B1
        return J1, (lg - h / B1) - J1


def _interior_weights(tw: TimeWeights, n: int) -> np.ndarray:
    """Composite weights of slices 0..n-1 for evaluation at slice n, with
    cell n-1 left to the closure: cells 0..n-2 contribute their trapezoid
    endpoint shares only."""
    w = np.zeros(n)
    if n >= 2:
        w[0] = tw.wl[0]
        w[1 : n - 1] += tw.wl[1 : n - 1]
        w[1:n] += tw.wr[: n - 1]
    return w


def duhamel_direct(g_table: np.ndarray, grid: Grid, r: float, t: float) -> float:
    """Reference nested quadrature of (L G)(r, t) over the cone region.

    ``g_table`` rows are source slices (nonlinearity without the 1/(1+s)^2
    factor, which is applied here) up to and including the slice at t; the
    newest cell uses the closure.
    """
    n = grid.index_of_time(t)
    if n + 1 > g_table.shape[0]:
        raise ValueError("source history does not reach the requested time")
    if r < 0.0:
        raise ValueError("r must be >= 0")
    if r + t > grid.r_max + 1e-9:
        raise ValueError("cone exits the grid")
    if n == 0:
        return 0.0
    h = grid.h
    tw = TimeWeights(n + 1, h)
    axis = r < 0.5 * h

    def inner(m: int) -> float:
        row = RadialProfile(grid, g_table[m])
        if axis:
            lam = (n - m) * h
            return lam * interp(row, lam)
        return trapezoid_weighted(row, 1.0, abs(r - (n - m) * h), r + (n - m) * h) / (2.0 * r)

    w = _interior_weights(tw, n)
    total = 0.0
    for m in range(n):
        if w[m] != 0.0:
            total += w[m] * inner(m)
    J1, J2 = tw.closure(n)
    g_prev = interp(RadialProfile(grid, g_table[n - 1]), r if not axis else 0.0)
    g_cur = interp(RadialProfile(grid, g_table[n]), r if not axis else 0.0)
    return total + J1 * g_prev + J2 * g_cur


# ---------------------------------------------------------------------------
# Incremental cone accumulator (the marching hot path)
# ---------------------------------------------------------------------------


class ConeAccumulator:
    """Running per-diagonal sums that turn the causal march into O(1) work
    per node and slice.

    For evaluation at node (k, n) the composite time rule needs

        sum_m w_m [Phi_m(k+n-m) - Phi_m(|k-n+m|)],

    i.e. one antidiagonal sum A(k+n), one diagonal sum B(k-n) and one
    antidiagonal sum A(n-k).  Each finalized slice extends A and B by a
    single vector add; entries that would fall beyond a slice's support are
    folded into a running sum of slice totals (Phi saturates there).
    ``support_cells`` is the source support radius in cells (R/h for the
    nonlinear march).  The axis value needs one more sum, the lambda-moment
    of the slices: by antidiagonal (``Ax``) for the march, by diagonal
    (``Bx``) for the tails; the caller of :meth:`_add` names the one it reads.

    Everything that depends only on (grid, support_cells, n) is read off
    three tables built once: the fold staircase max(0, (x - jr) // 2), the
    number of slices m with x - m > m + jr + 1, whose Phi_m has saturated
    at node x - m (read as a run at x = n + k, reversed at x = n - k); the
    lambda row k h; and the denominators 2 k h.  In a march the window
    ends at kmax <= n + jr, so no fold index passes n, and the previous
    slice's prefix Phi ends at node kmax, where it saturates: only its last
    node clamps.

    Source slices may be stacks (..., k) of rows on one grid: the sums then
    carry the same leading shape, each row summed as a one-row accumulator
    would, and :meth:`keep_rows` drops the rows whose march has ended.

    The march pushes slices 0, 1, ... and reads :meth:`eval_slice`.
    :func:`duhamel_tails` folds the slices of a finished run in from the last
    one down and reads :meth:`_eval_tail`; there the totals in push order
    are the suffix sums over the later slices.
    """

    def __init__(self, grid: Grid, support_cells: int):
        self.grid = grid
        self.jr = int(support_cells)
        grid.check_cone(self.jr)
        self.tw = TimeWeights(grid.n_t, grid.h)
        # sized for the rows of the first pushed slice (see _sums)
        self.A = self.B = self.Ax = self.Bx = self.totals = None
        self.boff = grid.n_t - 1
        self.n_pushed = 0
        self._phi_prev: np.ndarray | None = None
        self._g_prev: np.ndarray | None = None
        # _history(n, kmax) of the slice n = n_pushed being closed
        self._memo: tuple | None = None
        self._stair = np.maximum(0, (np.arange(grid.n_t + grid.n_r) - self.jr) // 2)
        self._lam = grid.radii()
        self._den = 2.0 * np.arange(1, grid.n_r) * grid.h

    def _sums(self, lead: tuple, moment: str) -> None:
        """Allocate the diagonal sums and the named moment sum for source
        rows of leading shape ``lead``."""
        size = lead + (self.grid.n_t + self.grid.n_r,)
        self.A = np.zeros(size)
        self.B = np.zeros(size)
        setattr(self, moment, np.zeros(size))
        # totals[p] = sum of w_m T_m over the first p pushes
        self.totals = np.zeros(lead + (self.grid.n_t + 1,))

    def _add(self, m: int, w: float, g_row: np.ndarray, moment: str) -> None:
        """Fold source slice m with time weight w into the diagonal sums
        and into the moment sum ``moment`` ("Ax" or "Bx"); ``g_row`` may
        stop at any node past the support (zeros follow)."""
        g_row = np.asarray(g_row, dtype=float)
        if self.A is None:
            self._sums(g_row.shape[:-1], moment)
        # samples must vanish strictly beyond index m + jr; the linear ramp
        # of an edge sample still carries mass into the next cell, so the
        # prefix saturates one index later
        L = min(m + self.jr + 1, self.grid.n_r - 1)
        g = g_row[..., : L + 1]
        if g.shape[-1] < L + 1:
            g = np.concatenate([g, np.zeros(g.shape[:-1] + (L + 1 - g.shape[-1],))], axis=-1)
        phi = lam_prefix(g, self.grid)
        wphi = w * phi
        b0 = self.boff - m
        self.A[..., m : m + L + 1] += wphi
        self.B[..., b0 : b0 + L + 1] += wphi
        x0 = m if moment == "Ax" else b0
        getattr(self, moment)[..., x0 : x0 + L + 1] += w * self._lam[: L + 1] * g
        p = self.n_pushed
        self.totals[..., p + 1] = self.totals[..., p] + wphi[..., L]
        self.n_pushed = p + 1
        self._phi_prev = phi
        self._g_prev = g_row
        self._memo = None

    def keep_rows(self, keep: np.ndarray) -> None:
        """Keep only the source rows selected by ``keep`` (an index or mask
        over the leading axis), between a push and the next evaluation."""
        for name in ("A", "B", "Ax", "Bx", "totals", "_phi_prev", "_g_prev"):
            sums = getattr(self, name)
            if sums is not None:  # nothing pushed yet, or the other moment
                setattr(self, name, sums[keep])
        self._memo = None

    def push_slice(self, g_row: np.ndarray) -> None:
        m = self.n_pushed
        self._add(m, self.tw.w_slice[m], g_row, "Ax")

    def eval_slice(self, g_cur: np.ndarray) -> np.ndarray:
        """Duhamel values of slice n = ``n_pushed`` on its live window
        (``Grid.window``), given the current source iterate ``g_cur``
        of that slice.  The part that ``g_cur`` does not enter is computed
        on the first call of a slice and kept until the next push, so each
        further closure sweep costs one vector add."""
        n = self.n_pushed
        kmax = self.grid.window(n, self.jr) - 1
        if n == 0:
            return np.zeros(g_cur.shape[:-1] + (kmax + 1,))
        if self._memo is None:
            self._memo = self._history(n, kmax)
        hist, j1gp, ax, J2 = self._memo
        out = np.empty(g_cur.shape[:-1] + (kmax + 1,))
        out[..., 1:] = hist + (j1gp + J2 * g_cur[..., 1 : kmax + 1])
        out[..., 0] = ax + J2 * g_cur[..., 0]
        return out

    def _history(self, n: int, kmax: int):
        """The part of :meth:`eval_slice` that does not depend on the
        current source: the history term at nodes 1..kmax, the J1 closure
        term of slice n-1 there, the axis value with its J1 term, and J2."""
        # A at n + k, B at boff + k - n and the folds are contiguous runs;
        # the totals are gathered through take, the fast one on row stacks
        fold = self._stair[n + 1 : n + kmax + 1]  # slices with d - m > m + jr + 1
        first = self.A[..., n + 1 : n + kmax + 1] + self.totals.take(fold, axis=-1)
        b0 = self.boff - n
        second = self.B[..., b0 + 1 : b0 + kmax + 1].copy()
        n_low = min(n - 1, kmax)  # the nodes k < n
        if n_low > 0:
            a_low = self.A[..., n - n_low : n][..., ::-1]  # A at n - k
            fold = self._stair[n - n_low : n][::-1]
            second[..., :n_low] += a_low + self.totals.take(fold, axis=-1)

        # Phi of slice n-1 on nodes 0..kmax, saturated past kmax
        phi_prev = self._phi_prev
        i_prev = np.empty(phi_prev.shape[:-1] + (kmax,))
        np.subtract(phi_prev[..., 2:], phi_prev[..., :-2], out=i_prev[..., :-1])
        i_prev[..., -1] = phi_prev[..., -1] - phi_prev[..., -2]
        wl_top = self.tw.wl[n - 1]

        J1, J2 = self.tw.closure(n)
        g_prev = self._g_prev
        gp = np.zeros(g_prev.shape[:-1] + (kmax + 1,))
        gp[..., : min(g_prev.shape[-1], kmax + 1)] = g_prev[..., : kmax + 1]
        hist = (first - second - wl_top * i_prev) / self._den[:kmax]
        ax = self.Ax[..., n] - wl_top * self.grid.h * gp[..., 1]
        return hist, J1 * gp[..., 1:], ax + J1 * gp[..., 0], J2

    def _eval_tail(self, n: int, g_n: np.ndarray) -> np.ndarray:
        """Backward Duhamel tail at every node of slice n, with slices
        M, M-1, ..., n+1 folded in as :func:`duhamel_tails` does; ``g_n`` is
        source slice n."""
        n_r = self.grid.n_r
        boff = self.boff
        p = self.n_pushed  # slices n+1 .. n+p are in
        tot = self.totals

        # B at boff + k - n for k = 1..n_r-1; past k = n + jr + 1 every
        # slice's support lies behind the diagonal, and Phi saturates
        first = self.B[boff - n + 1 : boff - n + n_r].copy()
        first[n + self.jr + 1 :] = tot[p]
        # antidiagonal part (slices n+1..k+n); those with the cone edge past
        # their support fold into the running total sum
        mceil = np.maximum(self._stair[n + 1 : n + n_r], n + 1)
        second = self.A[n + 1 : n + n_r] + (tot[p] - tot[np.maximum(p + n + 1 - mceil, 0)])
        # slices m > k+n contribute Phi_m(m-(k+n)) via the negative diagonal
        later = min(p, n_r - 1)
        second[:later] += self.B[boff - n - later : boff - n][::-1]

        # Phi of slice n+1, saturated past its last node
        phi_next = self._phi_prev
        ext = np.full(n_r + 1, phi_next[-1])
        ext[: phi_next.size] = phi_next
        i_next = ext[2:] - ext[:-2]
        wr_bot = self.tw.wr[n]
        # bottom cell [t_n, t_{n+1}] replaced by the closure
        J1, J2 = self.tw.tail_closure(n)
        g_next = self._g_prev
        tail = np.zeros(n_r)
        tail[1:] = (first - second - wr_bot * i_next) / self._den
        tail[1:] += J1 * g_next[1:] + J2 * g_n[1:]
        ax = self.Bx[boff - n] - wr_bot * self.grid.h * g_next[1]
        tail[0] = ax + J1 * g_next[0] + J2 * g_n[0]
        return tail


def duhamel_tails(g: np.ndarray, grid: Grid, support_cells: int, n_stop: int, g_from: int = 0):
    """Backward Duhamel tails of a finished run whose source slices
    g_from..M are the rows of ``g``: yields (n, tail) for n = M-1 down to
    ``n_stop`` (>= ``g_from``), where ``tail`` is the part of L over the
    times after t_n, up to t_M, at every node of slice n.  The top slice
    carries only the right-endpoint weight of its cell."""
    if n_stop < g_from:
        raise ValueError(f"n_stop = {n_stop} lies before the first source row {g_from}")
    acc = ConeAccumulator(grid, support_cells)
    tw = acc.tw
    M = g_from + len(g) - 1
    for m in range(M, n_stop, -1):
        acc._add(m, tw.wr[m - 1] if m == M else tw.w_slice[m], g[m - g_from], "Bx")
        yield m - 1, acc._eval_tail(m - 1, g[m - 1 - g_from])
