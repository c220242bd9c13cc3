"""Radial convolution with the power potential |x|**(-gamma), gamma in (-1/2, 3).

For radial w the 3D convolution collapses to a 1D shell kernel

    (V*w)(r) = int_0^inf k(r, rho) w(rho) drho,
    k(r, rho) = (2 pi rho / r) * [(r+rho)**(2-g) - |r-rho|**(2-g)] / (2-g),

with the log branch at g = 2 and the limit kernel 4 pi rho**(2-g) on the
axis.  All quadrature integrates the kernel powers in closed form against
the piecewise-linear profile, cell by cell over the ``support_cells`` cells
of its support (``grid.RadialProfile``), so the |r-rho| singularity needs
no special casing and pure power-law data come out exact.

Two evaluation paths share that quadrature:

* ``convolve_power`` -- single target radius, the reference that the tests
  and perfbench's accuracy check hold the slice path to;
* ``ConvolutionKernel.apply`` -- the first ``n_out`` grid nodes at once.
  The cell moments depend only on the index sum i+j (Hankel part) and
  difference i-j (Toeplitz parts), so a slice costs one FFT correlation
  (``numpy.fft``'s real transforms) instead of an O(n^2) double loop.  Its
  length L is taken from the ladder {2^a, 3 * 2^a}, about 3 n_out in a
  march, with P on the lower two thirds of the buffer and Q reflected onto
  the top third; one kernel spectrum is cached per length.  At gamma = 0
  and 1 exactly, where d = 2 - gamma is a positive integer and the shell
  kernel a polynomial on each side of rho = r, ``apply`` takes the closed
  form instead, in O(n_out) and with no FFT tables:

      gamma = 0:  (V*w)(r) = 4 pi int rho^2 w,
      gamma = 1:  (V*w)(r) = (4 pi / r) int_0^r rho^2 w + 4 pi int_r^b rho w,

  two running sums of the cells' exact integrals of rho^e PL(w)
  (``grid.cell_integrals``).
  ``ConvolutionKernel.cubic`` gives the source term (V*u^2) u on a window
  of the first k nodes, which is the support of u: a march slice's live
  window.  It takes a stack of rows at once (one transform call; each row
  bitwise equal to a one-row call).

Both paths take the z-moments of the kernel factor z**(2-g) (log z at
g = 2) from one routine, ``_zmom``, in long double, as differences of one
antiderivative value per cell edge.  The slice tables turn them into
unit-cell moments with ``_xi_moments``; the Hankel and Toeplitz tables
read the moments of the same integer edges.
``convolve_power`` shares only ``_zmom``: it integrates each cell at the
target in its own rho-polynomial form, split at rho = r, and so stays the
independent reference the fast path is tested against.  The axis value of
``apply`` (the limit kernel 4 pi rho**(2-g)) is a dot product with the
exact node weights of ``grid.cell_weights`` at e = 2 - g.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .grid import RadialProfile, cell_integrals, cell_weights, trapezoid_weighted

__all__ = [
    "is_log_branch",
    "convolve_power",
    "ConvolutionKernel",
    "cached_kernel",
    "convolve_profile",
]

GAMMA_LOW = -0.5
GAMMA_HIGH = 3.0


def _check_gamma(gamma: float) -> None:
    if not (GAMMA_LOW < gamma < GAMMA_HIGH):
        raise ValueError(f"gamma must lie in ({GAMMA_LOW}, {GAMMA_HIGH}), got {gamma}")


def is_log_branch(gamma: float) -> bool:
    """gamma = 2 up to roundoff: the log kernel, the log weight N_2 and the
    gamma = 2 proof branch of the estimates."""
    return abs(gamma - 2.0) < 1e-9


def _zmom(gamma: float, z: np.ndarray):
    """z-moments (M_0, M_1, M_2), M_k = int z**k K(z) dz, of the kernel
    factor K(z) = z**(2-gamma) (log z at gamma = 2) over each cell between
    consecutive entries of the monotone long-double edges ``z >= 0`` (last
    axis): each edge's antiderivative is taken once and differenced, so a
    decreasing run of edges gives negated moments.  On the power branch
    these are differences of powers, which long double carries through the
    cancellation of the combinations built on them."""
    if is_log_branch(gamma):

        def anti(k):
            out = np.zeros_like(z)
            pos = z > 0
            zp = z[pos]
            p = z.dtype.type(k + 1)
            out[pos] = zp**p * (np.log(zp) / p - 1 / p**2)
            return out

        return tuple(np.diff(anti(k), axis=-1) for k in range(3))
    d = np.longdouble(2.0 - gamma)
    return tuple(np.diff(z**p, axis=-1) / p for p in [d + k + 1 for k in range(3)])


def _xi_moments(moms, base, sign: int):
    """(T_0, T_1, T_2) with T_m = int_0^1 x^m K(base + sign*x) dx, from the
    z-moments ``moms`` of K over z = base + sign*[0, 1] (``_zmom``).

    The m = 2 combination cancels ~base^2 of significance, so its operation
    order fixes the last bits of every table built from it.
    """
    m0, m1, m2 = moms
    if sign > 0:  # x = z - base
        return m0, m1 - base * m0, m2 - 2 * base * m1 + base * base * m0
    return m0, base * m0 - m1, base * base * m0 - 2 * base * m1 + m2  # x = base - z


def _cell_coeffs(s: np.ndarray, J: int) -> np.ndarray:
    """Rows (j w_j, j dw_j + w_j, dw_j) for cells 0..J-1, shape (..., 3, J)
    for samples (..., n): on cell j the profile times rho/h is the
    quadratic sum_m a_m xi^m in xi = rho/h - j."""
    j = np.arange(J)
    w = s[..., :J]
    out = np.empty(w.shape[:-1] + (3, J))
    dw = np.subtract(s[..., 1 : J + 1], w, out=out[..., 2, :])
    np.multiply(j, w, out=out[..., 0, :])
    np.multiply(j, dw, out=out[..., 1, :])
    out[..., 1, :] += w
    return out


def _poly_against_power(c0: np.ndarray, c1: np.ndarray, r0: float, sign: int, moms) -> np.ndarray:
    """int (c0*rho + c1*rho^2) K(z) dz with rho = r0 + sign*z.

    ``moms`` supplies the three z-moments of the kernel factor over the
    z-interval (power or log branch).
    """
    m0, m1, m2 = moms
    p0 = c0 * r0 + c1 * r0 * r0
    p1 = sign * (c0 + 2.0 * c1 * r0)
    p2 = c1
    return p0 * m0 + p1 * m1 + p2 * m2


def convolve_power(w: RadialProfile, gamma: float, r: float) -> float:
    """(V_gamma * w)(r) for the piecewise-linear profile ``w``, over the
    cells of its support (``support_cells``).

    The target radius need not be a grid node; radii below h/2 use the axis
    limit kernel.  Each cell is integrated at the target in its own
    rho-polynomial form in long double against the z-moments of ``_zmom``,
    taken once per cell edge and part: the (r + rho) part over all edges,
    the |r - rho| part split at rho = r, with the edges left of r clamped to
    r from above and those from the cell holding r onwards clamped to r
    from below.  The form cancels ~(r/rho)^2 at far targets.
    """
    _check_gamma(gamma)
    if r < 0.0:
        raise ValueError(f"negative radius {r}")
    h = w.h
    if r < 0.5 * h:
        return 4.0 * math.pi * trapezoid_weighted(w, 2.0 - gamma, 0.0, w.grid.r_max)

    n_cells = w.support_cells
    if n_cells == 0:
        return 0.0
    ld = np.longdouble
    s = w.samples[: n_cells + 1].astype(ld)
    x = (np.arange(n_cells + 1) * h).astype(ld)  # the cell edges
    rl = ld(r)
    c1 = np.diff(s) / h
    c0 = s[:-1] - c1 * x[:-1]

    # (r + rho) part: z = r + rho, rho = -r + z
    terms = _poly_against_power(c0, c1, -rl, +1, _zmom(gamma, rl + x))
    # |r - rho| part: cell k - 1 holds r (on its left edge or inside)
    k = int(np.searchsorted(x, rl, side="right"))
    # left of r: z = r - rho decreases along the cells, so the moments and
    # the product come out negated
    zl = rl - np.minimum(x[: k + 1], rl)
    terms[:k] += _poly_against_power(c0[:k], c1[:k], rl, -1, _zmom(gamma, zl))
    # right of r: z = rho - r, rho = r + z
    zr = np.maximum(x[k - 1 :], rl) - rl
    terms[k - 1 :] -= _poly_against_power(c0[k - 1 :], c1[k - 1 :], rl, +1, _zmom(gamma, zr))

    total = float(terms.sum())
    if is_log_branch(gamma):
        return 2.0 * math.pi / r * total
    return 2.0 * math.pi / (r * (2.0 - gamma)) * total


def _moment_tables(gamma: float, n: int):
    """Unit-cell moment tables P_m(s), Q_m(s) for the slice path.

    P_m(s) = int_0^1 xi^m (s + xi)^d dxi   for s = 0 .. 2n-2,
    Q_m(s) = int_0^1 xi^m (s - xi)^d dxi   for s = 1 .. n-1  (Q[*, 0] = 0),

    with the log-kernel analogues at gamma = 2.  Computed in extended
    precision: the m = 2 combinations cancel ~s^2 of significance.  The
    z-moments are taken once per integer edge 0..2n-1; Q's cell
    [s-1, s] is P's cell s-1, so both tables read the same moments.
    """
    ld = np.longdouble
    moms = _zmom(gamma, np.arange(2 * n, dtype=ld))
    P = np.stack(_xi_moments(moms, np.arange(2 * n - 1, dtype=ld), +1)).astype(float)
    Q = _xi_moments([m[: n - 1] for m in moms], np.arange(1, n, dtype=ld), -1)
    return P, np.concatenate([np.zeros((3, 1)), np.stack(Q).astype(float)], axis=1)


def _fft_length(m: int, J: int) -> int:
    """FFT length of ``apply`` for ``m`` output nodes and a support of ``J``
    cells: the smallest 2^a or 3 * 2^a at or above max(3m, 3(m + J)/2).

    Then floor(L/3) >= m - 1 holds the reflected Q(1..m-1), and the
    L - floor(L/3) >= m + J - 1 entries below them hold P(0..m+J-2), so
    the correlation never wraps one part onto the other.  The ladder has
    two lengths per octave, so a march whose window grows keeps few spectra.
    """
    need = max(3 * m, -(-3 * (m + J) // 2))
    p = 1 << (need - 1).bit_length()  # the power of two at or above need
    return 3 * (p // 4) if 3 * (p // 4) >= need else p


class ConvolutionKernel:
    """Precomputed moment tables for one (gamma, grid) pair.

    ``apply`` evaluates (V_gamma * w) at the first ``n_out`` nodes with one
    circular correlation of the three cell-coefficient rows against a
    kernel spectrum: one forward FFT and one inverse per call.  The spectrum
    of length L holds P on [0, L - floor(L/3)) and Q reflected onto the top
    floor(L/3) entries, so index i of the correlation is the Hankel sum and
    index -i the sum of both Toeplitz parts.  For J cells of support L is the
    smallest 2^a or 3 * 2^a at or above max(3 n_out, 3 (n_out + J)/2)
    (``_fft_length``): from 3 n_out to below 4.5 n_out in a march, where
    J = n_out - 1.  One spectrum is kept per L; the ladder has two lengths
    per octave and every L lies below 4.5 n, so a kernel holds fewer than
    2 log2(4 n) of them.  The moment tables and spectra are built on the
    first FFT call.  The axis value is a dot product with the node weights
    of ``grid.cell_weights`` at e = 2 - gamma, read once.

    At gamma = 0 and 1 (exact equality) ``apply`` takes the closed form
    (``_convolve_closed``) and builds no tables or spectra: each cell's
    integrals of rho^e PL(w), e = 1 and 2 (``grid.cell_integrals``),
    summed from the axis (e = 2, divided by r) and from the support edge
    (e = 1); at gamma = 0 every node takes the axis value.

    ``cubic`` gives the source term (V_gamma * u^2) u on a window of the
    first k nodes, with the window as the support of u.
    """

    def __init__(self, gamma: float, grid):
        _check_gamma(gamma)
        self.gamma = gamma
        self.grid = grid
        self.n = grid.n_r
        self.h = grid.h
        self.log_branch = is_log_branch(gamma)
        self.d = 2.0 - gamma
        self._closed = gamma in (0.0, 1.0)
        self._spectra: dict[int, np.ndarray] = {}
        self._axis_w = cell_weights(grid, self.d)

    @functools.cached_property
    def _tables(self):
        """(P, Q, scale) of the FFT path, built on its first call."""
        h, d = self.h, self.d
        i = np.arange(1, self.n)
        if self.log_branch:
            scale = 2.0 * math.pi * h / i
        else:
            scale = 2.0 * math.pi * h ** (1.0 + d) / (i * d)
        return (*_moment_tables(self.gamma, self.n), scale)

    def _spectrum(self, L: int) -> np.ndarray:
        """rfft of the 3 x L buffer with P on [0, L - floor(L/3)) and Q(s)
        at L - s for 1 <= s <= min(floor(L/3), n - 1)."""
        got = self._spectra.get(L)
        if got is None:
            P, Q, _ = self._tables
            third = L // 3
            K = np.zeros((3, L))
            p = min(L - third, P.shape[1])
            K[:, :p] = P[:, :p]
            q = min(third, self.n - 1)
            K[:, L - q :] = Q[:, q:0:-1]
            got = self._spectra[L] = np.fft.rfft(K, axis=1)
        return got

    def apply(self, w: RadialProfile, n_out: int | None = None) -> np.ndarray:
        """Values of (V_gamma * w) at the first ``n_out`` grid nodes (all of
        them by default; index 0 is the axis)."""
        if w.grid != self.grid:
            raise ValueError("profile grid does not match kernel grid")
        m = self.n if n_out is None else n_out
        if not 1 <= m <= self.n:
            raise ValueError(f"n_out must lie in [1, {self.n}], got {n_out}")
        return self._convolve(w.samples, w.support_cells, m)

    def _convolve(self, s: np.ndarray, J: int, m: int) -> np.ndarray:
        """(V_gamma * w) at the first ``m`` nodes for each row of ``s``: the
        samples (..., k) of profiles supported on the first ``J`` cells,
        with k > J.  The closed form at gamma = 0 and 1, the FFT
        correlation elsewhere.  Each row's values are those of a one-row
        call, bit for bit."""
        if J == 0:
            return np.zeros(s.shape[:-1] + (m,))
        if self._closed:
            return self._convolve_closed(s, J, m)
        return self._convolve_fft(s, J, m)

    def _axis(self, s: np.ndarray, J: int, m: int) -> np.ndarray:
        """Zeros of shape (..., m) with the axis value at node 0, for a
        support of ``J`` cells."""
        out = np.zeros(s.shape[:-1] + (m,))
        # one dot product per row: a stacked product would sum in another order
        wl, wr = self._axis_w
        rows = s.reshape(-1, s.shape[-1])
        axis = np.array(
            [np.dot(wl[:J], r[:J]) + np.dot(wr[:J], r[1 : J + 1]) for r in rows]
        ).reshape(s.shape[:-1])
        out[..., 0] = 4.0 * math.pi * axis
        return out

    def _convolve_closed(self, s: np.ndarray, J: int, m: int) -> np.ndarray:
        """``_convolve`` at gamma = 0 and 1, where the shell kernel is a
        polynomial on each side of rho = r:

            gamma = 0:  (V*w)(r) = 4 pi int rho^2 w,  the axis value at every node;
            gamma = 1:  (V*w)(r) = (4 pi / r) int_0^r rho^2 w + 4 pi int_r^b rho w,

        from the cell integrals T_e = int rho^e PL(w) over each of the J
        cells of the support: at node i a running sum of T_2 over the cells
        left of r_i and a running sum from the right of T_1."""
        out = self._axis(s, J, m)
        if self.gamma == 0.0:
            out[..., 1:] = out[..., :1]
            return out
        i = np.minimum(np.arange(1, m), J)
        inner = np.cumsum(cell_integrals(s, self.grid, 2, J), axis=-1)[..., i - 1]
        outer = np.zeros(s.shape[:-1] + (J + 1,))
        t1 = cell_integrals(s, self.grid, 1, J)
        outer[..., :J] = np.cumsum(t1[..., ::-1], axis=-1)[..., ::-1]
        out[..., 1:] = 4.0 * math.pi * (inner / (np.arange(1, m) * self.h) + outer[..., i])
        return out

    def _convolve_fft(self, s: np.ndarray, J: int, m: int) -> np.ndarray:
        """``_convolve`` by one circular correlation of the cell-coefficient
        rows against a kernel spectrum; the rows share one transform call."""
        out = self._axis(s, J, m)
        L = _fft_length(m, J)
        af = np.fft.rfft(_cell_coeffs(s, J), L, axis=-1)
        # c[k] = sum_j a_j K(j + k): the Hankel sum sum_j a_j P(i+j) at
        # k = i, and sum_{j>=i} a_j P(j-i) + sum_{j<i} a_j Q(i-j) at k = -i
        np.conjugate(af, out=af)
        af *= self._spectrum(L)
        c = np.fft.irfft(af.sum(axis=-2), L)
        acc = c[..., :m]
        acc[..., 1:] -= c[..., : L - m : -1]
        out[..., 1:] = self._tables[2][: m - 1] * acc[..., 1:]
        return out

    def cubic(self, u: np.ndarray) -> np.ndarray:
        """(V_gamma * u^2) u at the nodes of ``u``: the samples (..., k) of
        the first k grid nodes, one row per profile.  The window is the
        support: each row is the profile supported on [0, (k - 1) h], so u
        must vanish past the window (a slice's live window does, by finite
        propagation speed)."""
        k = u.shape[-1]
        return self._convolve(u * u, k - 1, k) * u


@functools.lru_cache(maxsize=8)
def cached_kernel(gamma: float, grid) -> ConvolutionKernel:
    """The kernel of (gamma, grid), shared by one-shot callers."""
    return ConvolutionKernel(gamma, grid)


def convolve_profile(w: RadialProfile, gamma: float, n_out: int | None = None) -> np.ndarray:
    """Slice-path convolution at the first ``n_out`` grid nodes (every node
    by default), with kernel-table reuse."""
    return cached_kernel(gamma, w.grid).apply(w, n_out)
