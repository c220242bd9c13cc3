"""Radial convolution with the power potential |x|**(-gamma), gamma in (-1/2, 3).

For radial w the 3D convolution collapses to a 1D shell kernel

    (V*w)(r) = int_0^inf k(r, rho) w(rho) drho,
    k(r, rho) = (2 pi rho / r) * [(r+rho)**(2-g) - |r-rho|**(2-g)] / (2-g),

with the log branch at g = 2 and the limit kernel 4 pi rho**(2-g) on the
axis.  All quadrature integrates the kernel powers in closed form against
the piecewise-linear (support-truncated) profile, so the |r-rho| singularity
needs no special casing and pure power-law data come out exact.

Two evaluation paths share that quadrature:

* ``convolve_power`` -- single target radius, used by verifiers and tests;
* ``ConvolutionKernel.apply`` -- every grid node at once.  The cell moments
  depend only on the index sum i+j (Hankel part) and difference i-j
  (Toeplitz part), so a whole slice costs three FFT correlations instead of
  an O(n^2) double loop.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import fft as sfft

from .grid import RadialProfile, _cell_moments, trapezoid_weighted

__all__ = [
    "is_log_branch",
    "kernel_value",
    "convolve_power",
    "ConvolutionKernel",
    "convolve_profile",
    "convolve_profile_direct",
    "bilinear_form",
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


def kernel_value(gamma: float, r: float, rho: float) -> float:
    """Shell kernel k(r, rho); r = 0 returns the axis limit 4 pi rho**(2-g)."""
    _check_gamma(gamma)
    if rho <= 0.0:
        return 0.0
    if r == 0.0:
        return 4.0 * math.pi * rho ** (2.0 - gamma)
    a = r + rho
    b = abs(r - rho)
    if is_log_branch(gamma):
        if b == 0.0:
            return math.inf
        return (2.0 * math.pi * rho / r) * (-math.log(b / a))
    d = 2.0 - gamma
    if b == 0.0:
        val = a**d / d
    else:
        # a**d - b**d evaluated without cancellation near gamma = 2
        val = -(a**d) * math.expm1(d * math.log(b / a)) / d
    return (2.0 * math.pi * rho / r) * val


def _zmom_pow(d: float, z0: np.ndarray, z1: np.ndarray):
    """(M_d, M_{d+1}, M_{d+2}) with M_e = int_{z0}^{z1} z**e dz, elementwise."""
    return (
        _cell_moments(d, z0, z1),
        _cell_moments(d + 1.0, z0, z1),
        _cell_moments(d + 2.0, z0, z1),
    )


def _zmom_log(z0: np.ndarray, z1: np.ndarray):
    """(L_0, L_1, L_2) with L_k = int_{z0}^{z1} z**k log z dz, elementwise."""
    z0 = np.asarray(z0, dtype=float)
    z1 = np.asarray(z1, dtype=float)

    def anti(k, z):
        out = np.zeros_like(z)
        pos = z > 0.0
        zp = z[pos]
        p = k + 1.0
        out[pos] = zp**p * (np.log(zp) / p - 1.0 / p**2)
        return out

    return tuple(anti(k, z1) - anti(k, z0) for k in range(3))


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
    """(V_gamma * w)(r) for the truncated piecewise-linear profile ``w``.

    The target radius need not be a grid node; radii below h/2 use the axis
    limit kernel.
    """
    _check_gamma(gamma)
    if r < 0.0:
        raise ValueError(f"negative radius {r}")
    h = w.h
    if r < 0.5 * h:
        return 4.0 * math.pi * trapezoid_weighted(w, 2.0 - gamma, 0.0, w.grid.r_max)

    b = w.support_radius
    if b <= 0.0:
        return 0.0
    s = w.samples
    n_cells = min(int(np.ceil(b / h - 1e-12)), w.grid.n_r - 1)
    j = np.arange(n_cells)
    x0 = j * h
    x1 = np.minimum(x0 + h, b)
    c1 = (s[j + 1] - s[j]) / h
    c0 = s[j] - c1 * x0

    logb = is_log_branch(gamma)
    d = 2.0 - gamma
    moms = (lambda z0, z1: _zmom_log(z0, z1)) if logb else (lambda z0, z1: _zmom_pow(d, z0, z1))

    # (r + rho) part: z = r + rho, rho = -r + z
    plus = _poly_against_power(c0, c1, -r, +1, moms(r + x0, r + x1))

    # |r - rho| part: split each cell at rho = r
    xl0 = x0
    xl1 = np.minimum(x1, r)
    left_live = xl1 > xl0
    minus_left = np.zeros(n_cells)
    if np.any(left_live):
        z0 = r - xl1[left_live]  # z = r - rho, rho = r - z
        z1 = r - xl0[left_live]
        minus_left[left_live] = _poly_against_power(
            c0[left_live], c1[left_live], r, -1, moms(z0, z1)
        )
    xr0 = np.maximum(x0, r)
    xr1 = x1
    right_live = xr1 > xr0
    minus_right = np.zeros(n_cells)
    if np.any(right_live):
        z0 = xr0[right_live] - r  # z = rho - r, rho = r + z
        z1 = xr1[right_live] - r
        minus_right[right_live] = _poly_against_power(
            c0[right_live], c1[right_live], r, +1, moms(z0, z1)
        )

    total = 0.0
    contrib = plus - minus_left - minus_right
    for v in contrib:
        total += v
    if logb:
        return 2.0 * math.pi / r * total
    return 2.0 * math.pi / (r * d) * total


def _moment_tables(gamma: float, n: int):
    """Unit-cell moment tables P_m(s), Q_m(s) for the slice path.

    P_m(s) = int_0^1 xi^m (s + xi)^d dxi   for s = 0 .. 2n-2,
    Q_m(s) = int_0^1 xi^m (s - xi)^d dxi   for s = 1 .. n-1  (Q[*, 0] = 0),

    with the log-kernel analogues at gamma = 2.  Computed in extended
    precision: the m = 2 combinations cancel ~s^2 of significance.
    """
    ld = np.longdouble
    if is_log_branch(gamma):

        def anti(k, z):
            p = ld(k + 1)
            out = np.zeros_like(z)
            pos = z > 0
            out[pos] = z[pos] ** p * (np.log(z[pos]) / p - 1 / p**2)
            return out

        def mom(k, z0, z1):
            return anti(k, z1) - anti(k, z0)

    else:
        d = ld(2.0 - gamma)

        def mom(k, z0, z1):
            p = d + k + 1
            return (z1**p - z0**p) / p

    def build(sv, lower):
        z0 = sv - 1 if lower else sv
        z1 = sv if lower else sv + 1
        m0 = mom(0, z0, z1)
        m1 = mom(1, z0, z1)
        m2 = mom(2, z0, z1)
        if lower:  # xi = s - z
            t0 = m0
            t1 = sv * m0 - m1
            t2 = sv * sv * m0 - 2 * sv * m1 + m2
        else:  # xi = z - s
            t0 = m0
            t1 = m1 - sv * m0
            t2 = m2 - 2 * sv * m1 + sv * sv * m0
        return np.stack([t0, t1, t2]).astype(float)

    sP = np.arange(2 * n - 1, dtype=np.longdouble)
    P = build(sP, lower=False)
    sQ = np.arange(1, n, dtype=np.longdouble)
    Q = np.concatenate([np.zeros((3, 1)), build(sQ, lower=True)], axis=1)
    return P, Q


class ConvolutionKernel:
    """Precomputed moment tables for one (gamma, grid) pair.

    ``apply`` evaluates (V_gamma * w) at every node of the grid with three
    FFT correlations; kernel transforms are cached per FFT length.
    """

    def __init__(self, gamma: float, grid):
        _check_gamma(gamma)
        self.gamma = gamma
        self.grid = grid
        self.n = grid.n_r
        self.h = grid.h
        self.log_branch = is_log_branch(gamma)
        self.d = 2.0 - gamma
        self.P, self.Q = _moment_tables(gamma, self.n)
        self._kfft: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _kernel_fft(self, L: int):
        got = self._kfft.get(L)
        if got is None:
            Pf = sfft.rfft(self.P, L, axis=1)
            Qf = sfft.rfft(self.Q, L, axis=1)
            got = (Pf, Qf)
            self._kfft[L] = got
        return got

    def _coeff_vectors(self, s: np.ndarray, n_cells: int):
        j = np.arange(n_cells)
        wj = s[:n_cells]
        wj1 = s[1 : n_cells + 1]
        dw = wj1 - wj
        return np.stack([j * wj, j * dw + wj, dw])

    def apply(self, w: RadialProfile) -> np.ndarray:
        """Values of (V_gamma * w) at all grid nodes (index 0 is the axis)."""
        if w.grid != self.grid:
            raise ValueError("profile grid does not match kernel grid")
        n, h = self.n, self.h
        b = min(w.support_radius, w.grid.r_max)
        out = np.zeros(n)
        if b <= 0.0:
            return out
        k_edge = b / h
        J_full = int(np.floor(k_edge + 1e-12))
        xi_star = k_edge - J_full
        if xi_star < 1e-12:
            xi_star = 0.0

        acc = np.zeros(n)
        if J_full > 0:
            a = self._coeff_vectors(w.samples, J_full)
            L = sfft.next_fast_len(J_full + 2 * n - 1)
            Pf, Qf = self._kernel_fft(L)
            af = sfft.rfft(a, L, axis=1)
            arevf = sfft.rfft(a[:, ::-1], L, axis=1)
            # F_m = fullconv(arev_m, P_m): index N-1+i gives the Hankel sum
            # sum_j a_j P(i+j); index N-1-i gives the upper-Toeplitz sum
            # sum_{j>=i} a_j P(j-i).
            F = sfft.irfft((arevf * Pf).sum(axis=0), L)
            V = sfft.irfft((af * Qf).sum(axis=0), L)
            i = np.arange(n)
            acc += F[J_full - 1 + i]
            upper = np.zeros(n)
            m = min(J_full, n)
            upper[:m] = F[J_full - m : J_full][::-1]
            acc -= upper
            acc -= V[:n]

        if xi_star > 0.0:
            acc += self._partial_cell(w.samples, J_full, xi_star)

        d = self.d
        i = np.arange(1, n)
        if self.log_branch:
            out[1:] = (2.0 * math.pi * h / i) * acc[1:]
        else:
            out[1:] = (2.0 * math.pi * h ** (1.0 + d) / (i * d)) * acc[1:]
        out[0] = 4.0 * math.pi * trapezoid_weighted(w, 2.0 - self.gamma, 0.0, w.grid.r_max)
        return out

    def _partial_cell(self, s: np.ndarray, J: int, xi_star: float) -> np.ndarray:
        """Moment contribution of the truncated cell [J h, (J + xi*) h]."""
        n = self.n
        wj = s[J]
        wj1 = s[J + 1] if J + 1 < n else 0.0
        dw = wj1 - wj
        a = np.array([J * wj, J * dw + wj, dw])
        i = np.arange(n, dtype=float)

        if self.log_branch:

            def mom(k, z0, z1):
                return _zmom_log(z0, z1)[k]

        else:

            def mom(k, z0, z1):
                return _cell_moments(self.d + k, z0, z1)

        def xi_moments(base, sign):
            # int_0^{xi*} xi^m K(base + sign*xi) dxi via z = base + sign*xi
            if sign > 0:
                z0, z1 = base, base + xi_star
            else:
                z0, z1 = base - xi_star, base
            m0 = mom(0, z0, z1)
            m1 = mom(1, z0, z1)
            m2 = mom(2, z0, z1)
            # xi = sign*(z - base)
            t0 = m0
            t1 = sign * (m1 - base * m0)
            t2 = m2 - 2.0 * base * m1 + base * base * m0
            return t0, t1, t2

        plus = xi_moments(i + J, +1)
        res = a[0] * plus[0] + a[1] * plus[1] + a[2] * plus[2]
        low = i <= J
        if np.any(low):
            t = xi_moments(J - i[low], +1)
            res[low] -= a[0] * t[0] + a[1] * t[1] + a[2] * t[2]
        if np.any(~low):
            t = xi_moments(i[~low] - J, -1)
            res[~low] -= a[0] * t[0] + a[1] * t[1] + a[2] * t[2]
        return res


@functools.lru_cache(maxsize=8)
def _kernel(gamma: float, grid) -> ConvolutionKernel:
    return ConvolutionKernel(gamma, grid)


def convolve_profile(w: RadialProfile, gamma: float) -> np.ndarray:
    """Slice-path convolution at every grid node, with kernel-table reuse."""
    return _kernel(gamma, w.grid).apply(w)


def convolve_profile_direct(w: RadialProfile, gamma: float) -> np.ndarray:
    """O(n^2) reference: the point path looped over all nodes."""
    return np.array([convolve_power(w, gamma, r) for r in w.grid.radii()])


# ---------------------------------------------------------------------------
# Exact piecewise-linear bilinear form (symmetry oracle)
# ---------------------------------------------------------------------------


def _ximom_pow(m: int, s, e: float, lower: bool) -> np.ndarray:
    """int_0^1 xi^m (s + xi)^e dxi (lower=False) or int_0^1 xi^m (s - xi)^e dxi."""
    s = np.asarray(s, dtype=float)
    if lower:
        z0, z1 = s - 1.0, s
    else:
        z0, z1 = s, s + 1.0
    M = [_cell_moments(e + k, z0, z1) for k in range(m + 1)]
    if m == 0:
        return M[0]
    if lower:  # xi = s - z
        if m == 1:
            return s * M[0] - M[1]
        return s * s * M[0] - 2.0 * s * M[1] + M[2]
    if m == 1:
        return M[1] - s * M[0]
    return M[2] - 2.0 * s * M[1] + s * s * M[0]


_GAUSS_N = 48
_gauss_x, _gauss_w = np.polynomial.legendre.leggauss(_GAUSS_N)
_gx01 = 0.5 * (_gauss_x + 1.0)
_gw01 = 0.5 * _gauss_w


def _dp_table(d: float, a: int, b: int, smax: int) -> np.ndarray:
    """Dp_ab(S) = int int xi^a eta^b (S + xi + eta)^d, S = 0..smax."""
    # inner integral over eta is exact; outer over xi by Gauss (smooth for
    # S >= 1, substitution xi = u^2 tames the S = 0 corner)
    out = np.zeros(smax + 1)
    for Sv in range(smax + 1):
        if Sv == 0:
            u = _gx01
            xi = u * u
            jac = 2.0 * u
        else:
            xi = _gx01
            jac = np.ones_like(xi)
        inner = _ximom_pow(b, Sv + xi, d, lower=False)
        out[Sv] = float(np.sum(_gw01 * jac * xi**a * inner))
    return out


def _dm_table(d: float, a: int, b: int, mmax: int) -> np.ndarray:
    """Dm_ab(m) = int int xi^a eta^b |m + xi - eta|^d, m = 0..mmax."""
    out = np.zeros(mmax + 1)
    # m = 0: both triangles in closed form via Beta functions
    def beta_int(bb, dd):
        # int_0^1 u^bb (1-u)^dd du with integer bb
        val = 1.0 / (dd + 1.0)
        for k in range(1, bb + 1):
            val *= k / (dd + 1.0 + k)
        return val

    # triangle eta < xi: int_0^1 xi^a [int_0^xi eta^b (xi-eta)^d deta] dxi
    #                  = B(b+1, d+1) / (a+b+d+2)
    t1 = beta_int(b, d) / (a + b + d + 2.0)
    t2 = beta_int(a, d) / (a + b + d + 2.0)
    out[0] = t1 + t2
    for m in range(1, mmax + 1):
        if m == 1:
            u = _gx01
            xi = u * u
            jac = 2.0 * u
        else:
            xi = _gx01
            jac = np.ones_like(xi)
        inner = _ximom_pow(b, m + xi, d, lower=True)
        out[m] = float(np.sum(_gw01 * jac * xi**a * inner))
    return out


def bilinear_form(w1: RadialProfile, w2: RadialProfile, gamma: float) -> float:
    """Exact 4 pi int r^2 (V_gamma * w1)(r) w2(r) dr for piecewise-linear
    profiles; symmetric in (w1, w2) by construction.

    Serves as the symmetry oracle for the mass-functional identities.  Not
    implemented on the log branch (gamma = 2).
    """
    _check_gamma(gamma)
    if is_log_branch(gamma):
        raise NotImplementedError("bilinear_form is not implemented for gamma = 2")
    if w1.grid != w2.grid:
        raise ValueError("profiles live on different grids")
    d = 2.0 - gamma
    h = w1.h
    n = w1.grid.n_r

    def cells(w):
        b = min(w.support_radius, w.grid.r_max)
        nc = min(int(np.ceil(b / h - 1e-12)), n - 1)
        # truncation inside a cell is not supported here; callers use
        # node-aligned supports
        if abs(nc - b / h) > 1e-9 and b / h - np.floor(b / h + 1e-12) > 1e-9:
            raise ValueError("bilinear_form needs node-aligned support radii")
        s = w.samples
        j = np.arange(nc)
        dw = s[j + 1] - s[j]
        return np.stack([j * s[j], j * dw + s[j], dw]), nc

    A, na = cells(w1)
    B, nb = cells(w2)
    if na == 0 or nb == 0:
        return 0.0
    smax = na + nb - 2
    mmax = max(na, nb) - 1
    total = 0.0
    I = np.arange(nb)[:, None]
    J = np.arange(na)[None, :]
    Splus = (I + J).ravel()
    Mdiff = np.abs(I - J).ravel()
    sign_lower = (I > J).ravel()  # w2-cell index above w1-cell index
    for a_deg in range(3):
        for b_deg in range(3):
            dp = _dp_table(d, a_deg, b_deg, smax)
            dm_ab = _dm_table(d, a_deg, b_deg, mmax)
            dm_ba = dm_ab if a_deg == b_deg else _dm_table(d, b_deg, a_deg, mmax)
            coef = (B[a_deg][:, None] * A[b_deg][None, :]).ravel()
            dm = np.where(sign_lower, dm_ab[Mdiff], dm_ba[Mdiff])
            total += float(np.sum(coef * (dp[Splus] - dm)))
    return 8.0 * math.pi**2 / d * h ** (4.0 + d) * total
