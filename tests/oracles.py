"""Independent oracles and test-side drivers used by the tests.

The oracles deliberately avoid the package's fast paths: ``mass``,
``mass_rhs`` and ``frame_check`` integrate the mass functional of a
profile through ``trapezoid_weighted``, the reference for
``grid.mass``; ``kernel_value`` evaluates the shell kernel pointwise (in
its expm1 form off the log branch), the Monte Carlo convolution samples
the 3D integral directly, the mpmath convolution integrates the shell
kernel cell by cell at 30 digits, the exact convolution at gamma = 0 and 1
sums closed-form cell moments exactly and rounds once, the brute-force
exponent scan re-derives the Kato parameter inequality, the slow cone
integral nests Gauss quadratures, ``duhamel_sum_ld`` is the one direct sum
of the march's cone quadrature (in long double, at every node of a slice,
as ``ConeAccumulator`` gives it), ``stencil_tail_ld`` is the one direct sum
of the d'Alembert stencil's Duhamel terms of the later sources (in long
double, at every node of a slice, as ``scattering_check`` marches them
backward), and ``w_weight`` is the paper's bilinear-estimate weight.
``free_table`` stacks free-field slices, and ``mass_series`` reads the
mass chain off a stored run's tables, each source row on its slice's live
window, as the recorder sums it.  The two drivers run the
package's march and cone accumulator on questions no CLI mode asks:
Picard iteration on a short window, and equivariance under the scaling
symmetry.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np

from conewave.grid import RadialProfile, trapezoid_weighted, mass as window_mass
from conewave.norms import WeightParams, slice_x_norm, tau
from conewave.potential import ConvolutionKernel, cached_kernel, is_log_branch
from conewave.solver import solve_march
from conewave.waveops import ConeAccumulator, FreeField, TimeWeights


def profile_value(w: RadialProfile, x: np.ndarray) -> np.ndarray:
    """Piecewise-linear + truncation evaluation, vectorized (test-side
    re-implementation, independent of conewave.grid.interp)."""
    r = w.grid.radii()
    vals = np.interp(np.minimum(x, w.grid.r_max), r, w.samples)
    vals = np.where(x > w.support_radius, 0.0, vals)
    return vals


def mass(u_slice: RadialProfile) -> float:
    """F contribution of one slice: 4 pi int r^2 u(r) dr (exact for the
    piecewise-linear profile)."""
    return 4.0 * math.pi * trapezoid_weighted(u_slice, 2.0, 0.0, u_slice.grid.r_max)


def mass_rhs(u_slice: RadialProfile, gamma: float, t: float) -> float:
    """F''(t) by the integrated equation:
    4 pi (1+t)^-2 int r^2 (V_gamma*u^2)(r) u(r) dr."""
    grid = u_slice.grid
    sq = RadialProfile(grid, u_slice.samples**2, u_slice.support_radius)
    cube = cached_kernel(gamma, grid).apply(sq) * u_slice.samples
    prod = RadialProfile(grid, cube, u_slice.support_radius)
    return (
        4.0 * math.pi / (1.0 + t) ** 2 * trapezoid_weighted(prod, 2.0, 0.0, grid.r_max)
    )


def frame_check(u_slice: RadialProfile, F_val: float, gamma: float, t: float):
    """(lhs, rhs) of the pair bound
    F'' >= 2^-gamma F (1+t)^-(gamma+2) int u^2 dx  at one slice, the lhs
    from a fresh convolution of the slice."""
    sq = RadialProfile(u_slice.grid, u_slice.samples**2, u_slice.support_radius)
    rhs = 2.0 ** (-gamma) * F_val * (1.0 + t) ** (-(gamma + 2.0)) * mass(sq)
    return mass_rhs(u_slice, gamma, t), rhs


def mc_convolution(
    w: RadialProfile, gamma: float, r0: float, n_samples: int, rng: np.random.Generator
):
    """Monte Carlo estimate of int |x-y|^-gamma w(|y|) dy at |x| = r0.

    Samples the offset radius z = |x-y| from the density proportional to
    z^(2-gamma) on (0, z_max) (finite variance for every gamma < 3) and the
    offset direction uniformly; returns (estimate, standard_error).
    """
    z_max = r0 + w.support_radius
    if z_max <= 0.0:
        return 0.0, 0.0
    p = 3.0 - gamma
    u = rng.random(n_samples)
    z = z_max * u ** (1.0 / p)
    ct = rng.uniform(-1.0, 1.0, n_samples)
    y = np.sqrt(np.maximum(r0 * r0 + z * z + 2.0 * r0 * z * ct, 0.0))
    vals = profile_value(w, y)
    c_norm = 4.0 * math.pi * z_max**p / p
    est = c_norm * float(np.mean(vals))
    err = c_norm * float(np.std(vals, ddof=1)) / math.sqrt(n_samples)
    return est, err


def random_profile(grid, rng: np.random.Generator, nonneg: bool = False) -> RadialProfile:
    """Smooth-ish compactly supported random profile on the grid."""
    n_sup = int(rng.integers(max(4, grid.n_r // 8), grid.n_r - 1))
    s = rng.normal(size=grid.n_r)
    if nonneg:
        s = np.abs(s)
    k = np.ones(7) / 7.0
    s = np.convolve(s, k, mode="same")
    s = np.convolve(s, k, mode="same")
    s[n_sup:] = 0.0
    return RadialProfile(grid, s, support_radius=n_sup * grid.h)


def kato_exponent_scan(gamma: float, delta: float, j_max: int = 2000):
    """Smallest j with 2(j+1)/(gamma (j+1) + 3) > 2/gamma - delta, by direct
    scan over j with a positive comparison exponent (M > 0)."""
    j_min_pos = None
    first_ok = None
    for j in range(j_max):
        M = -(gamma * (j + 1) + 3.0) / 2.0
        if M <= 0.0:
            continue
        if j_min_pos is None:
            j_min_pos = j
        expo = 2.0 * (j + 1) / (gamma * (j + 1) + 3.0)
        if expo > 2.0 / gamma - delta and first_ok is None:
            first_ok = j
            break
    return j_min_pos, first_ok


def slow_cone_integral(g_func, r0: float, t0: float, n_s: int = 400, n_lam: int = 400):
    """Nested Gauss quadrature of the damped cone integral of a continuum
    source g_func(lam, s) (independent of the package's prefix sums)."""
    xs, wxs = np.polynomial.legendre.leggauss(32)

    def inner(s):
        lo, hi = abs(r0 - (t0 - s)), r0 + (t0 - s)
        if hi <= lo:
            return 0.0
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        lam = mid + half * xs
        return float(np.sum(wxs * lam * g_func(lam, s))) * half / (2.0 * r0)

    total = 0.0
    edges = np.linspace(0.0, t0, n_s + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        svals = mid + half * xs
        total += float(np.sum(wxs * [inner(s) / (1.0 + s) ** 2 for s in svals])) * half
    return total


def kernel_value(gamma: float, r: float, rho: float) -> float:
    """Shell kernel k(r, rho); r = 0 returns the axis limit 4 pi rho**(2-g)."""
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


def mp_convolution(w: RadialProfile, gamma: float, r: float, dps: int = 30) -> float:
    """(V_gamma * w)(r) for the piecewise-linear profile ``w`` at r > 0, by
    mpmath quadrature of the shell kernel on each cell of its support,
    split at rho = r where the kernel is singular.  The cells end on the
    float node radii j h of ``Grid.radii``, which on a grid whose h is not
    dyadic lie off the exact multiples of h."""
    with mpmath.workdps(dps):
        h, r = mpmath.mpf(w.h), mpmath.mpf(r)
        d = 2 - mpmath.mpf(gamma)

        def kernel(t):  # at rho = r + t, so |r - rho| = |t| never rounds to 0
            a, c = 2 * r + t, abs(t)
            val = mpmath.log(a / c) if is_log_branch(gamma) else (a**d - c**d) / d
            return 2 * mpmath.pi * (r + t) / r * val

        total = mpmath.mpf(0)
        for j in range(w.support_cells):
            x0, x1 = mpmath.mpf(j * w.h), mpmath.mpf((j + 1) * w.h)  # node radii
            s0 = mpmath.mpf(w.samples[j])
            ds = mpmath.mpf(w.samples[j + 1]) - s0
            ends = [x0 - r, 0, x1 - r] if x0 < r < x1 else [x0 - r, x1 - r]
            total += mpmath.quad(lambda t: kernel(t) * (s0 + ds * (r + t - x0) / h), ends)
        return float(total)


def _cell_moment_terms(w: RadialProfile, e: int) -> list[list[float]]:
    """Per cell j of the support: terms whose sum is int rho^e w(rho) drho
    over cell j, for e in {1, 2}.

    On the cell rho = x0 + h xi and w = s0 (1 - xi) + s1 xi, so
    rho^e w expands into products of (x0, h xi) powers with xi^a (1 - xi)
    and xi^(a+1), integrated exactly over [0, 1].  For w >= 0 every term
    is nonnegative, so summing them cancels nothing.
    """
    h = w.h
    powers = [(1, 0), (1, 1)] if e == 1 else [(1, 0), (2, 1), (1, 2)]  # (binomial, a)
    cells = []
    for j in range(w.support_cells):
        x0 = j * h
        s0, s1 = float(w.samples[j]), float(w.samples[j + 1])
        terms = []
        for binom, a in powers:
            coef = binom * x0 ** (e - a) * h ** (a + 1)
            # int_0^1 xi^a (1 - xi) and int_0^1 xi^(a+1)
            left = 1.0 / (a + 1) - 1.0 / (a + 2)
            right = 1.0 / (a + 2)
            terms += [coef * s0 * left, coef * s1 * right]
        cells.append(terms)
    return cells


def exact_convolution(w: RadialProfile, gamma: float) -> np.ndarray:
    """(V_gamma * w) at every grid node where the shell kernel is a
    polynomial, from exact cell moments whose sums are exact and rounded
    once (``math.fsum``, or running sums of ``Fraction``s):

        gamma = 0:  4 pi int rho^2 w                      (every node),
        gamma = 1:  (4 pi / r) int_0^r rho^2 w + 4 pi int_r^b rho w.

    For w >= 0 no step cancels, so the values are correct to a few ulps at
    any grid size."""
    m2 = _cell_moment_terms(w, 2)
    n_r = w.grid.n_r
    if gamma == 0.0:
        return np.full(n_r, 4.0 * math.pi * math.fsum(t for c in m2 for t in c))
    if gamma != 1.0:
        raise ValueError("closed forms exist here only at gamma = 0 and 1")
    # exact running sums (floats are dyadic rationals), each rounded once
    # as fsum rounds: inner[i] over the cells left of node i, outer[i] right
    cell_sums = [sum(map(Fraction, c)) for c in m2]
    inner = list(itertools.accumulate(cell_sums, initial=Fraction(0)))
    cell_sums = [sum(map(Fraction, c)) for c in _cell_moment_terms(w, 1)]
    outer = list(itertools.accumulate(reversed(cell_sums), initial=Fraction(0)))[::-1]
    out = np.empty(n_r)
    for i in range(n_r):
        c = min(i, len(cell_sums))
        out[i] = 4.0 * math.pi * ((float(inner[c]) / (i * w.h) if i else 0.0) + float(outer[c]))
    return out


def w_weight(r: float, t: float, params: WeightParams) -> float:
    """Three-branch bilinear-estimate weight W_R(r, t)."""
    tp, _ = tau(r, t, params.R)
    g, R = params.gamma, params.R
    if is_log_branch(g):
        return R ** (-1.0) * math.log1p(R) * tp**2 / math.log1p(tp)
    if g > 2.0:
        return R ** (g - 3.0) * tp**2
    return R ** (g - 3.0) * tp**g


def mass_series(hist):
    """(t, F, F'' by the identity) along a stored run.

    F'' reuses the stored source slices G = (V*u^2)u, so the identity check
    against the centered second difference of F is a genuine cross check of
    the solver's own nonlinearity."""
    if hist.u is None or hist.g is None or hist.g_from:
        raise ValueError("run must store history, the sources from slice 0 on")
    t = hist.t
    F = hist.mass.copy()
    grid, jr = hist.grid, hist.params.support_cells
    rhs = np.empty(hist.n_used)
    for n in range(hist.n_used):
        rhs[n] = window_mass(hist.g[n][: grid.window(n, jr)], grid) / (1.0 + t[n]) ** 2
    return t, F, rhs


def duhamel_sum_ld(g_table: np.ndarray, grid, n: int) -> np.ndarray:
    """The march's cone quadrature at every node of slice n, summed
    directly in long double and rounded once: the history of the source
    slices 0..n-1 and the closure of the newest cell, as
    ``ConeAccumulator.eval_slice`` gives it for source slice n.
    ``g_table`` holds slices 0, 1, ... on all nodes.  Node k >= 1 takes

        sum_m c_m [Phi_m(k + d) - Phi_m(|k - d|)] / (2 k h),  d = |n - m|,

    with Phi_m the prefix sum of slice m's exact lambda-weighted cell
    integrals (h^2/6 ((3j+1) g_j + (3j+2) g_{j+1})), saturated past the
    last node; the axis takes sum_m c_m (d h) g_m(d).  c_m adds the
    ``TimeWeights`` endpoint weights wl, wr of the cells next to slice m,
    except the cell next to t_n, which the closure (J1, J2) takes."""
    ld = np.longdouble
    n_r, h = grid.n_r, ld(grid.h)
    tw = TimeWeights(grid.n_t, grid.h)
    wl, wr = tw.wl.astype(ld), tw.wr.astype(ld)
    cells = range(0, n - 1)  # the cells the sum covers
    J1, J2 = tw.closure(n)
    g = np.asarray(g_table, dtype=ld)
    j = np.arange(n_r - 1, dtype=ld)
    k = np.arange(n_r)
    val = np.zeros(n_r, dtype=ld)
    for m in sorted(set(cells) | {c + 1 for c in cells}):
        c_m = (wl[m] if m in cells else ld(0)) + (wr[m - 1] if m - 1 in cells else ld(0))
        phi = np.zeros(n_r, dtype=ld)
        phi[1:] = np.cumsum(h * h / 6 * ((3 * j + 1) * g[m, :-1] + (3 * j + 2) * g[m, 1:]))
        d = abs(n - m)
        hi = np.minimum(k + d, n_r - 1)
        lo = np.minimum(np.abs(k - d), n_r - 1)
        val[1:] += c_m * (phi[hi] - phi[lo])[1:]
        if d < n_r:
            val[0] += c_m * d * h * g[m, d]
    val[1:] /= 2 * k[1:] * h
    val += ld(J1) * g[n - 1] + ld(J2) * g[n]
    return val.astype(float)


def stencil_tail_ld(g_table: np.ndarray, grid, n: int, top: int, g_from: int = 0) -> np.ndarray:
    """u - u_plus at every node of slice n of a d'Alembert stencil run
    whose source slices g_from..top are the rows of ``g_table``, with
    u_plus the source-free stencil run that matches u at slices top - 1
    and top: the stencil's own Duhamel terms of the later sources, summed
    directly in long double and rounded once.

    The discrete d'Alembert Green's function at dt = dr, with odd
    reflection at the axis, carries the term h^2 S_m(j) of the source
    S_m = r G_m/(1+t_m)^2 to D_n(k) = r_k (u - u_plus)_n(k) when

        |k - j| < m - n <= k + j  and  k - j + m - n is odd,

    for n < m < top.  The sum runs over the source nodes j, so it knows no
    grid edge for D.  u - u_plus is D_n/r off the axis and (4 d_1 - d_2)/3
    on it, as ``scattering_check`` takes it."""
    ld = np.longdouble
    n_r, h = grid.n_r, ld(grid.h)
    k = np.arange(n_r)[:, None]
    j = np.arange(1, n_r)[None, :]
    D = np.zeros(n_r, dtype=ld)
    for m in range(n + 1, top):
        p = m - n
        s = j * h * np.asarray(g_table[m - g_from, 1:], dtype=ld) / (1 + m * h) ** 2
        reach = (np.abs(k - j) < p) & (p <= k + j) & ((k - j + p) % 2 == 1)
        D += h * h * np.where(reach, s, ld(0)).sum(axis=1)
    d = np.zeros(n_r, dtype=ld)
    d[1:] = D[1:] / (np.arange(1, n_r) * h)
    d[0] = (4 * d[1] - d[2]) / 3
    return d.astype(float)


def free_table(free: FreeField, n_slices: int) -> np.ndarray:
    """Slices 0..n_slices-1 of a ``FreeField``, stacked."""
    return np.stack([free.slice(n) for n in range(n_slices)])


def picard_iterates(params, data, c1: float):
    """Picard iteration u -> u0 + L[(V*u^2)u] from the free field u0.

    The window [0, T] satisfies the smallness condition
    T <= sqrt(2 pi / (3 M^2 C1 R^(3-gamma))) with M = 2.2 times the free
    field's weighted norm up to t = R, and T < R.  Returns
    (T, M, u, norms, converged): the last iterate on the window's slices,
    the weighted norms of the successive differences, and whether the last
    of them fell below 1e-11 relative to the iterate within 25 iterations.
    """
    grid, h, jr = params.grid, params.grid.h, params.support_cells
    wp, r = params.weights(), grid.radii()

    def norm(tab):
        return max(slice_x_norm(wp, r, n * h, row) for n, row in enumerate(tab))

    free = FreeField(*data, grid)
    M = max(2.2 * norm(free_table(free, min(grid.n_t - 1, jr) + 1)), 1e-12)
    T = math.sqrt(2.0 * math.pi / (3.0 * M * M * c1 * params.R ** (3.0 - params.gamma)))
    n_T = max(1, math.floor(min(0.95 * T, params.R - h) / h))
    kern = ConvolutionKernel(params.gamma, grid)
    u0 = free_table(free, n_T + 1)
    u, norms = u0, []
    for _ in range(25):
        acc = ConeAccumulator(grid, jr)
        new = u0.copy()
        for n, row in enumerate(u):
            g = kern.cubic(row[: grid.window(n, jr)])
            if n:
                dh = acc.eval_slice(g)
                new[n, : dh.size] += dh
            acc.push_slice(g)
        norms.append(norm(new - u))
        u = new
        if norms[-1] <= 1e-11 * max(1.0, norm(u)):
            return n_T * h, M, u, norms, True
    return n_T * h, M, u, norms, False


def _scaled_data(hist, s: float):
    """Data of the s-scaled companion run (s >= 1), read off the base run at
    t = s - 1: u(r, 0) = s^e u(s r, s - 1) with e = (3 - gamma)/2, and the
    matching time derivative by centered differences."""
    grid, h, u = hist.grid, hist.grid.h, hist.u
    n1 = grid.index_of_time(s - 1.0)
    e = 0.5 * (3.0 - hist.params.gamma)
    r = grid.radii()
    rs = np.minimum(s * r, grid.r_max)  # past r_max lies outside the data support
    ut = (u[n1 + 1] - u[n1 - 1]) / (2.0 * h) if n1 else (u[1] - u[0]) / h
    sup = min((s - 1.0 + hist.params.R) / s, grid.r_max)
    inside = r <= sup + 1e-12
    u0 = np.where(inside, s**e * np.interp(rs, r, u[n1]), 0.0)
    ut0 = np.where(inside, s ** (e + 1.0) * np.interp(rs, r, ut), 0.0)
    return RadialProfile(grid, u0, sup), RadialProfile(grid, ut0 - u0, sup)


def scale_symmetry_mismatch(params, data, sigma: float, t_check: float) -> float:
    """Sup mismatch of the original field v = u/(1+t) under the scaling
    symmetry v -> sigma^((5-gamma)/2) v(sigma y, sigma(1+t) - 1), over the
    grid points the base and companion runs share up to t_check.

    With s = max(sigma, 1/sigma) the companion run starts from the scaled
    state of the base run at t = s - 1; for sigma < 1 the map is read
    backwards, from the companion to the base.
    """
    grid, h, gamma = params.grid, params.grid.h, params.gamma
    s = max(sigma, 1.0 / sigma)
    e = 0.5 * (3.0 - gamma)
    base = solve_march(params, data)
    comp = solve_march(params, _scaled_data(base, s))
    ks = s * np.arange(grid.n_r)
    k = np.flatnonzero((np.abs(ks - np.round(ks)) < 1e-9) & (np.round(ks) <= grid.n_r - 1))
    ks = np.round(ks[k]).astype(int)
    off = round((s - 1.0) / h)
    mism = 0.0
    for n in range(1, comp.n_used):
        tn, npr = n * h, round(s * n) + off  # base slice at time s(1+t_n) - 1
        if npr >= base.n_used or tn > t_check:
            break
        comp_u, base_u = comp.u[n][k], base.u[npr][ks]
        if sigma >= 1.0:
            diff = np.abs(comp_u - s**e * base_u) / (1.0 + tn)
        else:
            diff = np.abs(base_u / (1.0 + npr * h) - sigma**(e + 1.0) * comp_u / (1.0 + tn))
        mism = max(mism, float(np.max(diff)))
    return mism
