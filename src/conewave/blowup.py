"""Mass-functional machinery for the blow-up regime.

F(t) is the spatial integral of u.  Integrating the equation gives the
exact identity  F'' = (1+t)^-2 int (V_gamma*u^2) u dx,  which chains (for
radial data with v0 = 0, v1 >= 0) into

    F'' >= 2^-gamma (1+t)^-(gamma+2) F int u^2 dx            (pair bound)
    F'' >= eps^2 C0^2 2^-(gamma+1) t^2 F / (1+t)^(gamma+4)   (linear seed)
    F'' >= 2^-(gamma+2) (3/pi) (1+t)^-(gamma+5) F^3          (cubic form)

all of which this module evaluates slice by slice against a run.  Each
mass integral here (F, F'' and int u^2 dx, and the data mass C0) is
``grid.mass`` of a row of samples (the slice's live window in a run),
which sums the exact cell integrals of r^2 PL over that row's cells
(``grid.cell_integrals``); a lean stencil run records the first
three per slice, so the chain reads scalar series.  The scalar
comparison ODE built from the linear seed provides a lower envelope for F,
and the seeded power series feeds the Kato-type parameter calculus that
certifies the epsilon-exponent of the blow-up time upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import RadialProfile, mass
from .solver import SolutionHistory

__all__ = [
    "frame_cubic_check",
    "EnvelopeResult",
    "ode_envelope",
    "MassDiagnostics",
    "mass_diagnostics",
    "KatoParams",
    "min_kato_j",
    "j1_for_delta",
    "kato_bound",
]


def _pair_rhs(square_mass: float, F_val: float, gamma: float, t: float) -> float:
    """2^-gamma F (1+t)^-(gamma+2) int u^2 dx: the right side of the pair
    bound, given ``square_mass`` = int u^2 dx."""
    return 2.0 ** (-gamma) * F_val * (1.0 + t) ** (-(gamma + 2.0)) * square_mass


def frame_cubic_check(F_val: float, Fpp_val: float, gamma: float, t: float):
    """(lhs, rhs) of the cubic bound
    F'' >= 2^-(gamma+2) (3/pi) (1+t)^-(gamma+5) F^3."""
    rhs = 2.0 ** (-(gamma + 2.0)) * 3.0 / math.pi * (1.0 + t) ** (-(gamma + 5.0)) * F_val**3
    return Fpp_val, rhs


@dataclass
class EnvelopeResult:
    t: np.ndarray
    envelope: np.ndarray  # comparison-ODE lower bound seeded at t_gamma
    t_gamma: float
    t0: float
    t1: float
    t2: float
    C2: float
    closed_form: np.ndarray  # eps C0 t0 exp(eps C2 t^(-gamma/2)), valid t >= t2
    closed_form_valid: np.ndarray  # boolean mask t >= t2


def _envelope_c2(C0: float, gamma: float) -> float:
    """Rate C2 = C0 2^-((2 gamma + 5)/2) / (-gamma) of the exponential bound."""
    return C0 * 2.0 ** (-(2.0 * gamma + 5.0) / 2.0) / (-gamma)


def ode_envelope(
    epsilon: float,
    C0: float,
    gamma: float,
    t_grid: np.ndarray,
    F_seed: float,
    Fp_seed: float,
    seed_t: float,
) -> EnvelopeResult:
    """Integrate the comparison ODE F'' = eps^2 C0^2 2^-(gamma+1)
    t^2 F / (1+t)^(gamma+4) from ``seed_t`` with run-supplied seed values,
    and evaluate the closed-form exponential lower bound on its validity
    range.

    A run seeds at the grid node nearest t_gamma (the seed values are read
    off a discrete run); comparison keeps the lower-bound property for
    t >= seed_t, and the envelope continues linearly below it.  ``t_grid``
    is ascending.  Only meaningful in the blow-up regime gamma in (-1/2, 0).
    """
    if not (-0.5 < gamma < 0.0):
        raise ValueError("ode_envelope requires gamma in (-1/2, 0)")
    if C0 <= 0.0:
        raise ValueError("C0 must be positive")
    t_gamma = 2.0 / (2.0 + gamma)
    t0 = max(1.0, t_gamma)
    t1 = (2.0 * t0 ** (-gamma / 2.0)) ** (-2.0 / gamma)
    t2 = max(t0, t1)
    C2 = _envelope_c2(C0, gamma)

    t_grid = np.asarray(t_grid, dtype=float)
    env = np.zeros_like(t_grid)
    i0 = int(np.searchsorted(t_grid, seed_t))
    # linear continuation below the seed point (degenerate bound)
    env[: i0 + 1] = np.maximum(0.0, F_seed + Fp_seed * (t_grid[: i0 + 1] - seed_t))
    # RK4 on [seed_t, ...] for y'' = c(t) y
    y = F_seed
    yp = Fp_seed
    tprev = seed_t

    def c_of(tv):
        return (
            epsilon**2 * C0**2 * 2.0 ** (-(gamma + 1.0)) * tv**2 / (1.0 + tv) ** (gamma + 4.0)
        )

    for i in range(i0, len(t_grid)):
        tv = t_grid[i]
        step = tv - tprev
        if step > 0.0:
            # substep for stability on coarse output grids
            nsub = max(1, int(math.ceil(step / 0.05)))
            dt = step / nsub
            tt = tprev
            for _ in range(nsub):
                k1y, k1p = yp, c_of(tt) * y
                k2y, k2p = yp + 0.5 * dt * k1p, c_of(tt + 0.5 * dt) * (y + 0.5 * dt * k1y)
                k3y, k3p = yp + 0.5 * dt * k2p, c_of(tt + 0.5 * dt) * (y + 0.5 * dt * k2y)
                k4y, k4p = yp + dt * k3p, c_of(tt + dt) * (y + dt * k3y)
                y += dt / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
                yp += dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
                tt += dt
        env[i] = y
        tprev = tv

    closed = epsilon * C0 * t0 * np.exp(epsilon * C2 * t_grid ** (-gamma / 2.0))
    return EnvelopeResult(
        t=t_grid,
        envelope=env,
        t_gamma=t_gamma,
        t0=t0,
        t1=t1,
        t2=t2,
        C2=C2,
        closed_form=closed,
        closed_form_valid=t_grid >= t2 - 1e-12,
    )


@dataclass
class MassDiagnostics:
    """The mass-functional chain checked along one run; each group of
    fields is None where the run cannot support it (see mass_diagnostics)."""

    rhs: np.ndarray  # F'' by the identity
    identity_window: np.ndarray | None  # slices of t[1:-1] in [2R, t_numeric - R]
    identity_max_rel: float | None  # worst |d2F - rhs| / |rhs| on the window
    pair_min_ratio: float  # smallest lhs/rhs of the pair bound (inf if none)
    cubic_min_ratio: float  # same for the cubic bound
    envelope: EnvelopeResult | None  # seeded at the slice of t_gamma
    closed_form_dominated: bool | None  # F >= closed form on its validity range
    envelope_dominated: bool | None  # F >= comparison-ODE envelope past the seed


def mass_diagnostics(hist: SolutionHistory, v1: RadialProfile, epsilon: float) -> MassDiagnostics:
    """Mass identity, pair/cubic ratios and envelope checks of a lean run
    from slice 0 on (F is its ``mass``, F'' by the identity its
    ``source_mass`` / (1+t)^2, int u^2 dx its ``square_mass``) with data
    (0, v1) of amplitude ``epsilon``.

    The identity check needs a blown-up run of at least 5 slices; its window
    [2R, t_numeric - R] is past the data transient and clear of the singular
    ramp.  The ratio scan samples about 200 slices until sup u exceeds 1e2.
    The envelope, seeded at the slice of t_gamma = 2/(2+gamma), needs
    gamma < 0 and a run that reaches past that slice.
    """
    if hist.source_mass is None or hist.g_from:
        raise ValueError("mass_diagnostics needs the source_mass and square_mass series "
                         "from slice 0 on: a lean stencil run (solve_dalembert with "
                         "store_history=False, sources_from=0)")
    params, grid = hist.params, hist.grid
    h, R, gamma, n_used = grid.h, params.R, params.gamma, hist.n_used
    t, F = hist.t, hist.mass
    rhs = hist.source_mass / (1.0 + t) ** 2
    window = max_rel = None
    if n_used >= 5 and hist.t_numeric is not None:
        d2F = (F[2:] - 2.0 * F[1:-1] + F[:-2]) / h**2
        tm = t[1:-1]
        in_window = (tm >= 2.0 * R) & (tm <= hist.t_numeric - R)
        rel = np.abs(d2F - rhs[1:-1]) / np.maximum(np.abs(rhs[1:-1]), 1e-300)
        if np.any(in_window):
            window, max_rel = in_window, float(np.max(rel[in_window]))
    worst_pair = worst_cubic = math.inf
    for n in range(1, n_used - 5, max(1, n_used // 200)):
        if hist.sup_u[n] > 1e2:
            break
        # the pair bound's lhs is F'' by the identity, which rhs[n] holds
        rr = _pair_rhs(hist.square_mass[n], F[n], gamma, t[n])
        if rr > 0.0:
            worst_pair = min(worst_pair, rhs[n] / rr)
        lhs2, rr2 = frame_cubic_check(F[n], rhs[n], gamma, t[n])
        if rr2 > 0.0:
            worst_cubic = min(worst_cubic, lhs2 / rr2)
    ig = int(round(2.0 / (2.0 + gamma) / h))  # slice of t_gamma
    env = closed_ok = env_ok = None
    if gamma < 0.0 and 1 <= ig < n_used - 1:
        C0 = mass(v1.samples, grid) / epsilon
        Fp = (F[ig + 1] - F[ig - 1]) / (2.0 * h)
        env = ode_envelope(epsilon, C0, gamma, t, F[ig], Fp, seed_t=ig * h)
        cf = env.closed_form_valid
        closed_ok = bool(np.all(F[cf] >= env.closed_form[cf] * (1.0 - 1e-9)))
        dom = t >= ig * h
        env_ok = bool(np.all(F[dom] >= env.envelope[dom] * (1.0 - 1e-6) - 1e-12))
    return MassDiagnostics(
        rhs=rhs, identity_window=window, identity_max_rel=max_rel,
        pair_min_ratio=worst_pair, cubic_min_ratio=worst_cubic, envelope=env,
        closed_form_dominated=closed_ok, envelope_dominated=env_ok,
    )


@dataclass
class KatoParams:
    """Parameter set of the improved Kato comparison argument at R = 1."""

    p: float
    q: float
    a: float
    A: float
    B_coef: float
    M: float
    j: int
    delta: float
    T0: float
    eps_exponent: float
    D0_symbolic: bool = True  # T0 reported with D0 = 1 (constant not pinned)


def min_kato_j(gamma: float) -> int:
    """Smallest j with M > 0: j >= floor(-3/gamma - 1) + 1."""
    return int(math.floor(-3.0 / gamma - 1.0)) + 1


def _exponent_ok(gamma: float, delta: float, j: int) -> bool:
    s = gamma * (j + 1) + 3.0
    return s < 0.0 and 2.0 * (j + 1) / s > 2.0 / gamma - delta


def j1_for_delta(gamma: float, delta: float) -> int:
    """Smallest j making the epsilon-exponent exceed 2/gamma - delta.

    The exponent 2(j+1)/(gamma(j+1)+3) is below 2/gamma and increases to it,
    so the condition reads j + 1 > 6/(delta gamma^2) - 3/gamma; the analytic
    estimate is then nudged so boundary cases match the strict inequality in
    floating point.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    thr = 6.0 / (delta * gamma * gamma) - 3.0 / gamma
    j = max(min_kato_j(gamma), int(math.floor(thr - 1.0)) + 1)
    while not _exponent_ok(gamma, delta, j):
        j += 1
    while j - 1 >= min_kato_j(gamma) and _exponent_ok(gamma, delta, j - 1):
        j -= 1
    return j


def kato_bound(gamma: float, j: int, epsilon: float, C0: float, t0: float,
               delta: float = 1.0) -> KatoParams:
    """Fill the comparison-lemma parameters for one seed order j.

    A is the coefficient of the seeded lower bound F >= A t^a; the blow-up
    time bound is T0 = D0 A^(-(p-1)/(2M)) with D0 not pinned by the source
    material (reported with D0 = 1 and flagged).
    """
    if not (-0.5 < gamma < 0.0):
        raise ValueError("kato_bound requires gamma in (-1/2, 0)")
    jmin = min_kato_j(gamma)
    if j < jmin:
        raise ValueError(f"need j >= {jmin} for a positive M, got {j}")
    p = 3.0
    q = gamma + 5.0
    a = -gamma * j / 2.0
    M = 0.5 * (p - 1.0) * a - 0.5 * q + 1.0  # = -(gamma (j+1) + 3)/2
    C2 = _envelope_c2(C0, gamma)
    # seed coefficient in log space: the factorial underflows A fast
    logA = (
        (1 + j) * math.log(epsilon)
        + math.log(C0)
        + math.log(t0)
        + j * math.log(C2)
        - math.lgamma(j + 1)
    )
    A = math.exp(logA) if logA > -745.0 else 0.0
    B_coef = 2.0 ** (-(gamma + 2.0)) * 3.0 / math.pi
    log_T0 = -(p - 1.0) / (2.0 * M) * logA
    T0 = math.exp(log_T0) if log_T0 < 709.0 else math.inf
    eps_exponent = 2.0 * (j + 1) / (gamma * (j + 1) + 3.0)
    return KatoParams(
        p=p, q=q, a=a, A=A, B_coef=B_coef, M=M, j=j, delta=delta,
        T0=T0, eps_exponent=eps_exponent,
    )
