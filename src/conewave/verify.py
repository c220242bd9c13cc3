"""Numerical certification of the estimates behind the global-existence
proof: the weighted multilinear bounds, the free-field decay and the two
decay-integral lemmas.  Every certification returns an ``EstimateReport``.

The bilinear bound controls the convolution term pointwise,

    |(V_gamma*(u w))(x,t)| <= C1 ||u|| ||w|| / W_R(|x|, t),

and the trilinear bound controls the Duhamel term in the weighted norm,

    ||L[(V*(u1 u2)) u3]|| <= C2 D_gamma(T) R^(5-gamma) prod ||u_i||,

with explicit constants traced from the three proof branches (gamma below,
at, and above 2).  Verifiers drive them with weight-saturating profiles
(norm exactly 1 on the grid) plus randomized profiles bounded by the same
envelope, and count violations at 1e-12 slack.

The decay-integral lemmas are checked at random (kappa, r, t) samples:
the two-branch lemma in closed form on both sides, and its log-weighted
variant by panel Gauss quadrature, whose constant is measured only.

Two transcription repairs, recorded in the project notes: the branch above
gamma = 2 is evaluated with max(1, gamma-2) where the printed closing
display has an impossible negative factor, and the gamma = 2 branch is
checked with R > 1 strictly (its derivation uses that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, RadialProfile
from .norms import WeightParams, d_gamma, slice_x_norm, tau, weight_row
from .potential import cached_kernel, convolve_profile, is_log_branch
from .solver import Params
from .waveops import ConeAccumulator, FreeField, derivative_profile

__all__ = [
    "EstimateReport",
    "c1_constant",
    "bilinear_rhs",
    "saturating_profile",
    "verify_bilinear",
    "verify_trilinear",
    "verify_free_decay",
    "verify_lemma_integrals",
]

_SLACK = 1e-12

# the gamma = 2 branch's constant, before its log(1 + R) factors (a prefix
# of the products below, so each keeps its left-to-right evaluation)
_C1_LOG = 2.0 * math.pi * 16.0 * 216.0 / 25.0


@dataclass
class EstimateReport:
    """Outcome of one numerical inequality certification.

    ``violations`` must be zero for asserted inequalities; ``max_ratio`` is
    the largest LHS/RHS seen.  When the reference constant is not explicit,
    ``empirical_constant`` carries the measured sup ratio instead and the
    bound is reported rather than asserted.
    """

    name: str
    samples: int = 0
    max_ratio: float = 0.0
    violations: int = 0
    empirical_constant: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "samples": self.samples,
            "max_ratio": self.max_ratio,
            "violations": self.violations,
            "empirical_constant": self.empirical_constant,
        }
        out.update({k: self.extra[k] for k in sorted(self.extra)})
        return out


def c1_constant(gamma: float, R: float = 1.0) -> float:
    """Explicit bilinear constant of the proof branch containing gamma."""
    if is_log_branch(gamma):
        if R <= 1.0:
            raise ValueError("the gamma = 2 branch requires R > 1")
        return _C1_LOG * math.log1p(R) ** 2
    if gamma < 2.0:
        return (
            16.0
            * math.pi
            * min(1.0, 2.0 - gamma)
            * (1.0 - 3.0 ** (-(2.0 * gamma + 1.0)))
            / ((2.0 - gamma) * (2.0 * gamma + 1.0))
        )
    near = 2.0 * math.pi * 4.0**8 / (3.0**8 * (3.0 - gamma) * 2.0 ** (3.0 - gamma))
    far = (
        4.0
        * math.pi
        * 4.0**gamma
        * max(1.0, gamma - 2.0)
        * (1.0 - 3.0**-5)
        / (5.0 * (gamma - 2.0))
    )
    return near + far


def bilinear_rhs(gamma: float, R: float, r, t) -> np.ndarray:
    """C1 ||u|| ||w|| / W_R at unit norms, i.e. the explicit closing-display
    expression of the branch containing gamma."""
    tp, _ = tau(r, t, R)
    if is_log_branch(gamma):
        if R <= 1.0:
            raise ValueError("the gamma = 2 branch requires R > 1")
        return _C1_LOG * math.log1p(R) * R * tp**-2 * np.log1p(tp)
    expo = gamma if gamma < 2.0 else 2.0
    return c1_constant(gamma, R) * R ** (3.0 - gamma) * tp ** (-expo)


def saturating_profile(gamma: float, R: float, t: float, grid: Grid) -> RadialProfile:
    """The extremal X-norm profile 1/(tau_plus N(tau_minus)) on r <= t + R.

    Every node inside the cone attains weight * |u| = 1, so the grid norm
    is exactly one.
    """
    r = grid.radii()
    wp = WeightParams(gamma, R)
    k = grid.nodes_within(t + R)
    vals = np.zeros(grid.n_r)
    vals[:k] = 1.0 / weight_row(wp, r[:k], t)
    return RadialProfile(grid, vals, support_radius=min(t + R, grid.r_max))


def verify_bilinear(
    gamma: float,
    R: float,
    T: float,
    h: float,
    n_lattice: int = 101,
    n_random: int = 100,
    seed: int = 0,
) -> EstimateReport:
    """Check the convolution bound over a (r, t) lattice in the cone.

    Saturating inputs probe the extremal direction at every lattice time;
    random profiles bounded by the weight envelope (their grid norms enter
    the right side) guard against extremal-only blind spots.
    """
    grid = Grid.for_domain(h, T + R, 0.0)
    r = grid.radii()
    lattice_n = np.unique(np.linspace(0, int(round(T / h)), n_lattice).astype(int))
    max_ratio = 0.0
    violations = 0
    samples = 0

    def score(t, prod, support, nu=1.0, nw=1.0):
        """Count the cone nodes where |V*(prod)| exceeds the bound at norms
        nu, nw; returns the largest ratio."""
        nonlocal max_ratio, violations, samples
        # the cone nodes r <= t + R are a prefix: convolve only there
        k = grid.nodes_within(t + R)
        lhs = convolve_profile(RadialProfile(grid, prod, support), gamma, k)
        ratio = np.abs(lhs) / (bilinear_rhs(gamma, R, r[:k], t) * nu * nw)
        m = float(np.max(ratio))
        violations += int(np.count_nonzero(ratio > 1.0 + _SLACK))
        max_ratio = max(max_ratio, m)
        samples += k
        return m

    per_t: list[tuple[float, float]] = []
    for n in lattice_n:
        t = n * h
        sat = saturating_profile(gamma, R, t, grid)
        per_t.append((t, score(t, sat.samples**2, sat.support_radius)))

    rng = np.random.default_rng(seed)
    t_rand = rng.choice(lattice_n, size=min(10, len(lattice_n)), replace=False)
    wp = WeightParams(gamma, R)
    for n in t_rand:
        t = n * h
        sat = saturating_profile(gamma, R, t, grid)
        for _ in range(n_random // len(t_rand)):
            xi1 = rng.uniform(-1.0, 1.0, size=grid.n_r)
            xi2 = rng.uniform(-1.0, 1.0, size=grid.n_r)
            u = xi1 * sat.samples
            w = xi2 * sat.samples
            nu = slice_x_norm(wp, r, t, u)
            nw = slice_x_norm(wp, r, t, w)
            score(t, u * w, sat.support_radius, nu, nw)

    return EstimateReport(
        name=f"bilinear_gamma_{gamma:g}",
        samples=samples,
        max_ratio=max_ratio,
        violations=violations,
        empirical_constant=max_ratio * c1_constant(gamma, R),
        extra={
            "R": R,
            "T": T,
            "h": h,
            "per_t_max_ratio": [(float(a), float(b)) for a, b in per_t],
        },
    )


def verify_trilinear(gamma: float, R: float, T: float, h: float) -> EstimateReport:
    """March L[(V*(u1 u2)) u3] for saturating inputs and compare its running
    weighted norm against C2 D_gamma R^(5-gamma) with C2 = 2 C1.

    For gamma = 2 no explicit constant is available (a lemma constant is
    cited without value); the ratio is reported rather than asserted, and
    ``empirical_constant`` carries the measured C2.  The step ``h`` must
    divide R, as for any ``Params``.
    """
    params = Params(gamma=gamma, R=R, grid=Grid.for_domain(h, T + R, T))
    grid = params.grid
    wp = params.weights()
    r = grid.radii()
    jr = params.support_cells
    acc = ConeAccumulator(grid, jr)
    kern = cached_kernel(gamma, grid)
    explicit = not is_log_branch(gamma)
    c2 = 2.0 * c1_constant(gamma, R) if explicit else float("nan")
    rfac = R ** (3.0 - gamma) * R * R if explicit else R**3 * math.log1p(R)

    run_norm = 0.0
    t_list: list[float] = []
    norm_list: list[float] = []
    max_ratio = 0.0
    violations = 0
    for n in range(grid.n_t):
        t = n * h
        # the saturating profile on the window, which is its support r <= t + R
        weights = weight_row(wp, r[: grid.window(n, jr)], t)
        g_row = kern.cubic(1.0 / weights)
        if n >= 1:
            # slice_x_norm's sup: every window node lies in the cone
            vals = acc.eval_slice(g_row)
            run_norm = max(run_norm, float(np.max(weights * np.abs(vals))))
            rhs = (c2 if explicit else 1.0) * d_gamma(t, gamma, R) * rfac
            t_list.append(t)
            norm_list.append(run_norm)
            ratio = run_norm / rhs
            max_ratio = max(max_ratio, ratio)
            if explicit and ratio > 1.0 + _SLACK:
                violations += 1
        acc.push_slice(g_row)

    t_arr = np.array(t_list)
    n_arr = np.array(norm_list)
    extra: dict = {"R": R, "T": T, "h": h}
    window = t_arr >= 10.0 * R
    if np.count_nonzero(window) >= 4:
        dvals = np.array([d_gamma(tv, gamma, R) for tv in t_arr[window]])
        if gamma < 0.0:
            slope = np.polyfit(np.log(dvals), np.log(n_arr[window]), 1)[0]
            extra["slope_vs_dgamma"] = float(slope)
        extra["growth_10R_to_T"] = float(n_arr[-1] / n_arr[window][0])
    empirical_c2 = float(
        np.max(n_arr / np.array([d_gamma(tv, gamma, R) for tv in t_arr]) / rfac)
    )
    return EstimateReport(
        name=f"trilinear_gamma_{gamma:g}",
        samples=len(t_list),
        max_ratio=max_ratio,
        violations=violations,
        empirical_constant=empirical_c2,
        extra=extra,
    )


def verify_free_decay(v0: RadialProfile, v1: RadialProfile, grid: Grid, R: float) -> EstimateReport:
    """Empirical shell-decay constant of the free field:
    sup over the shell of (t+r+R)|u0| divided by a radial surrogate of the
    C^2 x C^1 data norm.  Boundedness (no growth trend) is the claim; the
    constant itself is empirical.  R is a whole number of cells; each slice
    is evaluated on its live window only, and read on the shell nodes."""
    dv0 = derivative_profile(v0)
    ddv0 = derivative_profile(dv0)
    dv1 = derivative_profile(v1)
    data_norm = float(
        np.max(np.abs(v0.samples) + np.abs(dv0.samples) + np.abs(ddv0.samples))
        + np.max(np.abs(v1.samples) + np.abs(dv1.samples))
    )
    if data_norm == 0.0:
        return EstimateReport(name="free_decay", samples=0, extra={"series": []})
    ff = FreeField(v0, v1, grid)
    r = grid.radii()
    jr = int(round(R / grid.h))
    series: list[tuple[float, float]] = []
    best = 0.0
    # the shell t - R <= r <= t + R: nodes n - jr .. n + jr, while n - jr < n_r
    for n in range(min(grid.n_t, grid.n_r + jr)):
        t = n * grid.h
        k = grid.window(n, jr)
        lo = max(0, n - jr)
        row = ff.slice(n, k)[lo:]
        val = float(np.max((t + r[lo:k] + R) * np.abs(row))) / data_norm
        series.append((t, val))
        best = max(best, val)
    return EstimateReport(
        name="free_decay",
        samples=len(series),
        max_ratio=0.0,
        violations=0,
        empirical_constant=best,
        extra={"series": series, "data_norm": data_norm},
    )


# ---------------------------------------------------------------------------
# Decay-integral lemma verification
# ---------------------------------------------------------------------------


def _lhs_decay(kappa: float, r: float, t: float) -> float:
    """int_{|r-t|}^{r+t} (1+lam)^-(kappa+1) dlam in closed form."""
    lo = 1.0 + abs(r - t)
    hi = 1.0 + r + t
    if kappa == 0.0:
        return math.log(hi / lo)
    return (lo ** (-kappa) - hi ** (-kappa)) / kappa


def _rhs_decay(kappa: float, r: float, t: float) -> float:
    b_sum = 1.0 + abs(t + r)
    b_dif = 1.0 + abs(t - r)
    if kappa > 0.0:
        return 2.0 * max(1.0, kappa) / kappa * min(r, t) / (b_sum * b_dif**kappa)
    if kappa == 0.0:
        return math.log(b_sum / b_dif)
    return 2.0 * max(1.0, -kappa) / (-kappa) * min(r, t) / b_sum ** (kappa + 1.0)


_log_gauss = np.polynomial.legendre.leggauss(16)


def _lhs_decay_log(kappa: float, r: float, t: float) -> float:
    """int_{|r-t|}^{r+t} (1+lam)^-(kappa+1) log(2+lam) dlam by panel Gauss."""
    lo, hi = abs(r - t), r + t
    if hi <= lo:
        return 0.0
    n_panel = max(8, min(256, int((hi - lo))))
    edges = np.linspace(lo, hi, n_panel + 1)
    x, w = _log_gauss
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    lam = mid[:, None] + half[:, None] * x[None, :]
    f = (1.0 + lam) ** (-(kappa + 1.0)) * np.log(2.0 + lam)
    return float(np.sum(f * w[None, :] * half[:, None]))


def verify_lemma_integrals(samples: int, seed: int = 0) -> EstimateReport:
    """Randomized check of the two decay-integral lemmas.

    The two-branch lemma (closed forms on both sides) is asserted: the
    report counts violations and the max LHS/RHS ratio.  The log-weighted
    variant has no explicit constant, so its sup ratio against the stated
    shape is only measured and stored in ``empirical_constant``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    max_ratio = 0.0
    violations = 0
    for _ in range(samples):
        kappa = rng.uniform(-2.0, 4.0)
        if abs(kappa) < 1e-3:
            kappa = 1e-3 if kappa >= 0 else -1e-3
        r = rng.uniform(0.0, 100.0)
        t = rng.uniform(0.0, 100.0)
        lhs = _lhs_decay(kappa, r, t)
        rhs = _rhs_decay(kappa, r, t)
        if lhs > rhs * (1.0 + 1e-12) + 1e-300:
            violations += 1
        if rhs > 0.0:
            max_ratio = max(max_ratio, lhs / rhs)

    emp = 0.0
    n_log = max(1, samples // 10)
    for _ in range(n_log):
        kappa = rng.uniform(0.05, 4.0)
        r = rng.uniform(0.01, 100.0)
        t = rng.uniform(0.01, 100.0)
        lhs = _lhs_decay_log(kappa, r, t)
        b_dif = 1.0 + abs(t - r)
        shape = min(r, t) * math.log1p(b_dif) / ((1.0 + t + r) * b_dif**kappa)
        if shape > 0.0:
            emp = max(emp, lhs / shape)
    return EstimateReport(
        name="decay_integral_lemmas",
        samples=samples,
        max_ratio=max_ratio,
        violations=violations,
        empirical_constant=emp,
        extra={"log_variant_samples": n_log},
    )
