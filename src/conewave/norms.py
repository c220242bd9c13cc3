"""Light-cone weights and the weighted sup norm used by the solver theory.

The solution space carries the norm  sup  tau_plus * N(tau_minus) * |u|
over the forward cone r <= t + R, with

    tau_pm(r, t) = (t +- r + 2R) / R,
    N(p) = p**(g+1)          for g in (-1/2, 2),
           p**3 / log(1+p)   for g = 2,
           p**3              for g in (2, 3).

``slice_x_norm`` takes that supremum over the nodes of one time slice, for
one row or a stack of rows; a run's norm is the running maximum over its
slices, which the solver's recorder keeps from it.  Suprema are taken over
grid nodes, which is a lower bound for the true sup; verifiers that assert
inequalities re-run on refined grids to bound the gap.

The module also holds the Duhamel growth factor ``d_gamma`` and the
randomized check of the two decay-integral lemmas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potential import is_log_branch
from .reports import EstimateReport

__all__ = [
    "WeightParams",
    "tau",
    "n_gamma",
    "weight_row",
    "slice_x_norm",
    "d_gamma",
    "verify_lemma_integrals",
    "NormSeries",
]

@dataclass(frozen=True)
class WeightParams:
    gamma: float
    R: float

    def __post_init__(self):
        if not (-0.5 < self.gamma < 3.0):
            raise ValueError(f"gamma must lie in (-1/2, 3), got {self.gamma}")
        if self.R < 1.0:
            raise ValueError(f"R must be >= 1, got {self.R}")


def tau(r, t, R: float):
    """Weight pair (tau_plus, tau_minus) = ((t+r+2R)/R, (t-r+2R)/R)."""
    return (t + r + 2.0 * R) / R, (t - r + 2.0 * R) / R


def n_gamma(rho, gamma: float):
    """Decay profile N_gamma; log branch selected by ``is_log_branch``."""
    if is_log_branch(gamma):
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        pos = rho > 0.0
        out[pos] = rho[pos] ** 3 / np.log1p(rho[pos])
        return out if out.ndim else float(out)
    if gamma < 2.0:
        return rho ** (gamma + 1.0)
    return rho**3


def weight_row(params: WeightParams, r: np.ndarray, t: float) -> np.ndarray:
    """tau_plus * N(tau_minus) at one time slice; tau_minus is clamped at 0
    so radii beyond the cone (where callers mask anyway) stay finite."""
    tp, tm = tau(r, t, params.R)
    return tp * n_gamma(np.maximum(tm, 0.0), params.gamma)


def slice_x_norm(params: WeightParams, r: np.ndarray, t: float, u: np.ndarray):
    """Supremum of tau_plus * N(tau_minus) * |u| over the nodes r <= t+R of
    one slice, for the samples (..., k) of u at the k sorted nodes ``r``; a
    stack of rows gives one supremum per row.  The nodes taken are a prefix
    of ``r``, so the rows are sliced, not gathered."""
    j = int(np.searchsorted(r, t + params.R + 1e-12, side="right"))
    sup = (weight_row(params, r[:j], t) * np.abs(u[..., :j])).max(axis=-1)
    return float(sup) if u.ndim == 1 else sup


def d_gamma(T: float, gamma: float, R: float) -> float:
    """Duhamel growth factor D_gamma(T): 1/g, log((T+2R)/R), or
    (-g)^-1 ((T+R)/R)^-g depending on the sign of gamma."""
    if T <= 0.0:
        raise ValueError(f"T must be positive, got {T}")
    if gamma > 0.0:
        return 1.0 / gamma
    if gamma == 0.0:
        return math.log((T + 2.0 * R) / R)
    return (1.0 / -gamma) * ((T + R) / R) ** (-gamma)


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


@dataclass
class NormSeries:
    """Per-slice diagnostics of a run: running weighted norm, dissipation
    weight of v = u/(1+t), and the mass functional."""

    t: np.ndarray
    x_norm_running: np.ndarray
    dissipation: np.ndarray
    mass: np.ndarray
    sup_u: np.ndarray

    def rows(self):
        for i in range(len(self.t)):
            yield (
                self.t[i],
                self.x_norm_running[i],
                self.dissipation[i],
                self.mass[i],
                self.sup_u[i],
            )
