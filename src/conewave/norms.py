"""Light-cone weights and the weighted sup norm used by the solver theory.

The solution space carries the norm  sup  tau_plus * N(tau_minus) * |u|
over the forward cone r <= t + R, with

    tau_pm(r, t) = (t +- r + 2R) / R,
    N(p) = p**(g+1)          for g in (-1/2, 2),
           p**3 / log(1+p)   for g = 2,
           p**3              for g in (2, 3).

``slice_x_norm`` takes that supremum over the nodes of one time slice, for
one row or a stack of rows; a run's norm is the running maximum over its
slices (``solver.SolutionHistory.x_norm_running``).  Suprema are taken over
grid nodes, which is a lower bound for the true sup; verifiers that assert
inequalities re-run on refined grids to bound the gap.

The module also holds the Duhamel growth factor ``d_gamma``.  The
estimates these weights enter are certified in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potential import _check_gamma, is_log_branch

__all__ = [
    "WeightParams",
    "tau",
    "n_gamma",
    "weight_row",
    "slice_x_norm",
    "d_gamma",
]

@dataclass(frozen=True)
class WeightParams:
    gamma: float
    R: float

    def __post_init__(self):
        _check_gamma(self.gamma)
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
