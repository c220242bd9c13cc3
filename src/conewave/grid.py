"""Characteristic-aligned radial grids and weighted-quadrature primitives.

Everything downstream (cone integrals, convolutions, norms) lives on a
uniform grid with the same spacing ``h`` in ``r`` and ``t``, so every wave
characteristic ``r +- (t - s)`` lands exactly on grid nodes.  Profiles are
piecewise-linear in between nodes, and all quadrature integrates weight
factors ``lambda**e`` analytically against that interpolant, cell by cell,
left to right.  Pure power-law integrands are therefore exact and results
are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Grid", "RadialProfile", "cell_moments", "trapezoid_weighted", "MassWeights", "interp"]


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid with dt = dr = h (characteristic alignment)."""

    h: float
    n_r: int
    n_t: int

    def __post_init__(self):
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValueError(f"grid spacing must be positive, got {self.h}")
        if self.n_r < 2:
            raise ValueError(f"need at least two radial nodes, got {self.n_r}")
        if self.n_t < 1:
            raise ValueError(f"need at least one time slice, got {self.n_t}")

    @property
    def r_max(self) -> float:
        return (self.n_r - 1) * self.h

    @property
    def t_max(self) -> float:
        return (self.n_t - 1) * self.h

    def radii(self) -> np.ndarray:
        return np.arange(self.n_r) * self.h

    def times(self) -> np.ndarray:
        return np.arange(self.n_t) * self.h

    @classmethod
    def for_domain(cls, h: float, r_max: float, t_max: float) -> "Grid":
        """Grid covering [0, r_max] x [0, t_max]; extents rounded up to nodes."""
        n_r = int(math.ceil(r_max / h - 1e-9)) + 1
        n_t = int(math.ceil(t_max / h - 1e-9)) + 1
        return cls(h=h, n_r=max(n_r, 2), n_t=max(n_t, 1))

    def index_of_time(self, t: float) -> int:
        """Index of a grid time; rejects off-grid values."""
        n = int(round(t / self.h))
        if not (0 <= n < self.n_t) or abs(n * self.h - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not a grid time of {self}")
        return n


@dataclass(frozen=True)
class RadialProfile:
    """Sampled radial function: piecewise linear between nodes, zero beyond
    ``support_radius`` (the cutoff may fall inside a cell, which makes sharp
    indicator profiles exactly representable)."""

    grid: Grid
    samples: np.ndarray
    support_radius: float = field(default=-1.0)  # -1 means "whole grid"

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.shape != (self.grid.n_r,):
            raise ValueError(
                f"samples shape {samples.shape} does not match grid n_r={self.grid.n_r}"
            )
        object.__setattr__(self, "samples", samples)
        sr = self.support_radius
        if sr < 0.0:
            object.__setattr__(self, "support_radius", self.grid.r_max)
            return
        if sr > self.grid.r_max + 1e-12:
            raise ValueError(f"support_radius {sr} exceeds r_max {self.grid.r_max}")
        beyond = self.grid.radii() > sr + 1e-12
        if np.any(samples[beyond] != 0.0):
            raise ValueError("nonzero samples beyond the declared support radius")

    @property
    def h(self) -> float:
        return self.grid.h

    def __add__(self, other: "RadialProfile") -> "RadialProfile":
        if other.grid != self.grid:
            raise ValueError("profiles live on different grids")
        return RadialProfile(
            self.grid,
            self.samples + other.samples,
            max(self.support_radius, other.support_radius),
        )

    def scaled(self, c: float) -> "RadialProfile":
        return RadialProfile(self.grid, c * self.samples, self.support_radius)


def cell_moments(e: float, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Exact integral of lambda**e over each [x0, x1], elementwise; empty or
    reversed cells give 0.

    Uses expm1/log for stability when e+1 is small or a cell is tiny relative
    to its x0.  Where x0 == 0 the exponent must satisfy e > -1.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    out = np.zeros(np.broadcast(x0, x1).shape)
    live = x1 > x0
    p = e + 1.0
    z = live & (x0 == 0.0)
    if np.any(z):
        if p <= 0.0:
            raise ValueError(f"lambda**{e} is not integrable down to 0")
        out[z] = x1[z] ** p / p
    pos = live & (x0 > 0.0)
    if np.any(pos):
        lg = np.log(x1[pos] / x0[pos])
        if p == 0.0:
            out[pos] = lg
        else:
            out[pos] = x0[pos] ** p * np.expm1(p * lg) / p
    return out


def trapezoid_weighted(p: RadialProfile, weight_exponent: float, a: float, b: float) -> float:
    """integral_a^b lambda**weight_exponent * p(lambda) dlambda.

    The power weight is integrated in closed form against the piecewise-linear
    interpolant of ``p`` on each cell, so degree-<=1 profiles with integer
    exponents come out exact.  Requires 0 <= a <= b <= r_max, and
    weight_exponent > -1 whenever the interval touches 0.
    """
    if a < 0.0 or b < a:
        raise ValueError(f"bad interval [{a}, {b}]")
    if b > p.grid.r_max + 1e-12 * max(1.0, p.grid.r_max):
        raise ValueError(f"b={b} exceeds r_max={p.grid.r_max}")
    b = min(b, p.support_radius)
    if b <= a:
        return 0.0
    h = p.h
    s = p.samples
    j0 = int(a / h)
    j1 = min(int(np.ceil(b / h - 1e-12)), p.grid.n_r - 1)
    cells = np.arange(j0, j1)
    x0 = np.maximum(cells * h, a)
    x1 = np.minimum((cells + 1) * h, b)
    # linear interpolant on cell j: c0 + c1*lambda
    c1 = (s[cells + 1] - s[cells]) / h
    c0 = s[cells] - c1 * cells * h
    m0 = cell_moments(weight_exponent, x0, x1)
    m1 = cell_moments(weight_exponent + 1.0, x0, x1)
    # fixed left-to-right accumulation for reproducibility
    total = 0.0
    contrib = c0 * m0 + c1 * m1
    for v in contrib:
        total += v
    return total


class MassWeights:
    """Vectorized exact integral of r^2 * PL(row) over all cells of a grid,
    for many rows on the same grid."""

    def __init__(self, grid: Grid):
        h = grid.h
        x0 = np.arange(grid.n_r - 1) * h
        x1 = x0 + h
        self.m2 = (x1**3 - x0**3) / 3.0
        self.m3 = (x1**4 - x0**4) / 4.0
        self.x0 = x0
        self.h = h

    def mass(self, row: np.ndarray) -> float:
        """4 pi int r^2 PL(row)(r) dr over the whole grid."""
        c1 = (row[1:] - row[:-1]) / self.h
        c0 = row[:-1] - c1 * self.x0
        return 4.0 * math.pi * float(np.sum(c0 * self.m2 + c1 * self.m3))


def interp(p: RadialProfile, r: float) -> float:
    """Piecewise-linear evaluation of the profile; exact at nodes, zero
    beyond the support radius."""
    if r < 0.0 or r > p.grid.r_max + 1e-12 * max(1.0, p.grid.r_max):
        raise ValueError(f"r={r} outside [0, {p.grid.r_max}]")
    if r > p.support_radius:
        return 0.0
    h = p.h
    j = min(int(r / h), p.grid.n_r - 2)
    w = r / h - j
    return float(p.samples[j] * (1.0 - w) + p.samples[j + 1] * w)
