"""Characteristic-aligned radial grids and weighted-quadrature primitives.

Everything downstream (cone integrals, convolutions, norms) lives on a
uniform grid with the same spacing ``h`` in ``r`` and ``t``, so every wave
characteristic ``r +- (t - s)`` lands exactly on grid nodes.  Profiles are
piecewise-linear in between nodes and vanish past a support radius that is
a node (``RadialProfile`` raises a cutoff declared inside a cell to the node
that ends it), and all quadrature integrates weight factors ``lambda**e``
analytically against that interpolant, cell by cell, left to right.  Pure
power-law integrands are therefore exact and results are bitwise
reproducible.

``trapezoid_weighted`` (any e, any interval) is the reference.  The fast
paths take their whole-cell integrals from ``cell_integrals``, which reads
the cached exact node weights of ``cell_weights`` (any e), and a support's
cells from ``RadialProfile.support_cells``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Grid", "RadialProfile", "cell_moments", "trapezoid_weighted", "cell_weights",
           "cell_integrals", "mass", "interp"]


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

    def radii(self) -> np.ndarray:
        return np.arange(self.n_r) * self.h

    @classmethod
    def for_domain(cls, h: float, r_max: float, t_max: float) -> "Grid":
        """Grid covering [0, r_max] x [0, t_max]; extents rounded up to nodes."""
        n_r = int(math.ceil(r_max / h - 1e-9)) + 1
        n_t = int(math.ceil(t_max / h - 1e-9)) + 1
        return cls(h=h, n_r=max(n_r, 2), n_t=max(n_t, 1))

    def window(self, n: int, support_cells: int) -> int:
        """Length of the live window of slice n for data supported on
        ``support_cells`` cells: the nodes 0..min(n + support_cells, n_r - 1)
        (finite propagation speed, capped at the grid edge)."""
        return min(n + support_cells, self.n_r - 1) + 1

    def check_cone(self, support_cells: int) -> None:
        """Refuse a grid that does not hold the forward cone of data
        supported on ``support_cells`` cells up to its last slice."""
        if self.n_r - 1 < self.n_t - 1 + support_cells:
            raise ValueError("grid must cover the forward cone: need r_max >= t_max + support")

    def nodes_within(self, rho: float) -> int:
        """Number of nodes with radius k h <= rho + 1e-12: a prefix, since
        k h rounds monotonically in k.  Its end is found from the quotient
        and corrected by the same float comparison, with no radii array."""
        h, n, thr = self.h, self.n_r, rho + 1e-12
        k = min(max(int(thr / h), 0), n)
        while k > 0 and (k - 1) * h > thr:
            k -= 1
        while k < n and not k * h > thr:
            k += 1
        return k

    def index_of_time(self, t: float) -> int:
        """Index of a grid time; rejects off-grid values."""
        n = int(round(t / self.h))
        if not (0 <= n < self.n_t) or abs(n * self.h - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not a grid time of {self}")
        return n


@dataclass(frozen=True)
class RadialProfile:
    """Sampled radial function: piecewise linear between nodes, zero beyond
    ``support_radius``, which is always a node: ``support_cells`` cells
    from the axis.  A cutoff declared inside a cell is raised to the node
    that ends that cell; one within 1e-12 (relative, in cells) of a node is
    that node.  Samples past the declared cutoff must vanish."""

    grid: Grid
    samples: np.ndarray
    support_radius: float = field(default=-1.0)  # -1 means "whole grid"
    support_cells: int = field(init=False)  # support_radius = support_cells * h

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.shape != (self.grid.n_r,):
            raise ValueError(
                f"samples shape {samples.shape} does not match grid n_r={self.grid.n_r}"
            )
        object.__setattr__(self, "samples", samples)
        sr, h, n = self.support_radius, self.grid.h, self.grid.n_r
        if sr < 0.0:
            j = n - 1
        elif not sr <= self.grid.r_max + 1e-12:
            raise ValueError(f"support_radius {sr} exceeds r_max {self.grid.r_max}")
        elif np.any(samples[self.grid.nodes_within(sr) :]):
            raise ValueError("nonzero samples beyond the declared support radius")
        else:
            j = round(sr / h)
            if not math.isclose(sr / h, j, rel_tol=1e-12, abs_tol=1e-12):
                j = math.ceil(sr / h)
            j = min(j, n - 1)
        object.__setattr__(self, "support_cells", j)
        object.__setattr__(self, "support_radius", j * h)

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


# e = 1, 2 of each grid serve every march slice; each kernel reads its
# e = 2 - gamma once.  16 holds cached_kernel's 8 with e = 1, 2 on 4 grids.
@functools.lru_cache(maxsize=16)
def cell_weights(grid: Grid, e: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact node weights (left, right) of the cells [j h, (j + 1) h] of
    ``grid`` for lambda**e, read-only and shared: int_cell lambda**e PL(s)
    = left[j] s_j + right[j] s_{j+1}.  At e = 1, 2 the closed forms
    h^2 (3j + 1, 3j + 2) / 6 and h^3 (6j^2 + 4j + 1, 6j^2 + 8j + 3) / 12,
    one rounding each where h is a power of two; at any other e the
    interpolant integrated against ``cell_moments``."""
    j, h = np.arange(grid.n_r - 1, dtype=float), grid.h
    if e == 1:
        out = (3.0 * j + 1.0) * h**2 / 6.0, (3.0 * j + 2.0) * h**2 / 6.0
    elif e == 2:
        out = (((6.0 * j + 4.0) * j + 1.0) * h**3 / 12.0, ((6.0 * j + 8.0) * j + 3.0) * h**3 / 12.0)
    else:
        x0 = j * h
        m0 = cell_moments(e, x0, x0 + h)
        right = (cell_moments(e + 1.0, x0, x0 + h) - x0 * m0) / h
        out = m0 - right, right
    for a in out:
        a.setflags(write=False)
    return out


def cell_integrals(s: np.ndarray, grid: Grid, e: float, c: int) -> np.ndarray:
    """int lambda**e PL(s) over each cell 0..c-1 of ``grid``, shape (..., c),
    for the samples (..., k) of the first k nodes; zeros follow the row."""
    k = s.shape[-1]
    if k <= c:
        padded = np.zeros(s.shape[:-1] + (c + 1,))
        padded[..., :k] = s
        s = padded
    wl, wr = cell_weights(grid, e)
    return wl[:c] * s[..., :c] + wr[:c] * s[..., 1 : c + 1]


def mass(row: np.ndarray, grid: Grid):
    """4 pi int r^2 PL(row)(r) dr for the samples (..., k) of the first k
    nodes of ``grid``, zero past them; a stack gives one mass per row, each
    the value of its one-row call.  Only the cells that touch a node of the
    window are summed."""
    c = min(row.shape[-1], grid.n_r - 1)
    total = 4.0 * math.pi * cell_integrals(row, grid, 2, c).sum(axis=-1)
    return float(total) if row.ndim == 1 else total


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
