"""Scaling benchmark for the two hot kernels.

* slice convolution: FFT moment path vs the O(n^2) per-point path at a
  gamma that takes the FFT path, with the FFT length L that ``apply``
  takes for each n_r, the one-time build of a fresh kernel's moment tables
  (``tables_ms``) and the agreement max |apply - direct| / max |direct|
  of the two; then the closed form that ``apply`` takes at gamma = 0 and
  1, against the exact cell-moment sums of ``tests/oracles.py``;
* causal Duhamel march: the accumulator's characteristic recurrence
  (O(1) per node) vs the long-double direct sum of the same quadrature
  (``tests/oracles.py::duhamel_sum_ld``, O(n_t) per node), timed one
  whole slice per call and extrapolated from a 2 s budget to every slice,
  and the accumulator's last slice against that sum, max |acc - sum|
  / max |sum|, which shows how the recurrence's roundoff grows with n_t.

Run:  PYTHONPATH=src python benchmarks/bench_cone.py
"""

import sys
import time
from pathlib import Path

import numpy as np

from conewave.grid import Grid, RadialProfile
from conewave.potential import ConvolutionKernel, _fft_length, convolve_power
from conewave.waveops import ConeAccumulator

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import duhamel_sum_ld, exact_convolution  # noqa: E402

SIZES = (129, 257, 513, 1025, 2049)


def profile(n: int) -> RadialProfile:
    """A smoothed random signed profile on the lower 7/8 of an n-node grid
    of [0, 4]."""
    grid = Grid(h=4.0 / (n - 1), n_r=n, n_t=1)
    rng = np.random.default_rng(n)
    s = np.convolve(rng.normal(size=n), np.ones(5) / 5, "same")
    s[-n // 8 :] = 0.0
    return RadialProfile(grid, s, support_radius=(n - n // 8 - 1) * grid.h)


def ms_per_call(kern: ConvolutionKernel, w: RadialProfile, reps: int = 20) -> float:
    kern.apply(w)  # builds what the kernel caches (the FFT path's spectrum)
    t0 = time.perf_counter()
    for _ in range(reps):
        kern.apply(w)
    return (time.perf_counter() - t0) / reps * 1e3


def bench_convolution(gamma=-0.4):
    print(f"slice convolution, gamma={gamma}")
    print(
        f"{'n_r':>7} {'fft_L':>7} {'tables_ms':>10} {'fft_ms':>9} {'direct_ms':>10}"
        f" {'speedup':>8} {'max_rel':>9}"
    )
    for n in SIZES:
        w = profile(n)
        kern = ConvolutionKernel(gamma, w.grid)
        t0 = time.perf_counter()
        kern._tables  # built once per kernel, on its first FFT call
        tables_ms = (time.perf_counter() - t0) * 1e3
        fft_ms = ms_per_call(kern, w)
        t0 = time.perf_counter()
        direct = np.array([convolve_power(w, gamma, r) for r in w.grid.radii()])
        direct_ms = (time.perf_counter() - t0) * 1e3
        L = _fft_length(n, w.support_cells)
        max_rel = np.max(np.abs(kern.apply(w) - direct)) / np.max(np.abs(direct))
        print(
            f"{n:>7} {L:>7} {tables_ms:>10.2f} {fft_ms:>9.2f} {direct_ms:>10.1f}"
            f" {direct_ms/fft_ms:>8.1f}x {max_rel:>9.1e}"
        )


def bench_closed_form():
    print("\nslice convolution, closed form (max_rel against the exact sums)")
    print(f"{'n_r':>7} {'ms_g0':>9} {'max_rel_g0':>11} {'ms_g1':>9} {'max_rel_g1':>11}")
    for n in SIZES:
        w = profile(n)
        cols = []
        for gamma in (0.0, 1.0):
            kern = ConvolutionKernel(gamma, w.grid)
            exact = exact_convolution(w, gamma)
            max_rel = np.max(np.abs(kern.apply(w) - exact)) / np.max(np.abs(exact))
            cols.append(f"{ms_per_call(kern, w):>9.3f} {max_rel:>11.1e}")
        print(f"{n:>7} " + " ".join(cols))


def bench_march():
    print("\ncausal march (full Duhamel table)")
    print(f"{'n_t':>7} {'accum_s':>9} {'direct_s':>10} {'speedup':>8} {'max_rel':>9}")
    for n_t in (65, 129, 257, 513, 1025, 2049):
        h = 8.0 / (n_t - 1)
        jr = max(1, int(round(1.0 / h)))
        grid = Grid(h=h, n_r=n_t + jr, n_t=n_t)
        rng = np.random.default_rng(n_t)
        r = grid.radii()
        gt = np.zeros((n_t, grid.n_r))
        for m in range(n_t):
            row = np.convolve(rng.normal(size=grid.n_r), np.ones(5) / 5, "same")
            row[r > m * h + 1.0 + 1e-12] = 0.0
            gt[m] = row

        t0 = time.perf_counter()
        acc = ConeAccumulator(grid, jr)
        for n in range(n_t):
            if n >= 1:
                last = acc.eval_slice(gt[n])
            acc.push_slice(gt[n])
        accum_s = time.perf_counter() - t0
        exact = duhamel_sum_ld(gt, grid, n_t - 1)
        max_rel = np.max(np.abs(last - exact[: last.size])) / np.max(np.abs(exact))

        t0 = time.perf_counter()
        budget = 2.0
        done = 0
        for n in range(1, n_t):
            duhamel_sum_ld(gt, grid, n)
            done += 1
            if time.perf_counter() - t0 > budget:
                break
        direct_s = (time.perf_counter() - t0) * (n_t - 1) / done
        print(
            f"{n_t:>7} {accum_s:>9.3f} {direct_s:>10.1f} {direct_s/accum_s:>8.0f}x"
            f" {max_rel:>9.1e}"
        )


if __name__ == "__main__":
    bench_convolution()
    bench_closed_form()
    bench_march()
