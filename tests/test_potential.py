import math

import mpmath
import numpy as np
import pytest

from conewave.grid import Grid, RadialProfile, trapezoid_weighted
from conewave.potential import (
    ConvolutionKernel,
    _fft_length,
    _moment_tables,
    cached_kernel,
    convolve_power,
    convolve_profile,
    is_log_branch,
)
from conewave.solver import Params, make_data, solve_march

from oracles import (
    exact_convolution,
    kernel_value,
    mc_convolution,
    mp_convolution,
    random_profile,
)


@pytest.fixture
def grid():
    return Grid(h=1 / 64, n_r=4 * 64 + 1, n_t=1)


@pytest.fixture
def ball(grid):
    r = grid.radii()
    return RadialProfile(grid, (r <= 1.0 + 1e-12).astype(float), support_radius=1.0)


class TestClosedForms:
    def test_gamma0_total_mass(self, ball):
        for r in (0.0, 0.3, 0.7, 1.5):
            assert convolve_power(ball, 0.0, r) == pytest.approx(4 * math.pi / 3, rel=1e-12)

    def test_gamma1_axis(self, ball):
        assert convolve_power(ball, 1.0, 0.0) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_gamma1_newton_exterior(self, ball):
        assert convolve_power(ball, 1.0, 2.0) == pytest.approx(2 * math.pi / 3, rel=1e-12)
        # general profile: (V_1*w)(r) = mass(w)/(4 pi r) * 4 pi outside support
        rng = np.random.default_rng(5)
        w = random_profile(ball.grid, rng, nonneg=True)
        mass = 4 * math.pi * trapezoid_weighted(w, 2.0, 0.0, w.grid.r_max)
        r = w.support_radius + 0.8
        assert convolve_power(w, 1.0, r) == pytest.approx(mass / r, rel=1e-10)

    def test_gamma1_interior_harmonic(self, ball):
        # inside a uniform unit ball: 2 pi - (2 pi/3) r^2
        for r in (0.25, 0.5, 0.75):
            want = 2 * math.pi - 2 * math.pi / 3 * r * r
            assert convolve_power(ball, 1.0, r) == pytest.approx(want, rel=1e-12)

    def test_gamma_domain_error(self, ball):
        for g in (-0.5, 3.0, 3.5):
            with pytest.raises(ValueError):
                convolve_power(ball, g, 0.5)


class TestKernel:
    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for gamma in (-0.4, 0.5, 1.0, 2.0, 2.5):
            for _ in range(50):
                r, rho = rng.uniform(0.05, 5.0, 2)
                lhs = r * kernel_value(gamma, r, rho) / rho
                rhs = rho * kernel_value(gamma, rho, r) / r
                assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for gamma in (-0.4, 1.0, 2.0, 2.9):
            for _ in range(50):
                r, rho = rng.uniform(0.0, 5.0, 2)
                if abs(r - rho) < 1e-12:
                    continue
                assert kernel_value(gamma, r, rho) >= 0.0


class TestPaths:
    @pytest.mark.parametrize("gamma", [-0.4, 0.0, 0.5, 1.0, 2.0, 2.5])
    def test_slice_matches_point(self, gamma, grid):
        rng = np.random.default_rng(int(10 * (gamma + 1)))
        w = random_profile(grid, rng)
        # the same samples with the cutoff declared 0.4 cells past the last
        # nonzero node: the profile raises it to the node that ends the cell,
        # which is the support of ``w``, so both paths see ``w`` bit for bit
        n_sup = round(w.support_radius / grid.h)
        off = RadialProfile(grid, w.samples, support_radius=(n_sup - 0.6) * grid.h)
        assert off.support_radius == w.support_radius
        fast = convolve_profile(w, gamma)
        assert convolve_profile(off, gamma).tobytes() == fast.tobytes()
        for prof in (w, off):
            direct = np.array([convolve_power(prof, gamma, r) for r in grid.radii()])
            scale = np.max(np.abs(direct)) + 1e-300
            assert np.max(np.abs(fast - direct)) / scale < 1e-10

    def test_profile_cache_keys_on_whole_grid(self, grid):
        # grids that share h and n_r but not n_t (a verify run's bilinear
        # and trilinear grids can) each get their own kernel
        rng = np.random.default_rng(11)
        for n_t in (1, 5):
            w = random_profile(Grid(h=grid.h, n_r=grid.n_r, n_t=n_t), rng)
            assert np.array_equal(convolve_profile(w, 1.0), ConvolutionKernel(1.0, w.grid).apply(w))

    def test_near_log_branch_stability(self, grid):
        rng = np.random.default_rng(7)
        w = random_profile(grid, rng, nonneg=True)
        base = convolve_profile(w, 2.0)
        for g in (2.0 - 1e-6, 2.0 + 1e-6):
            close = convolve_profile(w, g)
            assert np.max(np.abs(close - base)) / np.max(np.abs(base)) < 1e-4

    @pytest.mark.parametrize("cells, bound", [(64.4, 1e-10), (64.0, 1e-11)])
    def test_log_branch_far_node_against_mpmath(self, cells, bound):
        # the cutoff declared inside cell 64 is raised to node 65, so the
        # last cell ramps to 0; at far nodes the slice tables' m = 2
        # combination cancels ~base^2
        grid = Grid(h=1 / 16, n_r=2049, n_t=1)
        r = grid.radii()
        b = cells * grid.h
        w = RadialProfile(grid, np.where(r <= b, 1.0 + 0.5 * np.cos(r), 0.0), support_radius=b)
        got = ConvolutionKernel(2.0, grid).apply(w, n_out=2001)[2000]
        want = mp_convolution(w, 2.0, r[2000])
        assert got == pytest.approx(want, rel=bound)

    @pytest.mark.parametrize("gamma", [-0.4, 1.0, 2.0])
    def test_reference_far_nodes_against_mpmath(self, gamma):
        # the reference's rho-polynomial form cancels ~(r/rho)^2 of
        # significance at far targets: with float64 z-moments it was off by
        # 9.4e-12 to 2.4e-9 here, with long double by 1.7e-14 to 6.1e-13
        grid = Grid(h=1 / 16, n_r=2049, n_t=1)
        w = positive_profile(grid, 64)
        for i in np.linspace(1024, 2048, 4).astype(int):
            r = float(i * grid.h)
            want = mp_convolution(w, gamma, r, dps=40)
            assert abs(convolve_power(w, gamma, r) - want) <= 2e-12 * abs(want)

    @pytest.mark.parametrize("cells, bound", [(5.0, 1e-11), (5.5, 1e-9)])
    def test_reference_log_branch_against_mpmath(self, cells, bound):
        # ROADMAP item 3's probe on the reference: float64 log moments were
        # off by 4.3e-8 (5.0 cells) and 2.0e-6 (5.5 cells), long double by
        # 6.3e-13 and 1.5e-10; the 5.5-cell cutoff now reads as the 6-cell
        # node profile, 8.6e-10 off
        w = log_branch_probe(cells)
        r = 1000 * w.h
        want = mp_convolution(w, 2.0, r, dps=40)
        assert abs(convolve_power(w, 2.0, r) - want) <= bound * abs(want)

    @pytest.mark.parametrize("gamma", [-0.4, 1.0, 2.0])
    def test_reference_split_at_target(self, gamma):
        # the |r - rho| part splits the cells at r: a target inside a cell,
        # on a node, on the support's last node, past the support and in
        # [h/2, h); measured at most 3.4e-16 off
        grid = Grid(h=1 / 16, n_r=65, n_t=1)
        w = positive_profile(grid, 20)
        for cells in (7.37, 9, 20, 27.5, 0.5, 0.8):
            r = cells * grid.h
            want = mp_convolution(w, gamma, r)
            assert abs(convolve_power(w, gamma, r) - want) <= 2e-15 * abs(want)

    @pytest.mark.parametrize("node", [6, 18])
    def test_reference_node_on_non_dyadic_grid(self, node):
        # on h = 0.1 a cell that ended at j h + h and the next that began at
        # (j + 1) h left a one-ulp gap at node 6 and an overlap at node 18,
        # which the z**0.5 of gamma = 2.5 read as 7.5e-9 and 1.2e-8; with
        # one set of node edges both read 0 at 30 digits
        grid = Grid(h=0.1, n_r=65, n_t=1)
        w = positive_profile(grid, 20)
        r = float(grid.radii()[node])
        want = mp_convolution(w, 2.5, r)
        assert abs(convolve_power(w, 2.5, r) - want) <= 2e-15 * abs(want)

    @pytest.mark.parametrize("gamma", [-0.4, 0.5, 2.0, 2.5])
    @pytest.mark.parametrize("n", [9, 1025])
    def test_moment_tables_against_mpmath(self, gamma, n):
        # P_m(s) = int_0^1 xi^m (s + xi)^d, Q_m(s) = int_0^1 xi^m (s - xi)^d
        # (log(s +- xi) at gamma = 2) against 40-digit quadrature.  The m = 2
        # combination cancels ~s^2 on top of the power difference's own
        # ~s: measured at most 5.1e-16 for s <= 16, 1.5e-10 at s = 1024
        # and 1.9e-9 at s = 2048, under the bound 1e-15 max(s, 1)^2
        P, Q = _moment_tables(gamma, n)
        assert P.shape == (3, 2 * n - 1) and Q.shape == (3, n)
        assert not Q[:, 0].any()
        with mpmath.workdps(40):
            d = 2 - mpmath.mpf(gamma)
            kern = mpmath.log if is_log_branch(gamma) else (lambda z: z**d)
            for m in range(3):
                for table, sign, points in ((P, 1, (0, 1, n - 1, 2 * n - 2)), (Q, -1, (1, n - 1))):
                    for s in points:
                        want = float(mpmath.quad(lambda x: x**m * kern(s + sign * x), [0, 1]))
                        assert abs(table[m, s] - want) <= 1e-15 * max(s, 1) ** 2 * abs(want)


def log_branch_probe(cells: float) -> RadialProfile:
    """1 + 0.5 cos 40r up to ``cells`` cells of a 1025-node grid, h = 1/256,
    and 0 past it: node 1000 is a far target of a narrow support.  A
    fractional ``cells`` declares the cutoff inside a cell, which the
    profile raises to the node that ends that cell."""
    grid = Grid(h=1 / 256, n_r=1025, n_t=1)
    r = grid.radii()
    b = cells * grid.h
    return RadialProfile(grid, np.where(r <= b, 1.0 + 0.5 * np.cos(40.0 * r), 0.0), b)


def positive_profile(grid, cells: float) -> RadialProfile:
    """Smooth profile, positive up to ``cells`` cells and zero beyond.  A
    fractional ``cells`` declares the cutoff inside a cell, which the
    profile raises to the node that ends that cell: its last cell ramps to
    0."""
    r = grid.radii()
    b = cells * grid.h
    x = np.minimum(r / b, 1.0)
    s = (1.0 - 0.9 * x * x) * (1.0 + 0.5 * np.cos(8.0 * r / b))
    s[r > b + 1e-12] = 0.0
    return RadialProfile(grid, s, support_radius=b)


class TestWindow:
    """The windowed slice path against the all-node path and the references."""

    @pytest.mark.parametrize("gamma", [-0.4, 0.0, 1.0, 2.0, 2.5])
    @pytest.mark.parametrize("cells", [1, 64, 200, 256])
    def test_cubic_matches_full_path(self, gamma, cells, grid):
        # the window of k = cells + 1 nodes is the support of u: cubic is
        # apply on those nodes, bit for bit, and matches the point path.
        # (The all-node apply is no reference here: its longer transform
        # puts 2.6e-10 of roundoff on node 1 of a one-cell support at
        # gamma = -0.4.)
        kern = ConvolutionKernel(gamma, grid)
        u = positive_profile(grid, cells)
        sq = RadialProfile(grid, u.samples * u.samples, u.support_radius)
        k = cells + 1
        got = kern.cubic(u.samples[:k])
        assert got.tobytes() == (kern.apply(sq, n_out=k) * u.samples[:k]).tobytes()
        want = np.array([convolve_power(sq, gamma, r) for r in grid.radii()[:k]]) * u.samples[:k]
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    @pytest.mark.parametrize("gamma", [-0.4, 0.0, 1.0, 2.0, 2.5])
    @pytest.mark.parametrize("cells", [64, 64.4, 200.7])
    def test_cubic_prefix_bitwise(self, gamma, cells, grid):
        # a zero tail past the support changes no bit of the convolution,
        # so the source of a window equals that of its zero-padded full
        # row; a cutoff declared inside a cell ends on the node that ends
        # the cell, so the window up to that node is the support
        kern = ConvolutionKernel(gamma, grid)
        u = positive_profile(grid, cells)
        J = u.support_cells
        sq = u.samples * u.samples
        k = math.ceil(cells) + 1
        assert J == k - 1 and u.support_radius == (k - 1) * grid.h
        for m in (k, grid.n_r):
            want = kern._convolve(sq[:k], J, m).tobytes()
            for tail in (k + 1, grid.n_r):
                assert kern._convolve(sq[:tail], J, m).tobytes() == want
        full = kern._convolve(sq, J, k) * u.samples[:k]
        assert kern.cubic(u.samples[:k]).tobytes() == full.tobytes()

    @pytest.mark.parametrize("gamma", [-0.4, 0.0, 1.0, 2.0, 2.5])
    @pytest.mark.parametrize("cells", [64, 64.4])
    def test_window_prefix(self, gamma, cells, grid):
        kern = ConvolutionKernel(gamma, grid)
        w = positive_profile(grid, cells)
        full = kern.apply(w)
        for m in (1, 2, 65, 66, 130, grid.n_r):
            win = kern.apply(w, n_out=m)
            assert win.shape == (m,)
            assert np.max(np.abs(win - full[:m]) / np.abs(full[:m])) <= 1e-12

    @pytest.mark.parametrize("gamma", [-0.4, 0.0, 1.0, 2.0, 2.5])
    @pytest.mark.parametrize("cells", [64, 256])
    def test_cubic_row_stack_bitwise(self, gamma, cells, grid):
        # a stack of rows (the points of a lockstep march) gives each row's
        # one-row source bit for bit, on a live window and on full rows
        kern = ConvolutionKernel(gamma, grid)
        k = cells + 1
        u = positive_profile(grid, cells).samples[:k]
        stack = np.stack([u, 0.5 * u, 3.0 * u * (1.0 + np.sin(grid.radii()[:k]))])
        got = kern.cubic(stack)
        assert got.shape == (3, k)
        for row, want in zip(got, stack):
            assert row.tobytes() == kern.cubic(want).tobytes()

    def test_window_bounds(self, grid):
        kern = ConvolutionKernel(1.0, grid)
        w = positive_profile(grid, 64)
        for m in (0, grid.n_r + 1):
            with pytest.raises(ValueError):
                kern.apply(w, n_out=m)

    @pytest.mark.parametrize("gamma", [-0.4, 1.0, 2.0, 2.5])
    def test_axis_dot_matches_trapezoid(self, gamma, grid):
        kern = ConvolutionKernel(gamma, grid)
        for cells in (1, 2, 64, 65, grid.n_r - 1):
            w = positive_profile(grid, cells)
            want = 4 * math.pi * trapezoid_weighted(w, 2.0 - gamma, 0.0, grid.r_max)
            assert abs(kern.apply(w, n_out=1)[0] - want) <= 1e-14 * abs(want)

    def test_spectrum_cache_bounded(self):
        # one spectrum per FFT length of the ladder: a march whose support
        # grows over 640 slices of a 1025-node grid stays within log2(4 n_r)
        cached_kernel.cache_clear()
        grid = Grid.for_domain(1 / 16, 64.0, 40.0)
        assert grid.n_r >= 1000 and grid.n_t >= 600
        data = make_data("bump_v1_only", 1e-3, 1.0, grid)
        params = Params(gamma=0.5, R=1.0, grid=grid)
        hist = solve_march(params, data, store_history=False)
        assert hist.n_used == grid.n_t
        kern = cached_kernel(0.5, grid)
        assert 1 <= len(kern._spectra) <= math.ceil(math.log2(4 * grid.n_r))
        # the march convolves u^2 on its window: m nodes over J = m - 1 cells
        ladder = {_fft_length(m, m - 1) for m in range(1, grid.n_r + 1)}
        assert set(kern._spectra) <= ladder
        # the polynomial kernel of gamma = 1 marches on its closed form
        hist = solve_march(Params(gamma=1.0, R=1.0, grid=grid), data, store_history=False)
        assert hist.n_used == grid.n_t
        kern = cached_kernel(1.0, grid)
        assert kern._spectra == {} and "_tables" not in vars(kern)

    def test_fft_length_separates_p_and_q(self):
        # every (n_out, support cells) pair of a 130-node grid: the
        # reflected Q part fits in the top floor(L/3) entries and P below
        # them, and L is 2^a or 3 * 2^a
        n_r = 130
        for m in range(1, n_r + 1):
            for J in range(n_r):
                L = _fft_length(m, J)
                third = L // 3
                assert third >= m - 1 and L - third >= m + J - 1
                odd = L // (L & -L)
                assert odd in (1, 3)

    @pytest.mark.parametrize("n_r, bound", [(513, 6.9e-12), (2049, 3.3e-10)])
    def test_far_nodes_at_scale(self, n_r, bound):
        # a 64-cell support read at 32 nodes of the outer half, where the
        # Hankel and Toeplitz parts cancel, so aliasing between the P and
        # reflected Q halves of the spectrum would show; the bound is ten
        # times the difference the two-correlation path showed (6.9e-13 at
        # n_r = 513, 3.3e-11 at 2049), measured against the float64
        # reference, which was off by up to 1e-11 itself at n_r = 2049
        grid = Grid(h=1 / 16, n_r=n_r, n_t=1)
        w = positive_profile(grid, 64)
        nodes = np.linspace(n_r // 2, n_r - 1, 32).astype(int)
        for gamma in (-0.4, 1.0, 2.5):
            fast = ConvolutionKernel(gamma, grid).apply(w)[nodes]
            ref = np.array([convolve_power(w, gamma, float(i * grid.h)) for i in nodes])
            assert np.max(np.abs(fast - ref) / np.abs(ref)) <= bound

    @pytest.mark.parametrize(
        "n_r, gamma, cells, bound",
        [
            (513, 0.0, 64, 6.4e-12), (2049, 0.0, 64, 1.3e-11), (8193, 0.0, 64, 1.3e-9),
            (513, 0.0, 64.4, 6.2e-12), (2049, 0.0, 64.4, 4.8e-11), (8193, 0.0, 64.4, 1.3e-9),
            (513, 1.0, 64, 2.0e-13), (2049, 1.0, 64, 1.7e-12), (8193, 1.0, 64, 9.8e-12),
            (513, 1.0, 64.4, 5.9e-13), (2049, 1.0, 64.4, 3.7e-11), (8193, 1.0, 64.4, 2.9e-9),
        ],
    )
    def test_exact_polynomial_kernels_at_scale(self, n_r, gamma, cells, bound):
        # at gamma = 0 and 1 the shell kernel is a polynomial, so the
        # convolution has an exact closed form at every node: an oracle for
        # the FFT path, which ``apply`` takes at every other gamma; each
        # bound is ten times the error of the power-of-two layout (P on
        # [0, L/2)).  The 64.4 rows declare the cutoff inside cell 64,
        # which the profile raises to node 65; their bounds were set when
        # that cell was cut at the cutoff
        grid = Grid(h=1 / 16, n_r=n_r, n_t=1)
        w = positive_profile(grid, cells)
        want = exact_convolution(w, gamma)
        got = ConvolutionKernel(gamma, grid)._convolve_fft(w.samples, w.support_cells, n_r)
        assert np.max(np.abs(got - want) / np.abs(want)) <= bound

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    @pytest.mark.parametrize("n_r", [513, 2049, 8193])
    def test_closed_form_at_scale(self, n_r, gamma):
        # at gamma = 0 and 1 ``apply`` sums cell integrals, so it stays at
        # a few ulps up to the largest grid, where the FFT path was off by
        # up to 1.3e-4 (one cell at n_r = 8193), and builds no FFT tables
        grid = Grid(h=1 / 16, n_r=n_r, n_t=1)
        kern = ConvolutionKernel(gamma, grid)
        for cells in (1, 64, n_r - 1):
            w = positive_profile(grid, cells)
            want = exact_convolution(w, gamma)
            got = kern.apply(w)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13
        assert kern._spectra == {} and "_tables" not in vars(kern)

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_closed_form_signed_profile(self, gamma):
        # a signed profile on most of a 2049-node grid, at 33 nodes from the
        # axis to the edge, against the long-double reference
        grid = Grid(h=1 / 16, n_r=2049, n_t=1)
        w = random_profile(grid, np.random.default_rng(3))
        nodes = np.linspace(0, grid.n_r - 1, 33).astype(int)
        got = ConvolutionKernel(gamma, grid).apply(w)[nodes]
        want = np.array([convolve_power(w, gamma, float(i * grid.h)) for i in nodes])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestProperties:
    def test_monotonicity(self, grid):
        rng = np.random.default_rng(2)
        w1 = random_profile(grid, rng, nonneg=True)
        extra = np.abs(np.convolve(rng.normal(size=grid.n_r), np.ones(5) / 5, "same"))
        extra[int(w1.support_radius / grid.h) :] = 0.0
        w2 = RadialProfile(grid, w1.samples + extra, w1.support_radius)
        for gamma in (-0.4, 1.0, 2.5):
            c1 = convolve_profile(w1, gamma)
            c2 = convolve_profile(w2, gamma)
            assert np.all(c2 >= c1 - 1e-12 * np.max(np.abs(c2)))

    def test_mc_oracle_spot(self, grid):
        rng = np.random.default_rng(11)
        w = random_profile(grid, rng, nonneg=True)
        for gamma in (0.5, 2.5):
            r0 = float(rng.uniform(0.0, 1.5))
            if r0 < grid.h / 2:
                r0 = 0.0
            est, err = mc_convolution(w, gamma, r0, 200_000, rng)
            got = convolve_power(w, gamma, r0)
            assert abs(got - est) <= 3.0 * err
