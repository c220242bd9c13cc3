import math
from fractions import Fraction

import numpy as np
import pytest

from conewave.grid import (
    Grid,
    RadialProfile,
    cell_moments,
    cell_weights,
    interp,
    mass,
    trapezoid_weighted,
)

from conewave.waveops import lam_prefix

from oracles import mass as oracle_mass, random_profile


@pytest.fixture
def grid():
    return Grid(h=1 / 64, n_r=4 * 64 + 1, n_t=3)


def const_profile(grid, c=1.0):
    return RadialProfile(grid, np.full(grid.n_r, c))


class TestGrid:
    def test_alignment_and_extents(self, grid):
        assert grid.r_max == pytest.approx(4.0)
        assert np.allclose(np.diff(grid.radii()), grid.h)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(h=0.0, n_r=4, n_t=1)
        with pytest.raises(ValueError):
            Grid(h=0.1, n_r=1, n_t=1)
        with pytest.raises(ValueError):
            Grid(h=0.1, n_r=4, n_t=0)

    @pytest.mark.parametrize("h", [1 / 8, 1 / 16, 1 / 32, 1 / 64, 0.1, 0.2, 1 / 3, 0.7])
    def test_nodes_within_matches_radii_predicate(self, h):
        # the count of nodes with radii() <= rho + 1e-12, for rho from two
        # cells left of the axis to two cells past the edge, and on and
        # 1e-13 to either side of every node
        g = Grid(h=h, n_r=41, n_t=1)
        r = g.radii()
        rng = np.random.default_rng(int(1 / h))
        rhos = np.concatenate([rng.uniform(-2 * h, g.r_max + 2 * h, 3000), r, r - 1e-13, r + 1e-13])
        for rho in rhos:
            assert g.nodes_within(rho) == np.searchsorted(r, rho + 1e-12, side="right")

    def test_nodes_within_negative_rho(self):
        # no node lies left of the axis; -1e-13 is within 1e-12 of node 0
        g = Grid(h=1 / 8, n_r=9, n_t=1)
        for rho in (-0.05, -0.125, -0.19, -0.35, -10.0):
            assert g.nodes_within(rho) == 0
        assert g.nodes_within(-1e-13) == 1

    def test_index_of_time(self):
        g = Grid(h=0.25, n_r=4, n_t=9)
        assert g.index_of_time(1.5) == 6
        with pytest.raises(ValueError):
            g.index_of_time(1.51)


class TestProfile:
    def test_support_validation(self, grid):
        s = np.zeros(grid.n_r)
        s[10] = 1.0
        with pytest.raises(ValueError):
            RadialProfile(grid, s, support_radius=5 * grid.h)
        RadialProfile(grid, s, support_radius=10 * grid.h)  # edge node allowed

    @pytest.mark.parametrize("h", [1 / 8, 0.1, 1 / 3, 1 / 64])
    def test_support_validation_matches_radii_predicate(self, h):
        # the check raises exactly when a node with radii() > sr + 1e-12
        # carries a nonzero sample: supports on a node, 1e-13 to either
        # side of one, and mid-cell, with one nonzero node near the edge.
        # An accepted profile stores node j, or the node j + 1 that ends
        # the cell when sr lies past node j by more than 1e-12 relative in
        # cells, capped at the grid edge
        g = Grid(h=h, n_r=41, n_t=1)
        for j in (0, 1, 3, 7, 10, 29, 39, 40):
            for sr in (j * h, j * h + 1e-13, j * h - 1e-13, (j + 0.5) * h):
                if not 0.0 <= sr <= g.r_max + 1e-12:
                    continue
                past = sr > j * h and not math.isclose(sr / h, j, rel_tol=1e-12, abs_tol=1e-12)
                node = min(j + past, g.n_r - 1)
                for i in range(max(j - 1, 0), min(j + 3, g.n_r)):
                    samples = np.zeros(g.n_r)
                    samples[i] = 1.0
                    beyond = bool(np.any(samples[g.radii() > sr + 1e-12]))
                    if beyond:
                        with pytest.raises(ValueError, match="beyond the declared support"):
                            RadialProfile(g, samples, support_radius=sr)
                    else:
                        p = RadialProfile(g, samples, support_radius=sr)
                        assert p.support_radius == g.radii()[node]
                        assert p.support_cells * h == p.support_radius

    def test_off_node_cutoff_raised_to_cell_end(self, grid):
        # a cutoff inside cell 10 is stored as node 11, which ends the cell;
        # the samples past the declared cutoff still must vanish
        s = np.zeros(grid.n_r)
        s[:11] = 1.0
        for frac in (0.01, 0.4, 0.99):
            p = RadialProfile(grid, s, support_radius=(10 + frac) * grid.h)
            assert p.support_radius == 11 * grid.h
        s[11] = 1.0
        with pytest.raises(ValueError, match="beyond the declared support"):
            RadialProfile(grid, s, support_radius=10.4 * grid.h)

    def test_node_cutoff_with_roundoff_stays(self):
        # sr / h lies 3.6e-12 cells above node 32756: roundoff, not a cell
        g = Grid(h=0.2, n_r=32801, n_t=1)
        sr = 32746 * 0.2 + 2.0
        assert abs(sr / g.h - 32756) > 1e-12
        p = RadialProfile(g, np.zeros(g.n_r), support_radius=sr)
        assert p.support_radius == g.radii()[32756]

    def test_shape_validation(self, grid):
        with pytest.raises(ValueError):
            RadialProfile(grid, np.zeros(grid.n_r - 1))

    def test_default_support_is_full_grid(self, grid):
        p = const_profile(grid)
        assert p.support_radius == grid.r_max


class TestPowerMoment:
    def test_matches_antiderivative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            e = rng.uniform(-2.5, 3.0)
            x0 = rng.uniform(0.1, 2.0)
            x1 = x0 + rng.uniform(0.0, 3.0)
            got = float(cell_moments(e, x0, x1))
            if abs(e + 1.0) < 1e-12:
                want = math.log(x1 / x0)
            else:
                want = (x1 ** (e + 1) - x0 ** (e + 1)) / (e + 1)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_zero_endpoint(self):
        got = cell_moments(0.5, np.array([0.0, 1.0]), np.array([2.0, 1.0]))
        assert got[0] == pytest.approx(2.0**1.5 / 1.5, rel=1e-14)
        assert got[1] == 0.0  # empty cell
        with pytest.raises(ValueError):
            cell_moments(-1.5, 0.0, 1.0)


class TestTrapezoidWeighted:
    def test_const_profile_weight_one(self, grid):
        # int_1^3 lam dlam = 4
        assert trapezoid_weighted(const_profile(grid), 1.0, 1.0, 3.0) == pytest.approx(
            4.0, rel=1e-12
        )

    def test_zero_profile(self, grid):
        p = const_profile(grid, 0.0)
        assert trapezoid_weighted(p, -0.7, 0.5, 2.5) == 0.0

    def test_linear_profile_weight_zero(self, grid):
        p = RadialProfile(grid, grid.radii())
        assert trapezoid_weighted(p, 0.0, 0.0, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_polynomial_exactness(self, grid):
        # degree <= 1 profiles with integer exponents are exact
        rng = np.random.default_rng(1)
        r = grid.radii()

        def mom(e, lo, hi):
            if e == -1:
                return math.log(hi / lo)
            return (hi ** (e + 1) - lo ** (e + 1)) / (e + 1)

        for e in (-2, -1, 0, 1, 2, 3):
            a0, a1 = rng.normal(size=2)
            p = RadialProfile(grid, a0 + a1 * r)
            lo = 0.5 if e < 0 else 0.0
            hi = 3.5
            want = a0 * mom(e, lo, hi) + a1 * mom(e + 1, lo, hi)
            got = trapezoid_weighted(p, float(e), lo, hi)
            assert got == pytest.approx(want, rel=1e-12)

    def test_linearity_and_additivity(self, grid):
        rng = np.random.default_rng(2)
        p1 = RadialProfile(grid, rng.normal(size=grid.n_r))
        p2 = RadialProfile(grid, rng.normal(size=grid.n_r))
        combo = RadialProfile(grid, 2.0 * p1.samples - 3.0 * p2.samples)
        v = trapezoid_weighted(combo, 0.7, 0.2, 3.1)
        v12 = 2.0 * trapezoid_weighted(p1, 0.7, 0.2, 3.1) - 3.0 * trapezoid_weighted(
            p2, 0.7, 0.2, 3.1
        )
        assert v == pytest.approx(v12, rel=1e-12)
        whole = trapezoid_weighted(p1, 0.7, 0.2, 3.1)
        split = trapezoid_weighted(p1, 0.7, 0.2, 1.7) + trapezoid_weighted(p1, 0.7, 1.7, 3.1)
        assert whole == pytest.approx(split, rel=1e-13)

    def test_domain_errors(self, grid):
        p = const_profile(grid)
        with pytest.raises(ValueError):
            trapezoid_weighted(p, 1.0, 0.0, grid.r_max + 1.0)
        with pytest.raises(ValueError):
            trapezoid_weighted(p, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            trapezoid_weighted(p, -1.0, 0.0, 1.0)  # not integrable at 0

    def test_support_truncation(self, grid):
        # indicator of [0,1]: the cutoff inside the ramp cell is honored
        r = grid.radii()
        ind = RadialProfile(grid, (r <= 1.0 + 1e-12).astype(float), support_radius=1.0)
        assert trapezoid_weighted(ind, 0.0, 0.0, grid.r_max) == pytest.approx(1.0, rel=1e-13)
        assert trapezoid_weighted(ind, 2.0, 0.0, grid.r_max) == pytest.approx(
            1.0 / 3.0, rel=1e-13
        )


class TestMassWeights:
    @pytest.mark.parametrize("h,n_r", [(1 / 64, 257), (1 / 16, 3217), (1 / 7, 300)])
    def test_matches_trapezoid_oracle(self, h, n_r):
        # node-aligned supports: both integrate the same cells; the worst
        # relative gap measured over these rows is 3.5e-14
        grid = Grid(h=h, n_r=n_r, n_t=1)
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_profile(grid, rng, nonneg=True)
            assert mass(p.samples, grid) == pytest.approx(oracle_mass(p), rel=1e-13)

    def test_stack_rows_equal_one_row_calls(self, grid):
        rng = np.random.default_rng(5)
        rows = np.stack([random_profile(grid, rng).samples for _ in range(6)])
        for k in (40, grid.n_r):
            stack = mass(rows[:, :k], grid)
            assert [float(m) for m in stack] == [mass(row[:k], grid) for row in rows]


class TestCellWeights:
    @pytest.mark.parametrize("h,n_r,n0", [(1 / 16, 1617, 1400), (1 / 64, 4000, 3000)])
    def test_exact_on_far_shell(self, h, n_r, n0):
        # a 32-cell shell far from the axis: lam_prefix and mass against
        # exact rational sums of the float samples times the exact weights
        # h^2 (3j + 1, 3j + 2)/6 and h^3 (6j^2 + 4j + 1, 6j^2 + 8j + 3)/12
        grid = Grid(h=h, n_r=n_r, n_t=1)
        row = np.zeros(n_r)
        row[n0 : n0 + 33] = np.random.default_rng(6).uniform(0.5, 1.5, 33)
        s = [Fraction(x) for x in row]
        hf = Fraction(h)
        phi, total2 = [Fraction(0)] * (n0 + 35), Fraction(0)
        for j in range(n0 - 1, n0 + 34):
            cell1 = hf**2 * ((3 * j + 1) * s[j] + (3 * j + 2) * s[j + 1]) / 6
            phi[j + 1] = phi[j] + cell1
            total2 += hf**3 * (
                (6 * j * j + 4 * j + 1) * s[j] + (6 * j * j + 8 * j + 3) * s[j + 1]
            ) / 12
        got = lam_prefix(row, grid)
        assert got[: n0 - 1].tolist() == [0.0] * (n0 - 1)
        err = max(abs(Fraction(got[j]) - phi[j]) for j in range(n0 - 1, n0 + 35))
        assert err <= Fraction(1e-15) * phi[-1]
        assert got[-1] == got[n0 + 34]
        exact = Fraction(4.0 * math.pi) * total2
        for k in (n0 + 33, n0 + 40, n_r):
            assert abs(Fraction(mass(row[:k], grid)) - exact) <= Fraction(1e-15) * exact

    @pytest.mark.parametrize("e", [1, 2, 0, 2.4, -0.5])
    def test_read_only_and_shared(self, grid, e):
        # one cached pair per (grid, e), shared by every caller: a write
        # through any of them would change every later integral
        wl, wr = cell_weights(grid, e)
        for a in (wl, wr):
            assert a.shape == (grid.n_r - 1,)
            with pytest.raises(ValueError):
                a[0] = 1.0
        again = cell_weights(grid, e)
        assert again[0] is wl and again[1] is wr

    @pytest.mark.parametrize("h,n_r", [(1 / 64, 257), (0.1, 41), (1 / 3, 300)])
    @pytest.mark.parametrize("e", [1, 2])
    def test_closed_forms_match_moment_form(self, h, n_r, e):
        # e = 1, 2 take the closed forms; every other e integrates the
        # interpolant with cell_moments, whose m1 - x0 m0 cancels about
        # log2(2 j) bits at cell j: the gap is at most 8.1 (j + 1) ulps
        # over these grids, bounded here by 16 (j + 1)
        grid = Grid(h=h, n_r=n_r, n_t=1)
        x0 = grid.radii()[:-1]
        m0 = cell_moments(e, x0, x0 + h)
        right = (cell_moments(e + 1.0, x0, x0 + h) - x0 * m0) / h
        ulps = 16.0 * np.arange(1, n_r)
        for got, want in zip(cell_weights(grid, e), (m0 - right, right)):
            assert np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want)))


class TestInterp:
    def test_examples(self):
        g = Grid(h=1.0, n_r=3, n_t=1)
        p = RadialProfile(g, np.array([0.0, 1.0, 2.0]))
        assert interp(p, 0.5) == pytest.approx(0.5)
        for j, v in enumerate(p.samples):
            assert interp(p, float(j)) == v
        c = RadialProfile(g, np.full(3, 3.0))
        assert interp(c, 0.7) == pytest.approx(3.0)

    def test_bracketing(self, grid):
        rng = np.random.default_rng(3)
        p = RadialProfile(grid, rng.normal(size=grid.n_r))
        for r in rng.uniform(0.0, grid.r_max, 100):
            j = min(int(r / grid.h), grid.n_r - 2)
            lo = min(p.samples[j], p.samples[j + 1])
            hi = max(p.samples[j], p.samples[j + 1])
            assert lo - 1e-12 <= interp(p, r) <= hi + 1e-12

    def test_domain_error(self, grid):
        with pytest.raises(ValueError):
            interp(const_profile(grid), grid.r_max + 0.1)
        with pytest.raises(ValueError):
            interp(const_profile(grid), -0.1)
