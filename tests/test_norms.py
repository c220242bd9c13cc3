import math

import numpy as np
import pytest

from conewave.grid import Grid
from conewave.norms import (
    WeightParams,
    d_gamma,
    n_gamma,
    slice_x_norm,
    tau,
    weight_row,
)
from conewave.solver import Params, SolutionHistory
from conewave.verify import bilinear_rhs, c1_constant

from oracles import w_weight


class TestTau:
    def test_examples(self):
        assert tau(0.0, 0.0, 1.0) == (2.0, 2.0)
        assert tau(1.0, 1.0, 1.0) == (4.0, 2.0)
        tp, tm = tau(4.0, 3.0, 1.0)  # r = t + R on the cone edge
        assert tm == pytest.approx(1.0)

    def test_cone_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            R = rng.uniform(1.0, 3.0)
            t = rng.uniform(0.0, 50.0)
            r = rng.uniform(0.0, t + R)
            tp, tm = tau(r, t, R)
            assert tm >= 1.0 - 1e-12
            assert tp >= tm


class TestNGamma:
    def test_branches(self):
        assert n_gamma(2.0, 1.0) == pytest.approx(4.0)
        assert n_gamma(1.0, 2.0) == pytest.approx(1.0 / math.log(2.0), rel=1e-12)
        assert n_gamma(3.0, 2.5) == pytest.approx(27.0)

    def test_monotone_per_branch(self):
        rho = np.linspace(0.01, 20.0, 500)
        for g in (-0.4, 0.5, 1.9, 2.0, 2.5):
            vals = n_gamma(rho, g)
            assert np.all(np.diff(vals) > 0.0)

    def test_log_branch_zero_limit(self):
        assert n_gamma(0.0, 2.0) == 0.0


class TestXNorm:
    def setup_method(self):
        self.r = Grid(h=1 / 8, n_r=33, n_t=17).radii()
        self.wp = WeightParams(1.0, 1.0)

    def test_zero(self):
        assert slice_x_norm(self.wp, self.r, 1.0, np.zeros(self.r.size)) == 0.0

    def test_saturating_gives_one(self):
        for t in (0.0, 0.5, 2.0):
            mask = self.r <= t + 1.0 + 1e-12
            u = np.zeros(self.r.size)
            u[mask] = 1.0 / weight_row(self.wp, self.r[mask], t)
            assert slice_x_norm(self.wp, self.r, t, u) == pytest.approx(1.0, rel=1e-12)

    def test_homogeneity(self):
        u = np.random.default_rng(1).normal(size=self.r.size)
        v1 = slice_x_norm(self.wp, self.r, 1.0, u)
        v2 = slice_x_norm(self.wp, self.r, 1.0, 2.0 * u)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-14)

    def test_stack_rows_equal_one_row_calls(self):
        rows = np.random.default_rng(2).normal(size=(5, self.r.size))
        for t in (0.0, 1.0, 40.0):
            for k in (12, self.r.size):
                stack = slice_x_norm(self.wp, self.r[:k], t, rows[:, :k])
                assert stack.shape == (5,)
                want = [slice_x_norm(self.wp, self.r[:k], t, row[:k]) for row in rows]
                assert [float(x) for x in stack] == want


class TestWWeight:
    def test_examples(self):
        assert w_weight(0.0, 0.0, WeightParams(1.0, 1.0)) == pytest.approx(2.0)
        assert w_weight(0.0, 2.0, WeightParams(2.5, 1.0)) == pytest.approx(16.0)
        want = math.log(2.0) * 4.0 / math.log(3.0)
        assert w_weight(0.0, 0.0, WeightParams(2.0, 1.0)) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "gamma, R",
        [(-0.4, 1.0), (0.5, 1.0), (1.9, 1.0), (2.5, 1.0), (2.9, 1.0), (2.0, 1.3), (2.0, 2.0)],
    )
    def test_bilinear_rhs_times_weight_is_c1(self, gamma, R):
        # each branch of bilinear_rhs is C1 / W_R of the same branch
        wp = WeightParams(gamma, R)
        for t in (0.0, 0.7, 5.0, 40.0):
            r = np.linspace(0.0, t + R, 25)
            got = bilinear_rhs(gamma, R, r, t) * np.array([w_weight(x, t, wp) for x in r])
            assert np.allclose(got, c1_constant(gamma, R), rtol=1e-14, atol=0.0)


class TestDGamma:
    def test_examples(self):
        assert d_gamma(7.3, 0.5, 1.0) == pytest.approx(2.0)
        assert d_gamma(1.0, 0.0, 1.0) == pytest.approx(math.log(3.0), rel=1e-12)
        assert d_gamma(1.0, -0.4, 1.0) == pytest.approx(2.5 * 2.0**0.4, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            d_gamma(0.0, 1.0, 1.0)


class TestWeightParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightParams(3.0, 1.0)
        with pytest.raises(ValueError):
            WeightParams(1.0, 0.5)


class TestRunSeries:
    """The per-slice series a run's ``SolutionHistory`` holds."""

    def test_running_sup_nondecreasing(self, global_run):
        _, _, hist = global_run
        assert np.all(np.diff(hist.x_norm_running) >= -1e-15)

    def test_rows_column_order(self):
        grid = Grid.for_domain(0.5, 2.0, 1.0)
        hist = SolutionHistory(
            params=Params(gamma=1.0, R=1.0, grid=grid),
            n_used=2,
            x_norm_running=np.array([0.0, 1.0]),
            dissipation=np.array([0.0, 2.0]),
            mass=np.array([0.0, 3.0]),
            sup_u=np.array([0.0, 4.0]),
        )
        rows = list(hist.rows())
        assert len(rows) == 2
        assert rows[1] == (0.5, 1.0, 2.0, 3.0, 4.0)  # t, x_norm, dissipation, mass, sup_u
