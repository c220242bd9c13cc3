import math

import numpy as np
import pytest

from conewave.grid import Grid
from conewave.norms import (
    NormSeries,
    WeightParams,
    d_gamma,
    n_gamma,
    tau,
    verify_lemma_integrals,
    w_weight,
    weight_row,
    x_norm,
)


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
        self.grid = Grid(h=1 / 8, n_r=33, n_t=17)
        self.wp = WeightParams(1.0, 1.0)

    def test_zero(self):
        u = np.zeros((self.grid.n_t, self.grid.n_r))
        assert x_norm(u, self.wp, self.grid) == 0.0

    def test_saturating_gives_one(self):
        r = self.grid.radii()
        u = np.zeros((self.grid.n_t, self.grid.n_r))
        for n in range(self.grid.n_t):
            t = n * self.grid.h
            mask = r <= t + 1.0 + 1e-12
            u[n][mask] = 1.0 / weight_row(self.wp, r[mask], t)
        assert x_norm(u, self.wp, self.grid) == pytest.approx(1.0, rel=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=(self.grid.n_t, self.grid.n_r))
        v1 = x_norm(u, self.wp, self.grid)
        v2 = x_norm(2.0 * u, self.wp, self.grid)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-14)

    def test_up_to_restriction(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=(self.grid.n_t, self.grid.n_r))
        full = x_norm(u, self.wp, self.grid)
        half = x_norm(u, self.wp, self.grid, up_to=self.grid.t_max / 2)
        assert half <= full + 1e-15


class TestWWeight:
    def test_examples(self):
        assert w_weight(0.0, 0.0, WeightParams(1.0, 1.0)) == pytest.approx(2.0)
        assert w_weight(0.0, 2.0, WeightParams(2.5, 1.0)) == pytest.approx(16.0)
        want = math.log(2.0) * 4.0 / math.log(3.0)
        assert w_weight(0.0, 0.0, WeightParams(2.0, 1.0)) == pytest.approx(want, rel=1e-12)


class TestDGamma:
    def test_examples(self):
        assert d_gamma(7.3, 0.5, 1.0) == pytest.approx(2.0)
        assert d_gamma(1.0, 0.0, 1.0) == pytest.approx(math.log(3.0), rel=1e-12)
        assert d_gamma(1.0, -0.4, 1.0) == pytest.approx(2.5 * 2.0**0.4, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            d_gamma(0.0, 1.0, 1.0)


class TestLemmaIntegrals:
    def test_unit_ratio_points(self):
        # kappa = 1, r = t = 1: both sides equal 2/3
        from conewave.norms import _lhs_decay, _rhs_decay

        assert _lhs_decay(1.0, 1.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert _rhs_decay(1.0, 1.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
        # kappa = 0: both sides log 3
        assert _lhs_decay(0.0, 1.0, 1.0) == pytest.approx(math.log(3.0), rel=1e-12)
        assert _rhs_decay(0.0, 1.0, 1.0) == pytest.approx(math.log(3.0), rel=1e-12)
        # r = 0: empty interval
        assert _lhs_decay(0.7, 0.0, 2.0) == 0.0

    def test_randomized_no_violations(self):
        rep = verify_lemma_integrals(10_000, seed=3)
        assert rep.violations == 0
        assert rep.max_ratio <= 1.0 + 1e-12
        assert rep.empirical_constant > 0.0

    def test_report_serialization(self):
        rep = verify_lemma_integrals(50, seed=4)
        d = rep.to_dict()
        assert d["name"] == "decay_integral_lemmas"
        assert d["violations"] == 0
        assert d["samples"] == 50
        assert "max_ratio" in d

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            verify_lemma_integrals(0)


class TestWeightParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightParams(3.0, 1.0)
        with pytest.raises(ValueError):
            WeightParams(1.0, 0.5)


class TestNormSeries:
    def test_running_sup_nondecreasing(self, global_run):
        _, _, hist = global_run
        assert np.all(np.diff(hist.series.x_norm_running) >= -1e-15)

    def test_rows_iteration(self):
        s = NormSeries(
            t=np.array([0.0, 1.0]),
            x_norm_running=np.array([0.0, 1.0]),
            dissipation=np.array([0.0, 2.0]),
            mass=np.array([0.0, 3.0]),
            sup_u=np.array([0.0, 4.0]),
        )
        rows = list(s.rows())
        assert rows[1] == (1.0, 1.0, 2.0, 3.0, 4.0)
