import math

import numpy as np
import pytest

from conewave.blowup import (
    frame_cubic_check,
    j1_for_delta,
    kato_bound,
    min_kato_j,
    ode_envelope,
)
from conewave.grid import Grid, RadialProfile, mass as window_mass

from oracles import frame_check, kato_exponent_scan, mass, mass_rhs, mass_series

# the envelope seed time t_gamma = 2 / (2 + gamma) at gamma = -0.4
T_GAMMA = 1.25


@pytest.fixture
def grid():
    return Grid(h=1 / 64, n_r=4 * 64 + 1, n_t=1)


@pytest.fixture
def ball(grid):
    r = grid.radii()
    return RadialProfile(grid, (r <= 1.0 + 1e-12).astype(float), support_radius=1.0)


class TestMass:
    def test_zero(self, grid):
        z = RadialProfile(grid, np.zeros(grid.n_r))
        assert mass(z) == 0.0

    def test_unit_ball(self, ball):
        assert mass(ball) == pytest.approx(4 * math.pi / 3, rel=1e-12)

    def test_zero_at_t0_for_v1_data(self):
        # with vanishing first data component the initial slice is zero
        from conewave.solver import Params, make_data, solve_march

        grid = Grid.for_domain(1 / 16, 2.0, 1.0)
        p = Params(gamma=-0.4, R=1.0, grid=grid)
        d = make_data("bump_v1_only", 2.0, 1.0, grid)
        hist = solve_march(p, d)
        assert hist.mass[0] == 0.0


class TestMassRhs:
    def test_zero(self, grid):
        z = RadialProfile(grid, np.zeros(grid.n_r))
        assert mass_rhs(z, 0.0, 0.0) == 0.0

    def test_gamma0_factorization(self, ball):
        # gamma = 0: int (1 * u^2) u = (int u^2)(int u); for the unit ball
        # both integrals are the ball volume
        vol = 4 * math.pi / 3
        assert mass_rhs(ball, 0.0, 0.0) == pytest.approx(vol * vol, rel=1e-10)
        assert mass_rhs(ball, 0.0, 1.0) == pytest.approx(vol * vol / 4.0, rel=1e-10)

    def test_frame_gamma0_relation(self, ball):
        # separable case: lhs = (1+t)^-2 (int u^2)(int u) and
        # rhs = 2^0 F (1+t)^-2 int u^2, so lhs = rhs exactly at gamma = 0
        lhs, rhs = frame_check(ball, mass(ball), 0.0, 0.7)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_frame_zero(self, grid):
        z = RadialProfile(grid, np.zeros(grid.n_r))
        lhs, rhs = frame_check(z, 0.0, -0.4, 1.0)
        assert lhs == 0.0 and rhs == 0.0


class TestIdentityOnRun:
    def test_mass_nondecreasing_for_positive_data(self, blowup_run):
        # v0 = 0, v1 >= 0: F' starts positive and F'' >= 0, so F never falls
        _, _, hist = blowup_run
        F = hist.mass
        assert F[0] == 0.0
        assert np.all(np.diff(F) >= -1e-12 * np.maximum(1.0, F[1:]))

    def test_lean_series_equal_table_values(self, blowup_run, blowup_lean):
        # the lean run's mass chain, bit for bit the stored run's tables
        _, _, stored = blowup_run
        _, _, lean = blowup_lean
        assert lean.u is None and lean.g is None and stored.source_mass is None
        t, F, rhs = mass_series(stored)
        assert lean.n_used == stored.n_used
        assert lean.mass.tobytes() == F.tobytes()
        assert (lean.source_mass / (1.0 + t) ** 2).tobytes() == rhs.tobytes()
        grid, jr = stored.grid, stored.params.support_cells
        sq = np.array([window_mass(row[: grid.window(n, jr)] ** 2, grid)
                       for n, row in enumerate(stored.u)])
        assert lean.square_mass.tobytes() == sq.tobytes()

    def test_second_difference_matches_rhs(self, blowup_diag):
        # resolved window: 2R past the data transient, R before the
        # singular time (no fixed grid resolves d4F/dt4 at the ramp)
        assert np.count_nonzero(blowup_diag.identity_window) > 1000
        assert blowup_diag.identity_max_rel <= 1e-3

    @pytest.mark.xfail(
        strict=True,
        reason="for gamma < 0 the printed pair-bound constant equals the "
        "support-diameter bound, above any weighted mean of |x-y|^(-gamma); "
        "see the decisions ledger for the measured margins",
    )
    def test_frame_as_printed(self, blowup_run):
        params, _, hist = blowup_run
        t, F, _ = mass_series(hist)
        grid = hist.grid
        step = max(1, hist.n_used // 40)
        for n in range(0, hist.n_used - 5, step):
            prof = RadialProfile(
                grid, hist.u[n], support_radius=min(n * grid.h + 1.0, grid.r_max)
            )
            lhs, rr = frame_check(prof, F[n], params.gamma, t[n])
            assert lhs >= rr - 1e-12 * max(1.0, abs(rr))

    @pytest.mark.xfail(
        strict=True,
        reason="inherits the pair-bound constant; measured ratio dips to "
        "~0.83 in the concentration stage",
    )
    def test_frame_cubic_as_printed(self, blowup_run):
        params, _, hist = blowup_run
        t, F, rhs = mass_series(hist)
        for n in range(0, hist.n_used - 5, max(1, hist.n_used // 200)):
            if hist.sup_u[n] > 1e2:
                break
            lhs2, rr2 = frame_cubic_check(F[n], rhs[n], params.gamma, t[n])
            assert lhs2 >= rr2 - 1e-12 * max(1.0, abs(rr2))

    def test_frame_empirical_factors(self, blowup_diag):
        # the verified direction: both inequalities hold after scaling the
        # printed constants by the measured deficits (reported, not derived)
        assert blowup_diag.pair_min_ratio > 0.5
        assert blowup_diag.cubic_min_ratio > 0.75


class TestEnvelope:
    def test_zero_epsilon_degenerates_to_line(self):
        t = np.linspace(0.0, 10.0, 101)
        env = ode_envelope(0.0, 1.0, -0.4, t, F_seed=2.0, Fp_seed=0.5, seed_t=T_GAMMA)
        want = np.maximum(0.0, 2.0 + 0.5 * (t - env.t_gamma))
        assert np.allclose(env.envelope, want, rtol=1e-12, atol=1e-12)

    def test_t_gamma_arithmetic(self):
        env = ode_envelope(0.1, 1.0, -0.4, np.linspace(0, 5, 11), 1.0, 0.1, T_GAMMA)
        assert env.t_gamma == pytest.approx(1.25)
        assert env.t0 == pytest.approx(1.25)
        assert env.t2 >= env.t0

    def test_domain(self):
        with pytest.raises(ValueError):
            ode_envelope(0.1, 1.0, 0.5, np.linspace(0, 1, 5), 1.0, 0.1, T_GAMMA)
        with pytest.raises(ValueError):
            ode_envelope(0.1, -1.0, -0.4, np.linspace(0, 1, 5), 1.0, 0.1, T_GAMMA)

    def test_growth_against_closed_form_seed(self):
        # the numeric envelope dominates the pure-linear continuation once
        # the source term kicks in
        t = np.linspace(0.0, 40.0, 2001)
        env = ode_envelope(1.0, 0.64, -0.4, t, F_seed=1.0, Fp_seed=0.3, seed_t=T_GAMMA)
        lin = 1.0 + 0.3 * (t - env.t_gamma)
        late = t > 10.0
        assert np.all(env.envelope[late] > lin[late])

    def test_closed_form_bound_dominated_by_run(self, blowup_diag):
        # the exponential lower bound holds along the run on its validity
        # range (this is the asserted half of the envelope contract)
        assert np.count_nonzero(blowup_diag.envelope.closed_form_valid) > 100
        assert blowup_diag.closed_form_dominated

    @pytest.mark.xfail(
        strict=True,
        reason="the comparison-ODE coefficient rests on a shell "
        "Cauchy-Schwarz step printed without its sqrt(4 pi) factor; the "
        "integrated envelope overtakes the simulated mass (ledger)",
    )
    def test_numeric_envelope_dominated_by_run(self, blowup_run):
        params, data, hist = blowup_run
        eps = 4.1  # the amplitude of the fixture's data
        import conewave.grid as cg

        t = hist.t
        F = hist.mass
        v0, v1 = data
        C0 = (
            4.0
            * math.pi
            * cg.trapezoid_weighted(v1, 2.0, 0.0, hist.grid.r_max)
            / eps
        )
        ig = int(round(2.0 / (2.0 + params.gamma) / hist.grid.h))
        Fp = (F[ig + 1] - F[ig - 1]) / (2.0 * hist.grid.h)
        env = ode_envelope(
            eps, C0, params.gamma, t, F[ig], Fp, seed_t=ig * hist.grid.h
        )
        dom = t >= ig * hist.grid.h
        assert np.all(F[dom] >= env.envelope[dom] * (1.0 - 1e-6) - 1e-12)


class TestKato:
    def test_parameter_formulas(self):
        kp = kato_bound(-0.4, 7, 0.1, 0.6, 1.25)
        assert kp.p == 3.0
        assert kp.q == pytest.approx(4.6)
        assert kp.a == pytest.approx(1.4)
        assert kp.M == pytest.approx(0.1)
        assert kp.eps_exponent == pytest.approx(-80.0)
        assert kp.B_coef == pytest.approx(2.0 ** (-1.6) * 3.0 / math.pi, rel=1e-12)
        assert kp.D0_symbolic

    def test_minimal_j(self):
        assert min_kato_j(-0.4) == 7
        with pytest.raises(ValueError):
            kato_bound(-0.4, 6, 0.1, 0.6, 1.25)

    def test_p_q_b_independent_of_j_eps(self):
        a = kato_bound(-0.4, 7, 0.1, 0.6, 1.25)
        b = kato_bound(-0.4, 12, 0.01, 0.6, 1.25)
        assert (a.p, a.q, a.B_coef) == (b.p, b.q, b.B_coef)

    @pytest.mark.parametrize("gamma,delta", [(-0.4, 1.0), (-0.4, 0.5), (-0.2, 1.0), (-0.45, 2.0)])
    def test_j1_matches_brute_force(self, gamma, delta):
        j_min, first_ok = kato_exponent_scan(gamma, delta)
        assert j_min == min_kato_j(gamma)
        want = max(j1_for_delta(gamma, delta), j_min)
        assert first_ok == want

    def test_exponent_approaches_two_over_gamma(self):
        gamma = -0.4
        prev = -math.inf
        for j in range(7, 200, 10):
            e = kato_bound(gamma, j, 0.1, 0.6, 1.25).eps_exponent
            assert e > prev  # increases towards 2/gamma from below
            assert e < 2.0 / gamma
            prev = e

    def test_taylor_term_bound(self):
        # exp(x) >= x^j / j! for x >= 0
        rng = np.random.default_rng(8)
        for _ in range(1000):
            x = rng.uniform(0.0, 50.0)
            j = int(rng.integers(0, 30))
            assert math.exp(x) >= x**j / math.factorial(j) * (1.0 - 1e-12)
