"""Acceptance suite: one test per numbered criterion, each printing a
PASS line with its measured figures (run with ``pytest -v -s``).

Known-defective printed constants (the pair bound and its cubic corollary
in the blow-up chain, the halved free-propagator sup constant, and the
comparison-ODE coefficient) are exercised by strict xfail tests next to the
verified-form assertions; the decisions ledger carries the analysis.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conewave.grid import Grid, RadialProfile
from conewave.potential import convolve_power
from conewave.solver import (
    Params,
    dissipation_monitor,
    liouville,
    make_data,
    scattering_check,
    solve_march,
)
from conewave.verify import (
    c1_constant,
    verify_bilinear,
    verify_lemma_integrals,
    verify_trilinear,
)
from conewave.waveops import ConeAccumulator, kirchhoff_radial

from oracles import (
    duhamel_sum_ld,
    mc_convolution,
    picard_iterates,
    random_profile,
    scale_symmetry_mismatch,
)


def ok(line: str) -> None:
    print(f"[ACCEPT] {line}")


# --------------------------------------------------------------------------
# 1. convolution oracle equivalence
# --------------------------------------------------------------------------


def test_c1_convolution_oracle():
    grid = Grid(h=1 / 64, n_r=4 * 64 + 1, n_t=1)
    r = grid.radii()
    ball = RadialProfile(grid, (r <= 1.0 + 1e-12).astype(float), support_radius=1.0)
    closed = [
        (0.0, 0.7, 4 * math.pi / 3),
        (1.0, 0.0, 2 * math.pi),
        (1.0, 2.0, 2 * math.pi / 3),
    ]
    worst_rel = 0.0
    for g, rr, want in closed:
        got = convolve_power(ball, g, rr)
        worst_rel = max(worst_rel, abs(got - want) / want)
    assert worst_rel <= 1e-6

    rng = np.random.default_rng(37)
    worst_z = 0.0
    for gamma in (-0.4, 0.0, 0.5, 1.0, 2.0, 2.5):
        for _ in range(50):
            w = random_profile(grid, rng, nonneg=bool(rng.integers(2)))
            r0 = float(rng.uniform(0.0, 2.0))
            if r0 < grid.h / 2:
                r0 = 0.0
            est, err = mc_convolution(w, gamma, r0, 150_000, rng)
            got = convolve_power(w, gamma, r0)
            if err > 0:
                worst_z = max(worst_z, abs(got - est) / err)
    assert worst_z <= 3.0
    ok(
        f"C1 convolution oracle: PASS (closed forms rel<= {worst_rel:.1e}, "
        f"300 MC trials max|z|={worst_z:.2f})"
    )


# --------------------------------------------------------------------------
# 2. closed-form Duhamel
# --------------------------------------------------------------------------


def test_c2_closed_form_duhamel():
    h = 1 / 32
    grid = Grid(h=h, n_r=int(6.5 / h) + 1, n_t=3 * 32 + 1)
    gt = np.ones((grid.n_t, grid.n_r))
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, grid.n_t))
        t = n * h
        k = int(rng.integers(0, int((grid.r_max - t) / h)))
        got = duhamel_sum_ld(gt, grid, n)[k]
        worst = max(worst, abs(got - (t - math.log1p(t))))
    assert worst <= 1e-8
    # the march's path: a source equal to 1 on lam <= s + jr h looks like
    # G = 1 from every node whose backward cone stays inside it (k + n <= jr)
    jr = grid.n_r - grid.n_t
    idx = np.arange(grid.n_r)
    acc = ConeAccumulator(grid, jr)
    worst_acc = 0.0
    nodes = 0
    for n in range(grid.n_t):
        g_row = (idx <= n + jr).astype(float)
        if n >= 1:
            t = n * h
            vals = acc.eval_slice(g_row)[: jr - n + 1]
            worst_acc = max(worst_acc, float(np.max(np.abs(vals - (t - math.log1p(t))))))
            nodes += vals.size
        acc.push_slice(g_row)
    assert worst_acc <= 1e-12
    ok(
        f"C2 closed-form Duhamel: PASS (reference: 100 points, max err {worst:.2e}; "
        f"accumulator: {nodes} nodes, max err {worst_acc:.2e})"
    )


# --------------------------------------------------------------------------
# 3. backend agreement order
# --------------------------------------------------------------------------


def test_c3_backend_agreement(backend_triplet):
    hs = np.array([1 / 32, 1 / 64, 1 / 128])
    ds = np.array([backend_triplet[32], backend_triplet[64], backend_triplet[128]])
    order = np.polyfit(np.log(hs), np.log(ds), 1)[0]
    assert order >= 1.9
    ok(
        "C3 backend agreement: PASS (sup diffs "
        f"{ds[0]:.2e}/{ds[1]:.2e}/{ds[2]:.2e}, observed order {order:.2f})"
    )


# --------------------------------------------------------------------------
# 4. inequality suites
# --------------------------------------------------------------------------


def test_c4_decay_lemma():
    rep = verify_lemma_integrals(10_000, seed=99)
    assert rep.violations == 0
    ok(
        f"C4 decay-integral lemma: PASS (1e4 samples, max ratio {rep.max_ratio:.6f}, "
        f"log-variant empirical constant {rep.empirical_constant:.3f})"
    )


def test_c4_linfty_bound():
    grid = Grid(h=1 / 64, n_r=4 * 64 + 1, n_t=1)
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        phi = random_profile(grid, rng)
        t = float(rng.uniform(0.0, 2.0))
        sup_phi = float(np.max(np.abs(phi.samples)))
        r = float(rng.uniform(0.0, grid.r_max - t))
        val = abs(kirchhoff_radial(phi, r, t))
        assert val <= t * sup_phi + 1e-12
        if t * sup_phi > 0:
            worst = max(worst, val / (t * sup_phi))
    ok(
        "C4 free-propagator sup bound: PASS with the verified factor t "
        f"(1e3 samples, max ratio {worst:.3f}; the printed halved constant "
        "is refuted by constant data, see ledger)"
    )


@pytest.mark.parametrize("gamma,R", [(-0.4, 1.0), (1.0, 1.0), (2.0, 2.0), (2.5, 1.0)])
def test_c4_bilinear_lattice(gamma, R):
    rep = verify_bilinear(gamma, R, 50.0 * R, R / 64, seed=31)
    assert rep.violations == 0
    assert rep.max_ratio <= 1.0
    ok(
        f"C4 bilinear bound gamma={gamma}: PASS (T=50R lattice, {rep.samples} "
        f"samples, max ratio {rep.max_ratio:.4f})"
    )


def test_c4_bilinear_refinement_stability():
    rep = verify_bilinear(1.0, 1.0, 50.0, 1 / 128, n_lattice=51, n_random=40, seed=32)
    assert rep.violations == 0
    ok(
        "C4 bilinear refinement (h -> h/2): PASS "
        f"(max ratio {rep.max_ratio:.4f}, no new violations)"
    )


@pytest.mark.parametrize("gamma,R", [(-0.4, 1.0), (1.0, 1.0), (2.5, 1.0)])
def test_c4_trilinear_bound(gamma, R):
    rep = verify_trilinear(gamma, R, 50.0 * R, R / 32)
    assert rep.violations == 0
    assert rep.max_ratio <= 1.0
    if gamma < 0:
        assert rep.extra["growth_10R_to_T"] > 1.5  # the growth factor bites
        shape = f", growth x{rep.extra['growth_10R_to_T']:.2f} on [10R,50R]"
    else:
        shape = f", bounded (ratio {rep.max_ratio:.4f} of the constant bound)"
    ok(f"C4 trilinear bound gamma={gamma}: PASS (zero violations{shape})")


def test_c4_trilinear_log_branch_reported():
    rep = verify_trilinear(2.0, 2.0, 50.0 * 2.0, 2.0 / 32)
    assert rep.empirical_constant > 0.0
    ok(
        "C4 trilinear gamma=2: reported only (no explicit constant), "
        f"empirical C2 = {rep.empirical_constant:.3e}"
    )


def test_c4_mass_identity(blowup_diag):
    worst = blowup_diag.identity_max_rel
    assert worst <= 1e-3
    ok(
        f"C4 mass identity: PASS ({np.count_nonzero(blowup_diag.identity_window)} slices on "
        f"[2R, T-R], max rel {worst:.2e} <= 1e-3)"
    )


def test_c4_frame_inequalities_note(blowup_diag):
    # the as-printed pair/cubic checks live in test_blowup as strict xfails;
    # here we record the measured deficits so the acceptance log carries them
    worst_pair, worst_cubic = blowup_diag.pair_min_ratio, blowup_diag.cubic_min_ratio
    assert worst_pair > 0.5 and worst_cubic > 0.75
    ok(
        "C4 pair/cubic mass bounds: printed constants unattainable for "
        f"gamma<0 (min ratios {worst_pair:.2f}/{worst_cubic:.2f}; strict "
        "xfails in test_blowup, analysis in the ledger)"
    )


# --------------------------------------------------------------------------
# 5. global regime
# --------------------------------------------------------------------------


def test_c5_global_regime(global_run):
    params, data, hist = global_run
    assert not hist.blew_up
    w = hist.t >= 10.0
    xr = hist.x_norm_running[w]
    assert xr.max() / xr.min() < 10.0
    td, dis = dissipation_monitor(liouville(hist), hist.grid)
    dw = dis[td >= 10.0]
    assert dw.max() / dw.min() < 10.0
    ts, vals, rem = scattering_check(hist, 100.0)
    assert np.all(np.diff(vals) <= 1e-9 * vals[:-1])
    assert vals[-1] < 0.01 * vals[0]
    ok(
        "C5 global regime: PASS (x-norm max/min "
        f"{xr.max()/xr.min():.3f}, dissipation max/min {dw.max()/dw.min():.3f}, "
        f"scattering final/initial {vals[-1]/vals[0]:.2e} < 1%)"
    )


# --------------------------------------------------------------------------
# 6. contraction
# --------------------------------------------------------------------------


def test_c6_contraction():
    h = 1 / 64
    grid = Grid.for_domain(h, 2.0, 1.0)
    params = Params(gamma=1.0, R=1.0, grid=grid)
    data = make_data("bump_v1_only", 1e-3, 1.0, grid)
    c1 = c1_constant(1.0)
    T, M, u, norms, converged = picard_iterates(params, data, c1)
    assert converged
    ratios = [b / a for a, b in zip(norms, norms[1:])]
    assert all(rho <= 0.5 + 0.05 for rho in ratios)
    hist = solve_march(params, data)
    nT = grid.index_of_time(T)
    gap = float(np.max(np.abs(u - hist.u[: nT + 1])))
    assert gap <= 1e-6
    worst = max(ratios, default=0.0)
    ok(
        f"C6 contraction: PASS (T={T:.3f}, M={M:.2e}, max ratio {worst:.2e} "
        f"<= 0.55, fixed point vs march sup {gap:.2e} <= 1e-6)"
    )


# --------------------------------------------------------------------------
# 7. blow-up regime
# --------------------------------------------------------------------------


def test_c7_blowup_regime(blowup_run, blowup_diag, lifespan_sweep):
    _, _, hist = blowup_run
    assert hist.blew_up and hist.t_numeric is not None
    assert len(lifespan_sweep.uncensored) == 5
    assert lifespan_sweep.threshold_gaps_within_2h
    assert lifespan_sweep.monotone_in_epsilon

    # exponential lower bound holds along the run on its validity range
    assert blowup_diag.closed_form_dominated
    ok(
        f"C7 blow-up regime: PASS (t_numeric={hist.t_numeric:.3f}, "
        f"threshold gaps <= 2h, strictly decreasing in eps, exponential "
        "mass bound dominated; the comparison-ODE variant is a strict xfail "
        "in test_blowup, see ledger)"
    )


# --------------------------------------------------------------------------
# 8. lifespan scaling
# --------------------------------------------------------------------------


def test_c8_lifespan_scaling(lifespan_sweep):
    fit = lifespan_sweep
    assert fit.passed
    assert abs(fit.slope - fit.theoretical) <= 0.25 * abs(fit.theoretical)
    ok(
        f"C8 lifespan scaling: PASS (slope {fit.slope:.3f} +- "
        f"{fit.slope_stderr:.3f} vs 2/gamma = {fit.theoretical}, within 25%)"
    )


# --------------------------------------------------------------------------
# 9. scale symmetry
# --------------------------------------------------------------------------


def test_c9_scale_symmetry():
    h = 1 / 16
    grid = Grid.for_domain(h, 11.0, 10.0)
    params = Params(gamma=1.0, R=1.0, grid=grid)
    data = make_data("bump_v1_only", 1e-3, 1.0, grid)
    res = {}
    for sigma in (0.5, 2.0):
        res[sigma] = scale_symmetry_mismatch(params, data, sigma, t_check=4.0)
        assert res[sigma] <= 10.0 * h * h
    ok(
        "C9 scale symmetry: PASS (mismatch sigma=1/2: "
        f"{res[0.5]:.2e}, sigma=2: {res[2.0]:.2e}, bound {10*h*h:.2e})"
    )


# --------------------------------------------------------------------------
# 10. determinism
# --------------------------------------------------------------------------


def _run_cli(cfg_text: str, out: Path) -> None:
    cfg = out.with_suffix(".cfg")
    cfg.write_text(cfg_text + f"out = {out}\n")
    root = Path(__file__).resolve().parents[1]
    env_src = str(root / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "conewave.cli", "--config", str(cfg)],
        capture_output=True,
        text=True,
        cwd=root,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode in (0, 1), proc.stderr


def test_c10_determinism(tmp_path):
    bodies = {
        "solve": "mode = solve\nepsilon = 0.5\nh = 0.125\nt_max = 3\nseed = 5\n",
        "verify": (
            "mode = verify\nseed = 5\nlemma_samples = 400\nverify_T = 4\n"
            "verify_gammas = 1\ntrilinear_h = 0.125\nh = 0.25\nt_max = 6\n"
        ),
    }
    for name, body in bodies.items():
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            _run_cli(body, out)
            blobs.append(
                (out / "results.csv").read_bytes()
                + (out / "summary.json").read_bytes()
                + (out / "invariants.txt").read_bytes()
            )
        assert blobs[0] == blobs[1]
    ok("C10 determinism: PASS (solve and verify reruns byte-identical)")
