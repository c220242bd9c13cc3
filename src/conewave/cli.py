"""Command-line front end: config parsing, run orchestration, artifact
emission.

Configs are plain ``key=value`` lines (one per line, ``#`` comments).  Every
run writes into its output directory:

* ``results.csv``    -- per-slice series (or per-point sweep results), with
  a versioned ``#`` header line;
* ``summary.json``   -- parameters, empirical constants, fit results and
  pass flags, keys sorted;
* ``invariants.txt`` -- one ``name=pass|fail`` line per asserted invariant.

Exit status: 0 all invariants pass, 1 an invariant failed (or none was
checked: ``no_invariant_checked=fail``), 2 config error, 3 numerical
abort.  With a fixed seed the outputs are byte-identical across repeated
runs.

Grids cover the full forward cone (r_max = t_max + R), so a stored run
costs O(n_t * n_r) ~ (t_max/h)^2 doubles; desk-scale configs keep
t_max/h within a few thousand.  Sweeps run lean (series only, O(n_r)
memory per run).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .blowup import mass_diagnostics
from .grid import Grid
from .harness import sweep
from .norms import verify_lemma_integrals
from .potential import is_log_branch
from .solver import (
    DATA_FAMILIES,
    NumericalAbort,
    Params,
    dissipation_monitor,
    liouville,
    make_data,
    scattering_check,
    solve_dalembert,
    solve_march,
)
from .verify import verify_bilinear, verify_free_decay, verify_trilinear

__all__ = ["RunConfig", "parse_config", "run", "main"]

CSV_HEADER = "# conewave results v1: t,x_norm,dissipation,mass,sup_u"
SWEEP_HEADER = "# conewave sweep v1: epsilon,t_numeric,h,threshold,censored"
BLOWUP_HEADER = "# conewave blowup v1: t,F,Fpp_identity,envelope,sup_u,x_norm"

_MODES = ("solve", "sweep", "verify", "blowup")

_DEFAULTS = {
    "mode": "solve",
    "gamma": 1.0,
    "R": 1.0,
    "epsilon": 1e-3,
    "epsilon_list": "",
    "h": 1.0 / 16.0,
    "t_max": 20.0,
    "family": "bump_v1_only",
    "out": "out",
    "seed": 0,
    "blowup_threshold": 1e6,
    "t_star": -1.0,
    "run_dalembert": 0,
    "refine": 1,
    "delta": 0.5,
    "verify_gammas": "-0.4,1,2,2.5",
    "lemma_samples": 10000,
    "verify_T": 50.0,
    "trilinear_h": 1.0 / 32.0,
}

_FLOAT_KEYS = {"gamma", "R", "epsilon", "h", "t_max", "blowup_threshold", "t_star",
               "verify_T", "trilinear_h", "delta"}
_INT_KEYS = {"seed", "run_dalembert", "refine", "lemma_samples"}


class ConfigError(ValueError):
    pass


class RunConfig(dict):
    """Validated flat config; attribute access for the common keys."""

    def __getattr__(self, key):
        try:
            return self[key]
        except KeyError as exc:
            raise AttributeError(key) from exc


def parse_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    cfg = dict(_DEFAULTS)
    if path is not None:
        text = Path(path).read_text()
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in _DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            cfg[key] = val
    for key, val in (overrides or {}).items():
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown override {key!r}")
        cfg[key] = val
    for key in _FLOAT_KEYS:
        try:
            cfg[key] = float(cfg[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"key {key}: not a number: {cfg[key]!r}") from exc
    for key in _INT_KEYS:
        try:
            cfg[key] = int(cfg[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"key {key}: not an integer: {cfg[key]!r}") from exc
    if cfg["mode"] not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {cfg['mode']!r}")
    if not (-0.5 < cfg["gamma"] < 3.0):
        raise ConfigError(f"gamma out of range: {cfg['gamma']}")
    if not (1.0 <= cfg["R"] < math.inf):
        raise ConfigError(f"R must be >= 1 and finite, got {cfg['R']}")
    h = cfg["h"]
    if not (0.0 < h < math.inf):
        raise ConfigError(f"h must be positive and finite, got {h}")
    if abs(cfg["R"] / h - round(cfg["R"] / h)) > 1e-9:
        raise ConfigError(f"R must be an integer number of cells h, got R={cfg['R']}, h={h}")
    if not (0.0 < cfg["t_max"] < math.inf):
        raise ConfigError(f"t_max must be positive and finite, got {cfg['t_max']}")
    bt = cfg["blowup_threshold"]
    if not (0.0 < bt < math.inf):
        raise ConfigError(f"blowup_threshold must be positive and finite, got {bt}")
    if cfg["family"] not in DATA_FAMILIES:
        raise ConfigError(f"family must be one of {DATA_FAMILIES}, got {cfg['family']!r}")
    eps_text = str(cfg["epsilon_list"])
    try:
        eps = [float(s) for s in eps_text.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"key epsilon_list: not a list of numbers: {eps_text!r}") from exc
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise ConfigError(f"epsilon_list must be strictly increasing, got {eps}")
    if any(e < 0.0 for e in [cfg["epsilon"], *eps]):
        raise ConfigError("epsilon and epsilon_list must be >= 0")
    if cfg["mode"] == "sweep" and not eps:
        raise ConfigError("sweep mode requires epsilon_list")
    if cfg["mode"] == "sweep" and cfg["gamma"] >= 0.0:
        raise ConfigError(f"sweep mode measures blow-up times: need gamma < 0, got {cfg['gamma']}")
    cfg["epsilon_list"] = eps
    return RunConfig(cfg)


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_summary(path: Path, summary: dict) -> None:
    path.write_text(json.dumps(summary, sort_keys=True, indent=2, default=float) + "\n")


def _write_invariants(path: Path, invariants: dict) -> None:
    lines = [f"{k}={'pass' if v else 'fail'}" for k, v in sorted(invariants.items())]
    path.write_text("\n".join(lines) + "\n")


def _params(cfg: RunConfig) -> Params:
    grid = Grid.for_domain(cfg.h, cfg.t_max + cfg.R, cfg.t_max)
    return Params(
        gamma=cfg.gamma, R=cfg.R, epsilon=cfg.epsilon, grid=grid,
        blowup_threshold=cfg.blowup_threshold,
    )


def _mode_solve(cfg: RunConfig, out: Path):
    params = _params(cfg)
    data = make_data(cfg.family, cfg.epsilon, cfg.R, params.grid)
    hist = solve_march(params, data)
    invariants = {
        "finite_propagation": hist.finite_propagation_violations() == 0,
    }
    if cfg.family == "bump_v1_only" and cfg.epsilon >= 0.0:
        invariants["positivity"] = hist.min_value() >= -1e-12 * max(
            1.0, float(hist.series.sup_u.max())
        )
    summary = {
        "mode": "solve",
        "gamma": cfg.gamma,
        "R": cfg.R,
        "epsilon": cfg.epsilon,
        "h": cfg.h,
        "t_max": cfg.t_max,
        "family": cfg.family,
        "blew_up": hist.blowup.blew_up,
        "t_numeric": hist.blowup.t_numeric,
        "threshold_crossings": {str(k): v for k, v in hist.blowup.crossings.items()},
        "x_norm_final": float(hist.series.x_norm_running[-1]),
        "sup_u_max": float(hist.series.sup_u.max()),
    }
    if cfg.run_dalembert:
        alt = solve_dalembert(params, data)
        n = min(hist.n_used, alt.n_used)
        diff = float(np.max(np.abs(hist.u[:n] - alt.u[:n])))
        summary["backend_sup_diff"] = diff
        invariants["backend_agreement"] = diff <= 50.0 * cfg.h**2 * max(
            1.0, float(hist.series.sup_u.max())
        )
    if not hist.blowup.blew_up and cfg.gamma > 0.0 and cfg.t_star > 0.0:
        ts, vals, rem = scattering_check(hist, cfg.t_star)
        summary["scattering_final_over_initial"] = float(vals[-1] / vals[0]) if vals[0] else 0.0
        summary["scattering_tail_estimate"] = rem
        invariants["scattering_decreasing"] = bool(
            np.all(np.diff(vals) <= 1e-12 * max(1.0, float(vals[0])))
        )
        v = liouville(hist)
        _, dis = dissipation_monitor(v)
        w = hist.series.t >= 10.0
        if np.count_nonzero(w) >= 2:
            dw = dis[w]
            summary["dissipation_max_over_min"] = float(dw.max() / dw.min())
    _write_csv(out / "results.csv", CSV_HEADER, hist.series.rows())
    _write_summary(out / "summary.json", summary)
    return invariants


def _mode_sweep(cfg: RunConfig, out: Path):
    fit = sweep(
        cfg.gamma, cfg.R, cfg.epsilon_list, h=cfg.h, t_max=cfg.t_max, family=cfg.family,
        blowup_threshold=cfg.blowup_threshold, refine=cfg.refine, delta=cfg.delta,
    )
    rows = []
    for p in fit.points:
        rows.append(
            (
                p.epsilon,
                p.t_numeric if p.t_numeric is not None else math.nan,
                p.levels[-1][0],
                cfg.blowup_threshold,
                int(p.censored),
            )
        )
    invariants = {
        "slope_within_25pct": fit.passed,
        "monotone_in_epsilon": fit.monotone_in_epsilon,
        "threshold_gap_2h": fit.threshold_gaps_within_2h,
    }
    summary = {"mode": "sweep", "h": cfg.h, "t_max": cfg.t_max, "refine": cfg.refine}
    summary.update(fit.to_dict())
    summary["threshold_gaps"] = [p.threshold_gap for p in fit.uncensored]
    summary["richardson_increments"] = [p.richardson_increment for p in fit.uncensored]
    _write_csv(out / "results.csv", SWEEP_HEADER, rows)
    _write_summary(out / "summary.json", summary)
    return invariants


def _mode_verify(cfg: RunConfig, out: Path):
    invariants = {}
    summary = {"mode": "verify", "seed": cfg.seed}
    rep = verify_lemma_integrals(cfg.lemma_samples, seed=cfg.seed)
    summary["lemma_integrals"] = rep.to_dict()
    invariants["lemma_decay_no_violations"] = rep.violations == 0
    reports = []
    for gs in str(cfg.verify_gammas).split(","):
        g = float(gs)
        R = 2.0 if is_log_branch(g) else cfg.R
        rep = verify_bilinear(g, R, cfg.verify_T * R, R / 64.0, seed=cfg.seed)
        d = rep.to_dict()
        d.pop("per_t_max_ratio", None)
        reports.append(d)
        invariants[f"bilinear_gamma_{gs.strip()}_no_violations"] = rep.violations == 0
        tri = verify_trilinear(g, R, cfg.verify_T * R, cfg.trilinear_h * R)
        reports.append(tri.to_dict())
        if not is_log_branch(g):
            invariants[f"trilinear_gamma_{gs.strip()}_no_violations"] = tri.violations == 0
    summary["estimates"] = reports
    grid = Grid.for_domain(cfg.h, cfg.t_max + cfg.R, cfg.t_max)
    v0, v1 = make_data("bump_both", 1.0, cfg.R, grid)
    rep = verify_free_decay(v0, v1, grid, cfg.R)
    summary["free_decay_constant"] = rep.empirical_constant
    rows = [("lemma_samples", cfg.lemma_samples, 0.0, 0.0, 0.0)]
    _write_csv(out / "results.csv", CSV_HEADER, rows)
    _write_summary(out / "summary.json", summary)
    return invariants


def _mode_blowup(cfg: RunConfig, out: Path):
    params = _params(cfg)
    data = make_data("bump_v1_only", cfg.epsilon, cfg.R, params.grid)
    hist = solve_march(params, data)
    diag = mass_diagnostics(hist, data[1])
    invariants = {}
    # pair/cubic ratios are reported only: their printed constants are not
    # attainable in the negative-exponent regime (see the project notes)
    summary = {
        "mode": "blowup",
        "gamma": cfg.gamma,
        "epsilon": cfg.epsilon,
        "h": cfg.h,
        "blew_up": hist.blowup.blew_up,
        "t_numeric": hist.blowup.t_numeric,
        "threshold_crossings": {str(k): v for k, v in hist.blowup.crossings.items()},
        "frame_pair_min_ratio": diag.pair_min_ratio,
        "frame_cubic_min_ratio": diag.cubic_min_ratio,
    }
    if diag.identity_max_rel is not None:
        invariants["mass_identity_1e3"] = diag.identity_max_rel <= 1e-3
        summary["mass_identity_max_rel"] = diag.identity_max_rel
    env = diag.envelope
    if env is not None:
        invariants["mass_dominates_exponential_bound"] = diag.closed_form_dominated
        summary["numeric_envelope_dominated"] = diag.envelope_dominated
        summary["envelope_t2"] = env.t2
        summary["envelope_C2"] = env.C2
    env_col = env.envelope if env is not None else np.zeros(hist.n_used)
    ser = hist.series
    rows = zip(diag.t, diag.F, diag.rhs, env_col, ser.sup_u, ser.x_norm_running)
    _write_csv(out / "results.csv", BLOWUP_HEADER, rows)
    _write_summary(out / "summary.json", summary)
    return invariants


def run(cfg: RunConfig) -> int:
    """Execute the configured pipeline; returns the process exit status."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if cfg.mode == "solve":
            invariants = _mode_solve(cfg, out)
        elif cfg.mode == "sweep":
            invariants = _mode_sweep(cfg, out)
        elif cfg.mode == "verify":
            invariants = _mode_verify(cfg, out)
        else:
            invariants = _mode_blowup(cfg, out)
    except NumericalAbort as exc:
        (out / "invariants.txt").write_text(f"numerical_abort=fail # {exc}\n")
        return 3
    if not invariants:  # a run that checked nothing must not read as all-pass
        invariants = {"no_invariant_checked": False}
    _write_invariants(out / "invariants.txt", invariants)
    return 0 if all(invariants.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="conewave",
        description="Damped cubic-convolution wave simulator and estimate verifier",
    )
    ap.add_argument("--config", help="key=value config file")
    ap.add_argument("--mode", choices=_MODES, help="override the config mode")
    ap.add_argument("--out", help="output directory")
    ap.add_argument("--seed", type=int, help="seed for randomized verifiers")
    args = ap.parse_args(argv)
    overrides = {
        k: v
        for k, v in (
            ("mode", args.mode),
            ("out", args.out),
            ("seed", args.seed),
        )
        if v is not None
    }
    try:
        cfg = parse_config(args.config, overrides)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
