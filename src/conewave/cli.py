"""Command-line front end: config parsing, run orchestration, artifact
emission.

Configs are plain ``key=value`` lines (one per line, ``#`` comments).  One
table, ``_KEYS``, gives each key its default (whose type is the key's type)
and its rule; ``parse_config`` checks every key against it, then the rules
that tie keys together, and a value that breaks one is a config error.
Each mode computes and returns its artifacts' contents; ``run`` alone
writes them into the output directory:

* ``results.csv``    -- per-slice series (or per-point sweep results), with
  a versioned ``#`` header line;
* ``summary.json``   -- parameters, empirical constants, fit results and
  pass flags, keys sorted;
* ``invariants.txt`` -- one ``name=pass|fail`` line per asserted invariant.

Exit status: 0 all invariants pass, 1 an invariant failed (or none was
checked: ``no_invariant_checked=fail``), 2 config error, 3 numerical
abort (``invariants.txt`` then holds the single line ``numerical_abort=fail``
with the reason; ``results.csv`` and ``summary.json`` of an earlier run in
the same directory are removed).  An output directory that cannot be made
is a config error.  With a fixed seed the outputs are byte-identical across
repeated runs.

Every mode that marches runs on the d'Alembert stencil.  Solve and
blow-up mode run one row of it (``solver.solve_dalembert``), a
``solver.SolutionHistory``.  Solve mode writes its per-slice series
(``rows``) as ``results.csv``; both modes put its blow-up facts
(``blew_up``, ``t_numeric``, ``threshold_crossings``, read off its sup
series) into ``summary.json``.  With ``run_dalembert = 1`` solve mode also
runs the integral-equation march (``solver.solve_march``) as the
independent cross-check of the stencil; the key keeps its old name.

Grids cover the full forward cone (r_max = t_max + R).  Sweeps march each
refinement level's points in lockstep on the lean stencil (series only,
O(n_r) memory per point; ``solver.dalembert_batch``); blow-up mode runs a
lean stencil that also keeps the masses of the source and of u^2 per
slice.  Solve mode stores the stencil's u table, O(n_t * n_r) ~
(t_max/h)^2 doubles, and its source rows from t_star on (none without the
scattering check); the march of the backend check compares slice by slice
against that u table and stores none of its own, and the v = u/(1+t) rows
are formed one at a time.  Desk-scale solve configs keep t_max/h within a
few thousand.
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
from .harness import MIN_FIT_POINTS, sweep
from .potential import GAMMA_HIGH, GAMMA_LOW, is_log_branch
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
from .verify import verify_bilinear, verify_free_decay, verify_lemma_integrals, verify_trilinear

__all__ = ["RunConfig", "parse_config", "run", "main"]

CSV_HEADER = "# conewave results v1: t,x_norm,dissipation,mass,sup_u"
SWEEP_HEADER = "# conewave sweep v1: epsilon,t_numeric,h,threshold,censored"
BLOWUP_HEADER = "# conewave blowup v1: t,F,Fpp_identity,envelope,sup_u,x_norm"


class ConfigError(ValueError):
    pass


class RunConfig(dict):
    """Validated flat config; attribute access for the common keys."""

    def __getattr__(self, key):
        try:
            return self[key]
        except KeyError as exc:
            raise AttributeError(key) from exc


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
    """Strict JSON: a non-finite float is written as null, every finite one
    with its exact repr."""
    text = json.dumps(summary, default=float)
    strict = json.loads(text, parse_constant=lambda _: None)
    path.write_text(json.dumps(strict, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _write_invariants(path: Path, invariants: dict) -> None:
    lines = [f"{k}={'pass' if v else 'fail'}" for k, v in sorted(invariants.items())]
    path.write_text("\n".join(lines) + "\n")


def _stencil(cfg: RunConfig, family: str, sources_from: int | None):
    """Run the configured problem with data of ``family`` on the stencil,
    keeping the sources from slice ``sources_from`` on (None: none); solve
    mode stores the tables, blow-up mode runs lean.  Returns the problem,
    the data and the history, with the summary fields that both modes
    report."""
    grid = Grid.for_domain(cfg.h, cfg.t_max + cfg.R, cfg.t_max)
    params = Params(gamma=cfg.gamma, R=cfg.R, grid=grid, blowup_threshold=cfg.blowup_threshold)
    data = make_data(family, cfg.epsilon, cfg.R, grid)
    hist = solve_dalembert(params, data, store_history=cfg.mode == "solve",
                           sources_from=sources_from)
    head = {
        "gamma": cfg.gamma,
        "epsilon": cfg.epsilon,
        "h": cfg.h,
        "blew_up": hist.blew_up,
        "t_numeric": hist.t_numeric,
        "threshold_crossings": {str(k): v for k, v in hist.crossings.items()},
    }
    return params, data, hist, head


def _mode_solve(cfg: RunConfig):
    # only the scattering check reads sources, and only from t_star on
    scatter = cfg.gamma > 0.0 and cfg.t_star > 0.0
    n_star = round(cfg.t_star / cfg.h) if scatter else None
    params, data, hist, summary = _stencil(cfg, cfg.family, n_star)
    invariants = {}
    if cfg.family == "bump_v1_only":
        invariants["positivity"] = hist.min_value() >= -1e-12 * max(
            1.0, float(hist.sup_u.max())
        )
    summary.update(
        R=cfg.R, t_max=cfg.t_max, family=cfg.family,
        x_norm_final=float(hist.x_norm_running[-1]),
        sup_u_max=float(hist.sup_u.max()),
    )
    if cfg.run_dalembert:
        # the reference march, against the stencil's u table
        diff = float(solve_march(params, data, u_ref=hist.u).ref_diff.max())
        summary["backend_sup_diff"] = diff
        invariants["backend_agreement"] = diff <= 50.0 * cfg.h**2 * summary["sup_u_max"]
    if scatter and not hist.blew_up:
        ts, vals, rem = scattering_check(hist, cfg.t_star)
        summary["scattering_final_over_initial"] = float(vals[-1] / vals[0]) if vals[0] else 0.0
        summary["scattering_tail_estimate"] = rem
        invariants["scattering_decreasing"] = bool(np.all(np.diff(vals) <= 1e-9 * vals[:-1]))
        _, dis = dissipation_monitor(liouville(hist), hist.grid)
        w = hist.t >= 10.0
        if np.count_nonzero(w) >= 2:
            dw = dis[w]
            summary["dissipation_max_over_min"] = float(dw.max() / dw.min())
    return CSV_HEADER, hist.rows(), summary, invariants


def _mode_sweep(cfg: RunConfig):
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
    summary = {"h": cfg.h, "t_max": cfg.t_max, "refine": cfg.refine}
    summary.update(fit.to_dict())
    summary["threshold_gaps"] = [p.threshold_gap for p in fit.uncensored]
    summary["richardson_increments"] = [p.richardson_increment for p in fit.uncensored]
    return SWEEP_HEADER, rows, summary, invariants


def _mode_verify(cfg: RunConfig):
    invariants = {}
    summary = {"seed": cfg.seed}
    rep = verify_lemma_integrals(cfg.lemma_samples, seed=cfg.seed)
    summary["lemma_integrals"] = rep.to_dict()
    invariants["lemma_decay_no_violations"] = rep.violations == 0
    reports = []
    for gs in cfg.verify_gammas.split(","):
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
    return CSV_HEADER, rows, summary, invariants


def _mode_blowup(cfg: RunConfig):
    _, data, hist, summary = _stencil(cfg, "bump_v1_only", 0)
    diag = mass_diagnostics(hist, data[1], cfg.epsilon)
    invariants = {}
    # pair/cubic ratios are reported only: their printed constants are not
    # attainable in the negative-exponent regime (see the project notes)
    summary["frame_pair_min_ratio"] = diag.pair_min_ratio
    summary["frame_cubic_min_ratio"] = diag.cubic_min_ratio
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
    rows = zip(hist.t, hist.mass, diag.rhs, env_col, hist.sup_u, hist.x_norm_running)
    return BLOWUP_HEADER, rows, summary, invariants


# mode -> runner; each runner returns (csv header, rows, summary, invariants)
_RUNNERS = {"solve": _mode_solve, "sweep": _mode_sweep, "verify": _mode_verify,
            "blowup": _mode_blowup}


def _gammas_ok(text: str) -> bool:
    try:
        return all(map(_KEYS["gamma"][1], map(float, text.split(","))))
    except ValueError:
        return False


def _reciprocal_ok(v: float) -> bool:
    return 0.0 < v <= 1.0 and abs(1.0 / v - round(1.0 / v)) <= 1e-9


_POSITIVE = (lambda v: 0.0 < v < math.inf, "positive and finite")

# key -> (default, rule, the rule in words); the default's type is the
# key's type.  Keys without a rule: ``out`` is a path, and ``epsilon_list``
# is checked with the rules that tie keys together, in ``parse_config``.
_KEYS = {
    "mode": ("solve", _RUNNERS.__contains__, f"one of {tuple(_RUNNERS)}"),
    "gamma": (1.0, lambda g: GAMMA_LOW < g < GAMMA_HIGH, "in (-1/2, 3)"),
    "R": (1.0, lambda v: 1.0 <= v < math.inf, ">= 1 and finite"),
    "epsilon": (1e-3, lambda v: 0.0 <= v < math.inf, ">= 0 and finite"),
    "epsilon_list": ("", None, None),
    "h": (1.0 / 16.0, *_POSITIVE),
    "t_max": (20.0, *_POSITIVE),
    "family": ("bump_v1_only", DATA_FAMILIES.__contains__, f"one of {DATA_FAMILIES}"),
    "out": ("out", None, None),
    "seed": (0, lambda v: v >= 0, ">= 0"),
    "blowup_threshold": (1e6, *_POSITIVE),
    "t_star": (-1.0, math.isfinite, "finite"),
    "run_dalembert": (0, (0, 1).__contains__, "0 or 1"),
    "refine": (1, lambda v: v >= 0, ">= 0"),
    "delta": (0.5, *_POSITIVE),
    # kept as the raw string: the verify invariant names are built from its tokens
    "verify_gammas": ("-0.4,1,2,2.5", _gammas_ok, "comma-separated numbers in (-1/2, 3)"),
    "lemma_samples": (10000, lambda v: v >= 1, ">= 1"),
    "verify_T": (50.0, *_POSITIVE),
    # the trilinear step trilinear_h * R must divide R
    "trilinear_h": (1.0 / 32.0, _reciprocal_ok, "1/m for an integer m"),
}


def parse_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    given = {}
    if path is not None:
        text = Path(path).read_text()
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            given[key] = val
    for key, val in (overrides or {}).items():
        if key not in _KEYS:
            raise ConfigError(f"unknown override {key!r}")
        given[key] = val
    cfg = {}
    for key, (default, rule, words) in _KEYS.items():
        val = given.get(key, default)
        try:
            val = type(default)(val)
        except (TypeError, ValueError) as exc:
            kind = type(default).__name__
            raise ConfigError(f"{key} must be of type {kind}, got {val!r}") from exc
        if rule is not None and not rule(val):
            raise ConfigError(f"{key} must be {words}, got {val!r}")
        cfg[key] = val
    # the rules that tie keys together
    h, ts = cfg["h"], cfg["t_star"]
    if abs(cfg["R"] / h - round(cfg["R"] / h)) > 1e-9:
        raise ConfigError(f"R must be an integer number of cells h, got R={cfg['R']}, h={h}")
    if cfg["mode"] == "solve" and cfg["gamma"] > 0.0 and ts > 0.0:
        # the scattering distance runs from t_star to two slices before t_max
        tol = 1e-9 * max(1.0, ts)
        if not ts <= cfg["t_max"] - 2.0 * h + tol or abs(round(ts / h) * h - ts) > tol:
            raise ConfigError(f"t_star must be a multiple of h at least 2h below t_max, got {ts}")
    eps_text = cfg["epsilon_list"]
    try:
        eps = [float(s) for s in eps_text.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"key epsilon_list: not a list of numbers: {eps_text!r}") from exc
    if not all(map(_KEYS["epsilon"][1], eps)) or any(b <= a for a, b in zip(eps, eps[1:])):
        raise ConfigError(f"epsilon_list must be finite, >= 0 and strictly increasing, got {eps}")
    if cfg["mode"] == "blowup" and cfg["epsilon"] <= 0.0:
        # the envelope constant C0 = mass(v1) / epsilon needs a positive amplitude
        raise ConfigError(f"blowup mode needs epsilon > 0, got {cfg['epsilon']}")
    if cfg["mode"] == "sweep" and len(eps) < MIN_FIT_POINTS:
        raise ConfigError(f"sweep mode fits a slope: epsilon_list needs at least "
                          f"{MIN_FIT_POINTS} values, got {len(eps)}")
    if cfg["mode"] == "sweep" and cfg["gamma"] >= 0.0:
        raise ConfigError(f"sweep mode measures blow-up times: need gamma < 0, got {cfg['gamma']}")
    cfg["epsilon_list"] = eps
    return RunConfig(cfg)


def run(cfg: RunConfig) -> int:
    """Run the configured mode, write its three artifacts and return the
    process exit status."""
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        print(f"config error: out: {exc}", file=sys.stderr)
        return 2
    try:
        header, rows, summary, invariants = _RUNNERS[cfg.mode](cfg)
    except NumericalAbort as exc:
        # no artifact of an earlier run in ``out`` may outlive the abort
        for name in ("results.csv", "summary.json"):
            (out / name).unlink(missing_ok=True)
        (out / "invariants.txt").write_text(f"numerical_abort=fail # {exc}\n")
        return 3
    _write_csv(out / "results.csv", header, rows)
    _write_summary(out / "summary.json", {"mode": cfg.mode, **summary})
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
    ap.add_argument("--mode", choices=tuple(_RUNNERS), help="override the config mode")
    ap.add_argument("--out", help="output directory")
    ap.add_argument("--seed", type=int, help="seed for randomized verifiers")
    args = ap.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if v is not None}
    try:
        cfg = parse_config(overrides.pop("config", None), overrides)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
