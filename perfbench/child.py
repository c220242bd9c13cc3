"""Child processes of the benchmark.  run.py starts each in a fresh
interpreter with conewave's sources on PYTHONPATH; each writes its result
as JSON to RESULT.

  python perfbench/child.py setup CONFIG_JSON RESULT
      setup_cpu_s: CPU seconds of `import conewave.cli` plus the tables
      cli.run builds before its first slice, on the workload's grids.
  python perfbench/child.py accuracy CONFIG_JSON SEED RESULT
      conv_rel_err: ConvolutionKernel.apply against the point-path reference
      convolve_power, at seed-sampled nodes of each kernel's grid.
  python perfbench/child.py trace CONFIG_FILE OUT_DIR SPANS RESULT
      one cli.run with spans around conewave's public functions; exits
      with the CLI's status.

Imports stay inside the functions so that `setup` times every import.
"""

import json
import math
import sys
import time
import traceback


def build_tables(cfg: dict) -> list:
    """What cli.run builds before its first slice: grid, data, kernel, free
    field and cone accumulator.  Verify mode builds one kernel per gamma on
    the bilinear grid and one on the trilinear grid (with its accumulator),
    and a free field, as cli._mode_verify does.  Returns (gamma, kernel) for
    the largest grid of each gamma.
    """
    from conewave.grid import Grid
    from conewave.potential import ConvolutionKernel
    from conewave.solver import make_data
    from conewave.waveops import ConeAccumulator, FreeField

    R = cfg["R"]
    if cfg["mode"] in ("solve", "sweep"):
        h, t_max = cfg["h"], cfg["t_max"]
        eps = cfg["epsilon"] if cfg["mode"] == "solve" else float(cfg["epsilon_list"].split(",")[0])
        grid = Grid.for_domain(h, t_max + R, t_max)
        v0, v1 = make_data(cfg["family"], eps, R, grid)
        kern = ConvolutionKernel(cfg["gamma"], grid)
        FreeField(v0, v1, grid)
        ConeAccumulator(grid, round(R / h))
        return [(cfg["gamma"], kern)]
    largest = []
    for gs in cfg["verify_gammas"].split(","):
        g = float(gs)
        Rg = 2.0 if abs(g - 2.0) < 1e-9 else R
        T = cfg["verify_T"] * Rg
        largest.append((g, ConvolutionKernel(g, Grid.for_domain(Rg / 64.0, T + Rg, 0.0))))
        h = cfg["trilinear_h"] * Rg
        tri = Grid.for_domain(h, T + Rg, T)
        ConvolutionKernel(g, tri)
        ConeAccumulator(tri, round(Rg / h))
    grid = Grid.for_domain(cfg["h"], cfg["t_max"] + R, cfg["t_max"])
    v0, v1 = make_data("bump_both", 1.0, R, grid)
    FreeField(v0, v1, grid)
    return largest


def setup(cfg: dict) -> dict:
    t0 = time.process_time()
    import conewave.cli  # noqa: F401  (what every CLI run imports)

    build_tables(cfg)
    return {"setup_cpu_s": time.process_time() - t0}


def accuracy(cfg: dict, seed: int, n_nodes: int = 48) -> dict:
    """Largest pointwise relative error of the slice path over n_nodes
    seed-sampled nodes per kernel, for a smooth positive profile on 48-80
    cells.  A narrow support makes most nodes far targets, where the Hankel
    and Toeplitz parts of the slice path cancel and the error grows with
    the grid."""
    import numpy as np

    from conewave.grid import RadialProfile
    from conewave.potential import convolve_power

    rng = np.random.default_rng(seed)
    worst = 0.0
    per_gamma = {}
    for gamma, kern in build_tables(cfg):
        grid = kern.grid
        r = grid.radii()
        b = grid.h * rng.uniform(48.0, 80.0)
        x = np.minimum(r / b, 1.0)
        s = (1.0 - x * x) ** 2 * (1.0 + 0.5 * np.cos(r + rng.uniform(0.0, 2.0 * math.pi)))
        s[r > b] = 0.0
        w = RadialProfile(grid, s, support_radius=b)
        fast = kern.apply(w)
        nodes = rng.choice(np.arange(1, grid.n_r), size=min(n_nodes, grid.n_r - 1), replace=False)
        ref = np.array([convolve_power(w, gamma, float(r[i])) for i in nodes])
        err = float(np.max(np.abs(fast[nodes] - ref) / np.abs(ref)))
        per_gamma[f"{gamma:g}"] = {"n_r": grid.n_r, "rel_err": err}
        worst = max(worst, err)
    return {"conv_rel_err": worst, "per_gamma": per_gamma, "nodes_per_kernel": n_nodes}


def _install(tracer, counters: dict) -> None:
    """Wrap each layer's public entry points where their callers look them up."""
    import conewave.cli as cli
    import conewave.harness as harness
    import conewave.potential as potential
    import conewave.verify as verify
    import conewave.waveops as waveops
    from conewave.potential import ConvolutionKernel
    from conewave.waveops import ConeAccumulator, FreeField

    def support(args):
        kern, w = args[0], args[1]
        b = min(w.support_radius, w.grid.r_max)
        cells = min(max(0, math.ceil(b / w.grid.h - 1e-12)), kern.n - 1)
        counters["support_frac_sum"] += cells / kern.n

    def stored(hist):
        for tab in (hist.u, hist.g):
            if tab is not None:
                counters["stored_bytes"] += tab.nbytes

    def marched(hist):
        counters["march_slices"] += hist.n_used
        stored(hist)

    def dalembert(hist):
        counters["dalembert_slices"] += hist.n_used
        stored(hist)

    def fitted(fit):
        counters["slope"] = fit.slope
        counters["t_numeric"] = list(fit.t_numerics)

    w = tracer.wrap
    w(cli, "run", "cli.run")
    w(cli, "solve_march", "solver.solve_march", after=marched)
    w(harness, "solve_march", "solver.solve_march", after=marched)
    w(cli, "solve_dalembert", "solver.solve_dalembert", after=dalembert)
    w(cli, "scattering_check", "solver.scattering_check")
    w(cli, "liouville", "solver.postprocess")
    w(cli, "dissipation_monitor", "solver.postprocess")
    w(cli, "sweep", "harness.sweep", after=fitted)
    w(harness, "lifespan_measure", "harness.lifespan_measure")
    w(cli, "verify_lemma_integrals", "norms.verify_lemma_integrals")
    w(cli, "verify_bilinear", "verify.bilinear")
    w(cli, "verify_trilinear", "verify.trilinear")
    w(cli, "verify_free_decay", "verify.free_decay")
    w(verify, "convolve_profile", "potential.convolve_profile")
    w(ConvolutionKernel, "__init__", "potential.kernel_init")
    w(ConvolutionKernel, "apply", "potential.apply", before=support)
    w(potential, "trapezoid_weighted", "grid.trapezoid_weighted")
    w(waveops, "trapezoid_weighted", "grid.trapezoid_weighted")
    w(ConeAccumulator, "eval_slice", "waveops.eval_slice")
    w(ConeAccumulator, "push_slice", "waveops.push_slice")
    w(FreeField, "slice", "waveops.free_slice")


def _layer_metrics(agg: dict, counters: dict) -> dict:
    import statistics

    def get(name, key):
        return agg[name][key] if name in agg else 0

    calls = get("potential.apply", "calls")
    slices = counters["march_slices"]
    points = agg.get("harness.lifespan_measure", {}).get("durations", [])
    m = {
        "potential.apply.calls": calls,
        "potential.apply.self_s": get("potential.apply", "self_s"),
        "potential.apply.ms_per_call": 1e3 * get("potential.apply", "self_s") / calls if calls else 0.0,
        "potential.apply.support_frac": counters["support_frac_sum"] / calls if calls else 0.0,
        "potential.kernel_init.calls": get("potential.kernel_init", "calls"),
        "potential.kernel_init.s": get("potential.kernel_init", "s"),
        "potential.convolve_profile.calls": get("potential.convolve_profile", "calls"),
        "solver.solve_march.self_s": get("solver.solve_march", "self_s"),
        "solver.solve_dalembert.self_s": get("solver.solve_dalembert", "self_s"),
        "solver.scattering_check.s": get("solver.scattering_check", "s"),
        "solver.postprocess.s": get("solver.postprocess", "s"),
        "solver.slices": slices,
        "solver.sweeps_per_slice": get("waveops.eval_slice", "calls") / slices if slices else 0.0,
        "solver.stored_mb": counters["stored_bytes"] / 1e6,
        "verify.bilinear.self_s": get("verify.bilinear", "self_s"),
        "verify.trilinear.self_s": get("verify.trilinear", "self_s"),
        "verify.free_decay.self_s": get("verify.free_decay", "self_s"),
        "norms.verify_lemma_integrals.s": get("norms.verify_lemma_integrals", "s"),
        "harness.lifespan_measure.calls": len(points),
        "harness.lifespan_measure.point_s_median": statistics.median(points) if points else 0.0,
        "harness.lifespan_measure.point_s_max": max(points, default=0.0),
        "cli.run.self_s": get("cli.run", "self_s"),
    }
    for layer in ("grid.trapezoid_weighted", "waveops.eval_slice", "waveops.push_slice",
                  "waveops.free_slice"):
        m[f"{layer}.calls"] = get(layer, "calls")
        m[f"{layer}.self_s"] = get(layer, "self_s")
    return m


def trace(cfg_path: str, out_dir: str, spans_path: str) -> tuple[int, dict]:
    import conewave.cli as cli

    from spans import Tracer

    tracer = Tracer()
    counters = {"support_frac_sum": 0.0, "stored_bytes": 0, "march_slices": 0,
                "dalembert_slices": 0}
    _install(tracer, counters)
    try:
        status = cli.run(cli.parse_config(cfg_path, {"out": out_dir}))
    except Exception:  # the run failed; the spans so far are still reported
        traceback.print_exc()
        status = 1
    tracer.dump(spans_path)
    agg = tracer.aggregate()
    covered = sum(e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent) if p < 0)
    extras = {k: counters[k] for k in ("slope", "t_numeric", "dalembert_slices") if k in counters}
    return status, {
        "covered_s": covered,
        "spans": len(tracer.names),
        "layers": _layer_metrics(agg, counters),
        "extras": extras,
    }


def main(argv: list[str]) -> int:
    cmd, *args = argv
    status = 0
    if cmd in ("setup", "accuracy"):
        with open(args[0]) as fh:
            cfg = json.load(fh)
        result = setup(cfg) if cmd == "setup" else accuracy(cfg, int(args[1]))
    elif cmd == "trace":
        status, result = trace(*args[:3])
    else:
        raise SystemExit(f"unknown child command {cmd!r}")
    with open(args[-1], "w") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
