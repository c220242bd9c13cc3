"""conewave benchmark: three workloads, run end to end through the CLI.

    python3 perfbench/run.py --workload {lifespan,global,verify} --seed N \\
        --seconds S --trace {0,1} [--smoke]
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --micro

Run from anywhere; the checkout is the directory above this file, and its
``src/`` holds the conewave sources that are measured.

--trace 0  Seven fresh-process set-up probes, then fresh-process CLI runs of
           the workload, repeated for S seconds (at least two, so that
           byte-identical artifacts can be checked).  Prints the end-to-end
           metrics.
--trace 1  One untraced and one traced CLI run, each in a fresh process.
           Prints the per-layer metrics from the traced run; spans go to
           .perfbench_out/<workload>-seed<N>.spans.json.
all        Every workload with --trace 0, then with --trace 1.
--smoke    Tiny grids, for the benchmark's own test (perfbench/test_smoke.py).
--micro    The fast-vs-direct kernel tables of benchmarks/bench_cone.py.
           Not a workload and not gated.

Every process is single-threaded: BLAS/OpenMP pools are pinned to one
thread, and every process runs on one CPU next to the host-speed probe of
hostspeed.py, which turns measured CPU seconds into seconds on a core of
reference speed.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; metric names and units come from
BENCHMARK.json.  A record of the run (environment, generated config, every
repetition) is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

from hostspeed import Probe
from workloads import WORKLOADS, failed_ops, make_config, ops_per_run, read_artifacts, write_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150.0
# a sanity bound, far above the ~1e-9 the slice path reaches on these grids
MAX_CONV_REL_ERR = 1e-6


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    # Byte-code is cached as for an installed package, outside the sources,
    # whatever the calling shell says: compiling on every import would add
    # to set-up a cost that depends on the shell.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def run_child(argv: list, log: Path, probe: Probe) -> dict:
    """Run one fresh process to completion: its exit status, wall and CPU
    seconds, peak RSS in MB, and the host-speed probe's reads around it."""
    with open(log, "wb") as fh:
        speed0 = probe.read()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [str(a) for a in argv], stdout=fh, stderr=subprocess.STDOUT,
            env=_child_env(), cwd=ROOT,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, wstatus, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        speed1 = probe.read()
    return {"status": os.waitstatus_to_exitcode(wstatus), "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "window": (speed0, speed1)}


def _reference_seconds(run: dict, probe: Probe) -> None:
    run["scale"] = probe.scale(*run["window"])
    run["ref_s"] = run["cpu_s"] * run["scale"]


def _child_result(argv: list, tmp: Path, tag: str, probe: Probe) -> tuple[dict, dict]:
    """Run perfbench/child.py; (run_child's figures, its JSON result)."""
    result = tmp / f"{tag}.json"
    run = run_child([sys.executable, HERE / "child.py", *argv, result], tmp / f"{tag}.log", probe)
    if not result.is_file():
        tail = (tmp / f"{tag}.log").read_text()[-2000:]
        raise RuntimeError(f"child {argv[0]} exited {run['status']} without a result:\n{tail}")
    return run, json.loads(result.read_text())


def cli_run(cfg: dict, cfg_path: Path, tmp: Path, tag: str, ref: dict | None, probe: Probe) -> dict:
    """One fresh-process CLI run, checked against the reference artifacts."""
    out = tmp / tag
    run = run_child([sys.executable, "-m", "conewave.cli", "--config", cfg_path, "--out", out],
                    tmp / f"{tag}.log", probe)
    run["artifacts"] = read_artifacts(out)
    shutil.rmtree(out, ignore_errors=True)
    _reference_seconds(run, probe)
    run["failed"] = failed_ops(cfg, run["status"], run["artifacts"], ref)
    return run


def environment(seed: int, cfg: dict) -> dict:
    git = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, check=True).stdout.strip()
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                                   capture_output=True, text=True, check=True).stdout.strip()
            git = {"revision": rev, "dirty": bool(dirty)}
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git": git,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "seed": seed,
        "config": cfg,
    }


def measure_end_to_end(cfg, cfg_path, cfg_json, tmp, seconds, probe) -> tuple[dict, list, dict]:
    speed0 = probe.read()
    setups = [_child_result(["setup", cfg_json], tmp, f"setup{k}", probe)[1]["setup_cpu_s"]
              for k in range(SETUP_PROBES)]
    setup_scale = probe.scale(speed0, probe.read())
    reps: list[dict] = []
    t0 = time.perf_counter()
    while len(reps) < 2 or time.perf_counter() - t0 + max(r["wall_s"] for r in reps) <= seconds:
        ref = reps[0]["artifacts"] if reps else None
        reps.append(cli_run(cfg, cfg_path, tmp, f"rep{len(reps)}", ref, probe))
    runs = [r["ref_s"] for r in reps]
    walls = [r["wall_s"] for r in reps]
    values = {
        "run_ref_s": statistics.median(runs),
        "setup_s": statistics.median(setups) * setup_scale,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "wall_s": statistics.median(walls),
    }
    notes = {
        "run_ref_s": f"median of {len(reps)} runs, range {min(runs):.3f}-{max(runs):.3f}",
        "setup_s": f"median of {SETUP_PROBES} fresh-process probes, host scale {setup_scale:.3f}",
        "peak_rss_mb": "median over runs",
        "wall_s": f"raw, range {min(walls):.3f}-{max(walls):.3f}; host scale "
                  f"{min(r['scale'] for r in reps):.3f}-{max(r['scale'] for r in reps):.3f}",
    }
    return values, reps, notes


def measure_per_layer(cfg, cfg_path, tmp, spans, probe) -> tuple[dict, list, dict]:
    plain = cli_run(cfg, cfg_path, tmp, "untraced", None, probe)
    out = tmp / "traced"
    traced, result = _child_result(["trace", cfg_path, out, spans], tmp, "traced", probe)
    traced["artifacts"] = read_artifacts(out)
    shutil.rmtree(out, ignore_errors=True)
    _reference_seconds(traced, probe)
    traced["failed"] = failed_ops(cfg, traced["status"], traced["artifacts"], plain["artifacts"])
    values = dict(result["layers"])
    values["cli.artifact_bytes"] = sum(len(b) for b in traced["artifacts"].values() if b is not None)
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_frac"] = traced["ref_s"] / plain["ref_s"] - 1.0
    values["trace.unattributed_s"] = traced["wall_s"] - result["covered_s"]
    return values, [plain, traced], {"extras": result["extras"], "spans": result["spans"]}


def _print_table(rows) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:<42} {value:>14.6g} {unit:<12} {note}")


def run(args) -> int:
    if not (SRC / "conewave" / "__init__.py").is_file():
        print(f"perfbench: no conewave sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    cfg = make_config(args.workload, args.seed, args.smoke)
    tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed, cfg)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("env " + json.dumps(env, sort_keys=True))

    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC], env=_child_env(), check=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        cfg_path, cfg_json = tmp / "workload.cfg", tmp / "workload.json"
        write_config(cfg, cfg_path)
        cfg_json.write_text(json.dumps(cfg))
        with Probe(tmp / "hostspeed.bin", _child_env()) as probe:
            env["cpu"] = probe.cpu
            if args.trace:
                values, runs, notes = measure_per_layer(cfg, cfg_path, tmp, OUT / f"{tag}.spans.json",
                                                        probe)
            else:
                values, runs, notes = measure_end_to_end(cfg, cfg_path, cfg_json, tmp, args.seconds,
                                                         probe)
            _, acc = _child_result(["accuracy", cfg_json, args.seed], tmp, "accuracy", probe)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = ops_per_run(cfg) * len(runs)
    failed = sum(r["failed"] for r in runs)
    accurate = acc["conv_rel_err"] <= MAX_CONV_REL_ERR
    if args.trace:
        values["conv_rel_err"] = acc["conv_rel_err"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    for i, r in enumerate(runs):
        print(f"run {i}: exit {r['status']}, wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
              f"host scale {r['scale']:.3f}, {r['ref_s']:.3f} ref s, failed ops {r['failed']}")
    rows = [(m, v["value"], v["unit"], notes.get(m, "")) for m, v in metrics.items()]
    if args.trace:
        wall = values["trace.wall_s"]
        rows = [(m, v, u, f"{100 * v / wall:5.1f}% of traced wall" if m.endswith(("self_s", ".s")) else n)
                for m, v, u, n in rows]
        for k, v in notes["extras"].items():
            print(f"  {k}: {v}")
    else:
        rows += [("wall_s", values["wall_s"], "s", notes["wall_s"])]
        rows += _workload_rows(cfg, runs, values)
    rows.append(("failed_frac", failed / attempted, "ratio",
                 f"{failed} of {attempted} {'sweep points' if cfg['mode'] == 'sweep' else 'CLI runs'}"))
    if not args.trace:
        rows.append(("conv_rel_err", acc["conv_rel_err"], "ratio",
                     f"max over {acc['nodes_per_kernel']} nodes per kernel: "
                     + json.dumps(acc["per_gamma"])))
    _print_table(rows)

    record = {"env": env, "metrics": metrics, "failed": failed, "attempted": attempted,
              "accuracy": acc, "notes": notes,
              "runs": [{k: v for k, v in r.items() if k != "artifacts"} for r in runs]}
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and accurate, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _workload_rows(cfg: dict, runs: list, values: dict) -> list:
    """Throughput and accuracy figures that apply to one workload only."""
    if cfg["mode"] == "sweep":
        return [("points_per_min", 60.0 * ops_per_run(cfg) / values["run_ref_s"], "points/min",
                 "sweep points per reference-core minute")]
    if cfg["mode"] == "solve":
        summary = json.loads(runs[0]["artifacts"]["summary.json"] or "{}")
        slices = round(cfg["t_max"] / cfg["h"]) + 1  # confirmed against results.csv rows
        return [("slices_per_s", 2 * slices / values["run_ref_s"], "slices/s",
                 f"march + d'Alembert, 2 x {slices} slices per reference-core second"),
                ("backend_diff", summary.get("backend_sup_diff", float("nan")), "abs",
                 "backend_sup_diff from summary.json")]
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=(*WORKLOADS, "all"),
                      help="'all' runs every workload, untraced then traced")
    what.add_argument("--micro", action="store_true",
                      help="run the ungated kernel scaling tables of benchmarks/bench_cone.py")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny grids, for the benchmark's own test")
    args = ap.parse_args(argv)
    if args.micro:
        bench = ROOT / "benchmarks" / "bench_cone.py"
        if not bench.is_file() or not SRC.is_dir():
            print(f"perfbench: {bench} or {SRC} missing", file=sys.stderr)
            return 2
        return subprocess.run([sys.executable, bench], env=_child_env(), cwd=ROOT).returncode
    if args.workload != "all":
        return run(args)
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            status = max(status, run(argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})))
    return status


if __name__ == "__main__":
    sys.exit(main())
