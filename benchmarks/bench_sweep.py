"""Lockstep sweep benchmark: a parent commit against the working tree.

Prints a JSON record with up to four parts:

* ``pairs``   -- alternating perfbench runs per workload (``perfbench/run.py
  --trace 0`` of each checkout): medians, quartiles and wins of run_ref_s,
  setup_s and peak_rss_mb.  A run that exits nonzero is recorded under
  ``failed_runs`` (side, pair, workload, exit code, last stderr lines with
  the checkout's path dropped) and counted in ``failed`` beside the failed
  operations of the runs that completed, and the part goes on: medians and
  quartiles are over the runs that completed, wins over the pairs where both
  sides completed, out of ``pairs_run``;
* ``layers``  -- one CLI run (``cli.run`` in process) of each perfbench
  workload, lifespan, global and verify, at this seed, parent against
  change, interleaved in one process and split by layer: CPU seconds in the
  free field, closure evaluation (``eval_slice``), slice convolution
  (``cubic`` in the marches, ``apply`` in ``verify_bilinear``), recorder,
  and push with the history step (``push_slice``; a tree from before the
  characteristic recurrence builds the history in ``eval_slice``);
* ``configs`` -- CPU seconds, wall seconds and peak RSS (``ru_maxrss``) of
  one CLI run of each shipped config, two rounds alternating between the
  checkouts;
* ``tier1``   -- tier-1 wall time of each checkout and the setup time of the
  ``lifespan_sweep`` fixture (the setup of ``test_c7_blowup_regime``).

Run:  python benchmarks/bench_sweep.py --parent REV [--seed 23] [--pairs 10]
          [--seconds 30] [--parts pairs,layers,configs,tier1]

The parent is exported with ``git archive`` into a temporary directory.
The record goes to stdout (redirect it into a ``BENCH_*.json`` file), and
progress lines to stderr.  Only the parts named in ``--parts`` are run.
"""

import argparse
import functools
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("lifespan", "global", "verify")
METRICS = ("run_ref_s", "setup_s", "peak_rss_mb")
CONFIGS = tuple(sorted(p.stem for p in (ROOT / "configs").glob("*.cfg")))
STDERR_LINES = 20  # kept of a failed perfbench run
LAYERS = {  # layer -> the (module, class, method) wrapped in each package
    "free_field": [("waveops", "FreeField", "slice")],
    "closure_eval": [("waveops", "ConeAccumulator", "eval_slice")],
    "slice_convolution": [("potential", "ConvolutionKernel", "cubic"),
                          ("potential", "ConvolutionKernel", "apply")],
    "recorder": [("solver", "_Recorder", "record")],
    "push_and_history": [("waveops", "ConeAccumulator", "push_slice")],
}


def summary(values: list) -> dict:
    """Median and quartiles of the runs that completed (None marks a failed
    run); None for each when fewer than two completed."""
    done = [v for v in values if v is not None]
    if len(done) < 2:
        return {"median": None, "q1": None, "q3": None, "runs": values}
    q1, _, q3 = statistics.quantiles(done, n=4, method="inclusive")
    return {"median": statistics.median(done), "q1": q1, "q3": q3, "runs": values}


def compare(parent: list, change: list) -> dict:
    """Both sides' summaries, and the change's wins over the pairs where
    both runs completed."""
    p, c = summary(parent), summary(change)
    both = [(a, b) for a, b in zip(parent, change) if a is not None and b is not None]
    out = {"parent": p, "change": c, "pairs_run": len(parent), "pairs_compared": len(both),
           "change_wins": sum(b < a for a, b in both)}
    if p["median"] is not None and c["median"] is not None:
        out["median_change_minus_parent"] = c["median"] - p["median"]
        out["relative_median_change"] = c["median"] / p["median"] - 1.0
        out["parent_iqr"] = p["q3"] - p["q1"]
    return out


def sides(parent_dir: Path) -> dict:
    return {"parent": parent_dir, "change": ROOT}


def in_order(i: int) -> tuple:
    """Parent first in even rounds, change first in odd ones."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def run_pairs(parent_dir: Path, seed: int, pairs: int, seconds: int) -> dict:
    got = {w: {s: [] for s in ("parent", "change")} for w in WORKLOADS}  # None: run failed
    failed_runs = {w: [] for w in WORKLOADS}
    for i in range(pairs):
        for side in in_order(i):
            for w in WORKLOADS:
                root = sides(parent_dir)[side]
                cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", w,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
                if out.returncode != 0:
                    failed_runs[w].append({"side": side, "pair": i, "workload": w,
                                           "exit": out.returncode,
                                           "stderr_tail": out.stderr.replace(f"{root}/", "")
                                           .splitlines()[-STDERR_LINES:]})
                    got[w][side].append(None)
                    print(f"pair {i} {side} {w} failed, exit {out.returncode}", file=sys.stderr)
                    continue
                rec = json.loads(out.stdout.strip().splitlines()[-1])
                got[w][side].append(rec)
                print(f"pair {i} {side} {w} run_ref_s {rec['metrics']['run_ref_s']['value']:.3f}",
                      file=sys.stderr)
    res = {}
    for w, by in got.items():
        res[w] = {m: compare(*[[None if r is None else r["metrics"][m]["value"] for r in by[s]]
                               for s in ("parent", "change")])
                  for m in METRICS}
        res[w]["failed"] = {s: {"ops": sum(r["failed"] for r in by[s] if r is not None),
                                "runs": sum(r is None for r in by[s])} for s in by}
        res[w]["failed_runs"] = failed_runs[w]
    return res


def _layer_worker(parent_src: str, seed: int, reps: int) -> dict:
    """Child process: wrap each layer of both packages, then time one CLI
    run of each workload per side, the sides interleaved."""
    pkgs = Path(tempfile.mkdtemp())
    shutil.copytree(Path(parent_src) / "conewave", pkgs / "conewave_parent")
    sys.path[:0] = [str(pkgs), str(ROOT / "src"), str(ROOT / "perfbench")]
    import importlib

    from workloads import make_config

    spent: dict = {}

    def wrap(owner, name, label):
        fn = getattr(owner, name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[label] = spent.get(label, 0.0) + time.process_time() - t0

        setattr(owner, name, timed)

    clis = {}
    for side, pkg in (("parent", "conewave_parent"), ("change", "conewave")):
        for label, methods in LAYERS.items():
            for mod, cls, meth in methods:
                wrap(getattr(importlib.import_module(f"{pkg}.{mod}"), cls), meth, label)
        clis[side] = importlib.import_module(f"{pkg}.cli")

    def run(side, workload):
        cli = clis[side]
        cfg = cli.parse_config(None, dict(make_config(workload, seed), out=str(pkgs / "out")))
        if cli.run(cfg) != 0:
            raise RuntimeError(f"{side} {workload} run failed")

    res = {}
    # one workload at a time, so each package's kernel cache holds its kernels
    for workload in WORKLOADS:
        for side in clis:  # kernels and spectra, once per package
            run(side, workload)
        got = {side: [] for side in clis}
        for i in range(reps):
            for side in in_order(i):
                spent.clear()
                t0 = time.process_time()
                run(side, workload)
                total = time.process_time() - t0
                row = {label: spent.get(label, 0.0) for label in LAYERS}
                row["other"] = total - sum(row.values())
                row["total"] = total
                got[side].append(row)
        res[workload] = {side: {k: statistics.median(r[k] for r in rows) for k in rows[0]}
                         for side, rows in got.items()}
    shutil.rmtree(pkgs)
    return {"reps": reps, "cpu_s_median": res}


def run_layers(parent_dir: Path, seed: int, reps: int) -> dict:
    code = (f"import json, sys; sys.path.insert(0, {str(ROOT / 'benchmarks')!r}); "
            f"import bench_sweep; print(json.dumps(bench_sweep._layer_worker("
            f"{str(parent_dir / 'src')!r}, {seed}, {reps})))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    res["what"] = ("CPU seconds per CLI run of each perfbench workload at this seed, medians "
                   "over repetitions in one process that alternate parent and change, after "
                   "one warm-up run per side (kernels and spectra cached); each layer is the "
                   "time inside the wrapped methods, 'other' the rest of the run")
    return res


def cli_cpu(root: Path, cfg: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "conewave.cli", "--config",
                                 str(ROOT / "configs" / f"{cfg}.cfg"), "--out", tmp],
                                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    return {"cpu_s": usage.ru_utime + usage.ru_stime, "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit": os.waitstatus_to_exitcode(status)}


def run_configs(parent_dir: Path, rounds: int = 2) -> dict:
    res = {c: {"parent": [], "change": []} for c in CONFIGS}
    for i in range(rounds):
        for c in CONFIGS:
            for side in in_order(i):
                res[c][side].append(cli_cpu(sides(parent_dir)[side], c))
    return res


def run_tier1(parent_dir: Path) -> dict:
    res = {}
    for side, root in sides(parent_dir).items():
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors", "--durations=0"],
                             cwd=root, env=env, capture_output=True, text=True).stdout
        last = out.strip().splitlines()[-1]
        fixture = re.search(r"([\d.]+)s setup\s+tests/test_acceptance.py::test_c7_blowup_regime", out)
        res[side] = {
            "result": re.sub(r"=+", "", last).strip(),
            "wall_s": float(re.search(r"in ([\d.]+)s", last).group(1)),
            "lifespan_sweep_fixture_s": float(fixture.group(1)) if fixture else None,
        }
    return res


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent commit")
    ap.add_argument("--seed", type=int, default=23)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--layer-reps", type=int, default=6)
    ap.add_argument("--parts", default="pairs,layers,configs,tier1")
    args = ap.parse_args()
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
                         capture_output=True, text=True, check=True).stdout.strip()
    import numpy

    record = {
        "what": "The parent commit against the change: perfbench pairs, the workload runs "
                "by layer, shipped-config CPU and tier-1 time (the parts run)",
        "command": f"python benchmarks/bench_sweep.py --parent {rev} --seed {args.seed} "
                   f"--pairs {args.pairs} --seconds {args.seconds} --parts {args.parts}",
        "parent": rev,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "cpu": platform.machine()},
    }
    with tempfile.TemporaryDirectory() as tmp:
        parent_dir = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        parts = args.parts.split(",")
        if "pairs" in parts:
            record["pairs"] = {
                "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
                "order": "alternating: parent first in even pairs, change first in odd pairs; "
                         "per pair the workloads ran lifespan, global, verify",
                "quartiles": "statistics.quantiles(n=4, method='inclusive') over the runs of a "
                             "side; each run is one perfbench --trace 0 measurement",
                "workloads": run_pairs(parent_dir, args.seed, args.pairs, args.seconds),
            }
        if "layers" in parts:
            record["layers"] = run_layers(parent_dir, args.seed, args.layer_reps)
        if "configs" in parts:
            record["configs"] = run_configs(parent_dir)
        if "tier1" in parts:
            record["tier1"] = run_tier1(parent_dir)
    print(json.dumps(record, indent=1))


if __name__ == "__main__":
    main()
