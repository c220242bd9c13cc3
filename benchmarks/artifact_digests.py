"""Digests of the CLI artifacts of every shipped config.

Runs each ``configs/*.cfg`` through ``python -m conewave.cli`` in a
subprocess, with a temporary output directory, and prints sorted JSON:
config name -> exit status, the sha256 of ``results.csv``,
``summary.json`` and ``invariants.txt``, and the child's peak resident
memory in MB (``ru_maxrss`` from ``os.wait4``).  Takes about 50 s of CPU
per tree.

With ``--parent REV`` it exports REV with ``git archive`` into a temporary
directory, runs both trees (each on its own configs), and prints instead
the ``config/artifact`` pairs whose digests or exit statuses differ, one a
line; it exits 1 if any do.  A differing ``summary.json`` or
``results.csv`` line also gives ``max_rel``, the largest relative change
|a - b| / max(|a|, |b|) over the artifact's numbers (JSON leaves, CSV
fields), and the number it was taken at: the JSON key path, or the CSV
row (the header is row 0) and column name.  It reads inf, with no place,
when the two differ in anything but the values of numbers.  Peak memory
varies from run to run and is not compared.  A refactor that must leave
the artifacts byte-identical is checked this way, and a change that moves
results at roundoff level states the shift this way.

Run:  python benchmarks/artifact_digests.py [--parent REV]
"""

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = ("results.csv", "summary.json", "invariants.txt")


def digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _leaves(path: Path) -> list:
    """(key, value) of each JSON leaf or CSV field of an artifact, in order;
    a number's value is its float."""

    def value(x):
        if isinstance(x, str) and path.suffix == ".csv":
            try:
                return float(x)
            except ValueError:
                return x
        return float(x) if isinstance(x, (int, float)) and not isinstance(x, bool) else x

    if path.suffix == ".csv":
        with path.open(newline="") as f:
            rows = list(csv.reader(f))
        header = rows[0] if rows else []
        return [
            ((f"row {i}", header[j] if j < len(header) else f"col {j}"), value(x))
            for i, row in enumerate(rows)
            for j, x in enumerate(row)
        ]
    out = []

    def walk(node, key):
        if isinstance(node, dict):
            for k in sorted(node):
                walk(node[k], key + (k,))
        elif isinstance(node, list):
            for k, item in enumerate(node):
                walk(item, key + (k,))
        else:
            out.append((key, value(node)))

    walk(json.loads(path.read_text()), ())
    return out


def max_rel_change(a: Path, b: Path) -> tuple:
    """(largest |x - y| / max(|x|, |y|) over the numbers of two artifacts
    of the same layout, the key of the number it was taken at); (inf, None)
    when anything but the values of finite numbers differs."""
    la, lb = _leaves(a), _leaves(b)
    if [k for k, _ in la] != [k for k, _ in lb]:
        return math.inf, None
    worst, where = 0.0, None
    for (key, x), (_, y) in zip(la, lb):
        if x == y or (x != x and y != y):  # equal, or both nan
            continue
        if not (isinstance(x, float) and isinstance(y, float)):
            return math.inf, None
        rel = abs(x - y) / max(abs(x), abs(y))
        if math.isnan(rel):  # inf against a finite number, or nan against one
            return math.inf, None
        if rel > worst:
            worst, where = rel, key
    return worst, where


def digests(root: Path, out_base: Path) -> dict:
    """config name -> exit status, artifact digests and peak RSS, for the
    tree at ``root``; each config writes its artifacts to ``out_base/<name>``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    report = {}
    for cfg in sorted((root / "configs").glob("*.cfg")):
        out = out_base / cfg.stem
        proc = subprocess.Popen(
            [sys.executable, "-m", "conewave.cli", "--config", str(cfg), "--out", str(out)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        report[cfg.stem] = {
            "exit": os.waitstatus_to_exitcode(status),
            **{name: digest(out / name) for name in ARTIFACTS},
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
    return report


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", metavar="REV", help="compare against the tree of this commit")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        report = digests(ROOT, tmp / "change")
        if args.parent is None:
            print(json.dumps(report, sort_keys=True, indent=2))
            return
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent],
                                 capture_output=True, check=True).stdout
        (tmp / "tree").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "tree")], input=archive, check=True)
        parent = digests(tmp / "tree", tmp / "parent")
        differ = False
        for cfg in sorted(report.keys() | parent.keys()):
            for name in ("exit", *ARTIFACTS):
                if report.get(cfg, {}).get(name) == parent.get(cfg, {}).get(name):
                    continue
                differ = True
                a, b = tmp / "change" / cfg / name, tmp / "parent" / cfg / name
                shift = ""
                if name in ("summary.json", "results.csv") and a.exists() and b.exists():
                    rel, where = max_rel_change(a, b)
                    shift = f" max_rel={rel:.2e}"
                    if where is not None:
                        shift += " at " + "/".join(map(str, where))
                print(f"{cfg}/{name}{shift}")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
