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
line; it exits 1 if any do.  Peak memory varies from run to run and is
not compared.  A refactor that must leave the artifacts byte-identical is
checked this way.

Run:  python benchmarks/artifact_digests.py [--parent REV]
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = ("results.csv", "summary.json", "invariants.txt")


def digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def digests(root: Path) -> dict:
    """config name -> exit status, artifact digests and peak RSS, for the
    tree at ``root``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    report = {}
    for cfg in sorted((root / "configs").glob("*.cfg")):
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.Popen(
                [sys.executable, "-m", "conewave.cli", "--config", str(cfg), "--out", tmp],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            report[cfg.stem] = {
                "exit": proc.returncode,
                **{name: digest(Path(tmp) / name) for name in ARTIFACTS},
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
            }
    return report


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", metavar="REV", help="compare against the tree of this commit")
    args = ap.parse_args()
    report = digests(ROOT)
    if args.parent is None:
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        parent = digests(Path(tmp))
    differ = [
        f"{cfg}/{name}"
        for cfg in sorted(report.keys() | parent.keys())
        for name in ("exit", *ARTIFACTS)
        if report.get(cfg, {}).get(name) != parent.get(cfg, {}).get(name)
    ]
    for pair in differ:
        print(pair)
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
