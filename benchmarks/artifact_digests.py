"""Digests of the CLI artifacts of every shipped config.

Runs each ``configs/*.cfg`` through ``python -m conewave.cli`` in a
subprocess, with a temporary output directory, and prints sorted JSON:
config name -> exit status and the sha256 of ``results.csv``,
``summary.json`` and ``invariants.txt``.  A refactor that must leave the
artifacts byte-identical is checked by diffing this output against the
output at the parent commit.  Takes about 50 s of CPU.

Run:  python benchmarks/artifact_digests.py
"""

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


def main() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    report = {}
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run(
                [sys.executable, "-m", "conewave.cli", "--config", str(cfg), "--out", tmp],
                env=env,
                capture_output=True,
            )
            report[cfg.stem] = {
                "exit": proc.returncode,
                **{name: digest(Path(tmp) / name) for name in ARTIFACTS},
            }
    print(json.dumps(report, sort_keys=True, indent=2))


if __name__ == "__main__":
    main()
