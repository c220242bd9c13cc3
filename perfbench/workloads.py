"""The three benchmark workloads: the CLI config each one generates from the
seed, and the checks on the artifacts of each CLI run.

Pure Python: the parent process of the benchmark never imports numpy or
conewave, so its own start-up stays out of every measurement.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

WORKLOADS = ("lifespan", "global", "verify")

# The shipped lifespan range.  T(3.2) ~ 152 < t_max, so no point is censored,
# and the 2/gamma law is asymptotic in small epsilon: a range shifted up to
# 4.1-6.2 fits a slope of -3.53 and fails slope_within_25pct.
_LIFESPAN_EPS = (3.2, 5.4)
# Each epsilon is drawn within +-10% of a fifth's width around the middle of
# its fifth of the log range.  The smallest point sets most of the sweep's
# cost (T grows like eps^-5), so a draw over the whole fifth would move
# wall_s by 10-15% from seed to seed; this one moves the marched time by ~2%.
_LIFESPAN_JITTER = 0.1


def _lifespan_epsilons(rng: random.Random, lo: float, hi: float) -> list[float]:
    a, b = math.log(lo), math.log(hi)
    eps = []
    for i in range(5):
        u = i + 0.5 + rng.uniform(-_LIFESPAN_JITTER, _LIFESPAN_JITTER)
        eps.append(float(f"{math.exp(a + u / 5 * (b - a)):.6g}"))
    return eps


def make_config(name: str, seed: int, smoke: bool = False) -> dict:
    """CLI config (key -> value) of one workload; a function of the seed only.

    Every workload is cut to 3-4 s per CLI run on a quiet 2-core host:
    lifespan at h = 1/8 rather than 1/16 and refine = 0 rather than 1,
    global at t_max = 100 rather than 200, verify at verify_T = 25 rather
    than 50.  On a shared host single runs vary by 10-30%, in slow spells
    of seconds to minutes, so one measurement needs eight or more runs
    spread over its length for a steady median.

    ``smoke`` shrinks every grid so the whole benchmark runs in seconds, for
    the benchmark's own test; the code paths are the same.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "lifespan":
        eps = _lifespan_epsilons(rng, *((3.6, 5.4) if smoke else _LIFESPAN_EPS))
        return {
            "mode": "sweep",
            "gamma": -0.4,
            "R": 1.0,
            "family": "bump_v1_only",
            "epsilon_list": ",".join(repr(e) for e in eps),
            "h": 0.125,
            "t_max": 100.0 if smoke else 170.0,
            "refine": 0,
            "delta": 0.5,
        }
    if name == "global":
        eps = math.exp(rng.uniform(math.log(5e-4), math.log(2e-3)))
        return {
            "mode": "solve",
            "gamma": 1.0,
            "R": 1.0,
            "family": "bump_v1_only",
            "epsilon": float(f"{eps:.6g}"),
            "h": 0.125 if smoke else 0.0625,
            "t_max": 20.0 if smoke else 100.0,
            "t_star": 10.0 if smoke else 50.0,
            "run_dalembert": 1,
        }
    if name == "verify":
        # verify_estimates.cfg with the seed as verifier seed, but verify_T = 25
        return {
            "mode": "verify",
            "gamma": 1.0,
            "R": 1.0,
            "h": 0.25 if smoke else 0.0625,
            "t_max": 6.0 if smoke else 110.0,
            "seed": seed,
            "lemma_samples": 500 if smoke else 10000,
            "verify_T": 4.0 if smoke else 25.0,
            "verify_gammas": "-0.4,1,2,2.5",
            "trilinear_h": 0.125 if smoke else 0.03125,
        }
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def write_config(cfg: dict, path: Path) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))


def ops_per_run(cfg: dict) -> int:
    """Operations in one CLI run: one per sweep point, else the run itself."""
    if cfg["mode"] == "sweep":
        return len(cfg["epsilon_list"].split(","))
    return 1


ARTIFACTS = ("results.csv", "summary.json", "invariants.txt")


def read_artifacts(out: Path) -> dict:
    return {a: (out / a).read_bytes() if (out / a).is_file() else None for a in ARTIFACTS}


def _csv_rows(blob: bytes) -> list[list[str]]:
    lines = blob.decode().splitlines()
    return [ln.split(",") for ln in lines[1:] if ln]


def failed_ops(cfg: dict, status: int, arts: dict, ref: dict | None) -> int:
    """Operations of one CLI run that failed.

    A run fails as a whole on a non-zero exit, a missing artifact, any
    ``fail`` line in invariants.txt, or a summary.json / invariants.txt that
    is not byte-identical to ``ref`` (the first run at the same seed).  A
    sweep point fails alone when it is censored or its results.csv row
    differs from the reference row.
    """
    n_ops = ops_per_run(cfg)
    if status != 0 or any(v is None for v in arts.values()):
        return n_ops
    inv = arts["invariants.txt"].decode().splitlines()
    if not inv or any(not ln.endswith("=pass") for ln in inv):
        return n_ops
    if ref is not None and any(arts[a] != ref[a] for a in ("summary.json", "invariants.txt")):
        return n_ops
    rows = _csv_rows(arts["results.csv"])
    ref_rows = _csv_rows(ref["results.csv"]) if ref is not None else rows
    if cfg["mode"] == "sweep":
        if len(rows) != n_ops or len(ref_rows) != n_ops:
            return n_ops
        return sum(1 for row, r0 in zip(rows, ref_rows) if row[4] != "0" or row != r0)
    if rows != ref_rows:
        return n_ops
    if cfg["mode"] == "solve" and len(rows) != round(cfg["t_max"] / cfg["h"]) + 1:
        return n_ops  # a solve that stops early did not march the whole run
    return 0
