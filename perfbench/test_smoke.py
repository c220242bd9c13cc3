"""Smoke test of the benchmark on tiny grids.

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py

Runs every workload with tracing off and on, and checks that each metric
named in BENCHMARK.json is emitted with its unit, that every operation
passed, and that the spans of the traced run nest with non-negative self
times.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted(workload, trace):
    res = _bench(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    for v in res["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if trace:
        _check_spans(ROOT / ".perfbench_out" / f"{workload}-seed1-smoke.spans.json")
    else:
        assert all(res["metrics"][m]["value"] > 0 for m in declared)


def _check_spans(path: Path) -> None:
    spans = json.loads(path.read_text())["spans"]
    assert spans and spans[0][0] == "cli.run" and spans[0][3] == -1
    own = [end - start for _, start, end, _ in spans]
    for i, (_, start, end, parent) in enumerate(spans):
        assert end >= start
        if parent >= 0:
            assert parent < i
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end
            own[parent] -= end - start
    assert min(own) >= -1e-9
