"""``benchmarks/bench_sweep.py --parts pairs`` with ``subprocess.run``
stubbed: a perfbench run that fails is recorded with its stderr and
counted as failed, and the other runs still count."""

import json
import subprocess
from pathlib import Path

import pytest

from test_perfbench_names import _load_script

METRIC_VALUES = {"parent": 2.0, "change": 1.0}  # every metric, every run of a side


def fake_run(fail):
    """A stand-in for ``subprocess.run`` that prints a perfbench record for
    each call, except that call number ``fail`` exits 1; returns it and the
    list of (side, workload) it was called with."""
    calls = []

    def run(cmd, cwd, capture_output, text):
        side = "parent" if Path(cwd).name == "parent_tree" else "change"
        workload = cmd[cmd.index("--workload") + 1]
        calls.append((side, workload))
        if len(calls) - 1 == fail:
            return subprocess.CompletedProcess(cmd, 1, "", "setup\nhost-speed probe flake\n")
        value = {"value": METRIC_VALUES[side]}
        record = {"metrics": dict.fromkeys(("run_ref_s", "setup_s", "peak_rss_mb"), value),
                  "failed": 0}
        return subprocess.CompletedProcess(cmd, 0, json.dumps(record), "")

    return run, calls


@pytest.mark.parametrize("pairs", [2, 3])
def test_failed_run_is_recorded_and_the_rest_counted(tmp_path, monkeypatch, pairs):
    bench = _load_script("bench_sweep")
    # pair 0 runs the parent first: its lifespan, global, verify, then the
    # change's; call 4 is the change's global run of pair 0
    run, calls = fake_run(fail=4)
    monkeypatch.setattr(bench.subprocess, "run", run)
    res = bench.run_pairs(tmp_path / "parent_tree", seed=1, pairs=pairs, seconds=1)
    assert len(calls) == 2 * pairs * len(bench.WORKLOADS)
    assert calls[4] == ("change", "global")
    (failed,) = res["global"]["failed_runs"]
    assert failed == {"side": "change", "pair": 0, "workload": "global", "exit": 1,
                      "stderr_tail": ["setup", "host-speed probe flake"]}
    for w in bench.WORKLOADS:
        for m in bench.METRICS:
            cmp = res[w][m]
            lost = w == "global"
            assert cmp["parent"]["runs"] == [2.0] * pairs
            assert cmp["change"]["runs"] == [None] * lost + [1.0] * (pairs - lost)
            assert cmp["pairs_run"] == pairs
            assert cmp["pairs_compared"] == cmp["change_wins"] == pairs - lost
            assert cmp["parent"]["median"] == 2.0
            assert cmp["change"]["median"] == (None if pairs - lost < 2 else 1.0)
        assert res[w]["failed"] == {"parent": {"ops": 0, "runs": 0},
                                    "change": {"ops": 0, "runs": int(lost)}}
        if w != "global":
            assert res[w]["failed_runs"] == []
