"""The benchmark's own tests: smoke runs of every workload, the exact-count
determinism check, and that a wrong answer fails the run.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {name for name, _unit in run.END_TO_END}


def test_smoke_command_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke", "--seconds", "0.2", "--seed", "5"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {f"{w}.{m}" for w in workloads.WORKLOADS for m in END_TO_END}
    for line in ("error_rate 0 ratio", "backend=", "# inputs"):
        assert line in proc.stdout


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first = run.run_workload(name, 9, 0.2, trace=True, smoke=True)
    second = run.run_workload(name, 9, 0.2, trace=True, smoke=True)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m for m, _u, _b in layers.METRICS}
    for metric in layers.EXACT:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    work = {"scan": "solve.nodes", "solve": "solve.nodes", "forts": "core.minimal_fort_masks.forts",
            "queries": "forcing.closure.calls"}[name]
    assert first["metrics"][work]["value"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_scan_reference_sums_to_the_known_histogram():
    rows = workloads.load_reference()["scan"]
    assert len(rows) == 996
    assert sum(r[0] for r in rows) == 10664
    totals = [sum(r[2 + i] for r in rows) for i in range(4)]
    assert dict(zip((-2, -1, 0, 1), totals)) == workloads.SCAN_HISTOGRAM


def test_inputs_depend_only_on_the_seed():
    for name, cls in workloads.WORKLOADS.items():
        a, b, c = cls(3, True), cls(3, True), cls(4, True)
        assert a.items(0) == b.items(0), name
        assert a.items(0) != c.items(0), name


def test_wrong_answers_fail_the_run(monkeypatch):
    class OffByOne(workloads.Forts):
        def op(self, fp, item, g):
            value, witness = super().op(fp, item, g)
            return value + 1, witness

    monkeypatch.setitem(run.WORKLOADS, "forts", OffByOne)
    result = run.run_workload("forts", 3, 0.1, trace=False, smoke=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
