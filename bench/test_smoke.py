"""Smoke test of the benchmark: a few calls per workload, every metric named.

Run from the root of a checkout: ``python3 -m pytest bench/test_smoke.py``.
"""
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
FEW = 3  # operations per workload


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert _units("end_to_end") == dict(run.END_TO_END)
    assert _units("per_layer") == dict(tracing.PER_LAYER)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_reports_every_metric_without_errors(name, tmp_path):
    bellpair = run._import_cli()
    workload = WORKLOADS[name]
    ops = workload.build(0, tmp_path)
    assert len(ops) >= 100, "p90 needs ten latencies beyond it"
    few = ops[:FEW]
    tally = run.Tally()
    run.check_fixed(0, tmp_path, tally)
    e2e = run.end_to_end(workload, few, 0, bellpair.__version__, tally)
    layers = [run.per_layer(workload, few, 0, tally, tmp_path / "spans.jsonl", {}) for _ in range(2)]
    assert tally.failed == 0, tally.messages
    assert set(e2e) == set(_units("end_to_end"))
    assert all(v > 0 for v in e2e.values())
    assert set(layers[0]) == set(_units("per_layer"))
    counts = [{k: v for k, v in m.items() if k.endswith(".calls") or k in
               ("simulate.events", "bell.eig_per_state")} for m in layers]
    assert counts[0] == counts[1]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate-fit", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
