"""Smoke test of the benchmark itself: python -m pytest bench

Runs every workload for a moment, traced and untraced, and checks the
result line against BENCHMARK.json; then checks the independent oracles
and the span recorder's self-time arithmetic on small cases.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int, seconds: float = 0.3):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_names_every_metric(workload, trace):
    # pmf_large runs long enough for its traced half to hold a dist request.
    done = run_bench(ROOT, workload, trace, 4 if workload == "pmf_large" else 0.3)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace and workload == "sample_stream":
        assert result["metrics"]["polycoeff.calls"]["value"] == 0
    if trace and workload == "pmf_large":
        assert result["metrics"]["distributions.pmf_X.calls_per_request"]["value"] == 2


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_comtet_matches_naive_powers():
    for l in range(0, 5):
        row = [1]
        for k in range(0, 7):
            assert [checks.comtet(l, k, n) for n in range(k * l + 1)] == row
            row = [sum(row[max(0, n - l):n + 1]) for n in range(len(row) + l)]


def test_self_time_subtracts_children_and_rng():
    tracer = Tracer(rc=None)
    # a [0, 10] holds b [1, 4] and the two segments of generator c,
    # [5, 6] and [7, 9]; 0.5 s of rng work ran directly under a.
    spans = [("cli.main", 0, 10, -1, 0), ("distributions.pmf_X", 1, 4, 0, 1),
             ("polycoeff.iter_raw_rows", 5, 6, 0, 2), ("polycoeff.iter_raw_rows", 7, 9, 0, 2)]
    for name, start, end, parent, call in spans:
        tracer.name.append(name)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.call.append(call)
    tracer.rng_child[0] = 0.5
    assert tracer.self_times() == [3.5, 3, 1, 2]
