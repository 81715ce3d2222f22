"""The benchmark's own tests.

Run from the repository root with ``python -m pytest perfbench/tests``.
Workload passes run ``perfbench/run.py --smoke`` in subprocesses: the
traced mode instruments the program irreversibly, so it never runs inside
the test process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, trace  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke_runs() -> dict[tuple[str, int], tuple[dict, str]]:
    """(workload, trace) -> (result object, full stdout) of a smoke pass."""
    runs = {}
    for workload in WORKLOADS:
        for traced in (0, 1):
            done = _run("--workload", workload, "--seed", "3",
                        "--seconds", "0.5", "--trace", str(traced),
                        "--smoke")
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            runs[workload, traced] = (json.loads(lines[-1]), done.stdout)
    return runs


def _jobs_key(requests: list[inputs.Request]) -> list[list[str]]:
    return [[job.fingerprint() for job in request] for request in requests]


@pytest.mark.parametrize("make", [inputs.cold_sweep, inputs.fault_matrix,
                                  inputs.design_space])
def test_batch_inputs_are_a_pure_function_of_the_seed(make):
    first = _jobs_key(make(7, smoke=True))
    assert first == _jobs_key(make(7, smoke=True))
    assert first != _jobs_key(make(8, smoke=True))
    cells = [fp for request in first for fp in request]
    assert len(cells) == len(set(cells)), "cells must be distinct"


def test_fleet_arrivals_are_a_pure_function_of_the_seed():
    first = inputs.fleet_arrivals(7, 40, 10.0, 2)
    assert first == inputs.fleet_arrivals(7, 40, 10.0, 2)
    assert first != inputs.fleet_arrivals(8, 40, 10.0, 2)
    repeats = [a for a in first if a.repeat_of is not None]
    assert len(repeats) == 13  # every third arrival
    for arrival in repeats:
        assert arrival.spec == first[arrival.repeat_of].spec
    fresh = {json.dumps(a.spec, sort_keys=True) for a in first
             if a.repeat_of is None}
    assert len(fresh) == 40 - len(repeats), "fresh specs must be distinct"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_pass_completes_and_checks_out(smoke_runs, workload):
    result, _stdout = smoke_runs[workload, 0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metric_names_match_benchmark_json(smoke_runs, workload):
    for traced, section in ((0, "end_to_end"), (1, "per_layer")):
        metrics = smoke_runs[workload, traced][0]["metrics"]
        declared = {m["name"]: m["unit"] for m in DECLARED[section]}
        assert {name: m["unit"] for name, m in metrics.items()} == declared
        assert all(isinstance(m["value"], float) for m in metrics.values())
    e2e = smoke_runs[workload, 0][0]["metrics"]
    assert all(e2e[name]["value"] > 0 for name in e2e)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_is_inert(smoke_runs, workload):
    """Traced and untraced passes produce identical output digests; the
    traced pass writes a Chrome trace."""
    result, stdout = smoke_runs[workload, 1]
    assert result["correct"]
    assert "# traced_digest_matches: True" in stdout
    untraced_digest = smoke_runs[workload, 0][1].split("digest=")[1][:16]
    assert f"digest={untraced_digest}" in stdout
    trace_file = stdout.split("# trace_file: ")[1].splitlines()[0]
    document = json.loads(Path(trace_file).read_text(encoding="utf-8"))
    assert any(event["ph"] == "X" for event in document["traceEvents"])


@pytest.mark.parametrize("workload,make", [
    ("cold-sweep", inputs.cold_sweep), ("fault-matrix", inputs.fault_matrix)])
def test_rcu_sums_equal_a_from_scratch_replay(smoke_runs, workload, make):
    """The sim-time RCU sums of a traced run equal those of plain
    ``execute_job`` boots of the same cells."""
    from repro.runner.jobs import execute_job

    reports = [execute_job(job) for request in make(3, smoke=True)
               for job in request]
    metrics = smoke_runs[workload, 1][0]["metrics"]
    assert metrics["kernel.rcu.spin_ms"]["value"] == sum(
        getattr(r, "rcu_spin_ns", 0) for r in reports) / 1e6
    assert metrics["kernel.rcu.syncs"]["value"] == sum(
        getattr(r, "rcu_sync_count", 0) for r in reports)


def test_refuses_to_run_without_the_program():
    """A directory holding only BENCHMARK.json and perfbench/ must fail
    fast, without printing a result."""
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run("--workload", "cold-sweep", "--seed", "1",
                    "--seconds", "1", "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert "correct" not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_self_time_subtracts_only_covered_child_time():
    spans = [
        ["p:0", None, "outer", 1, 0, 100, None, None],
        ["p:1", "p:0", "inner", 1, 10, 40, None, None],
        ["p:2", "p:0", "inner", 1, 30, 60, None, None],   # overlaps p:1
        ["p:3", "p:1", "leaf", 1, 20, 25, None, None],
    ]
    self_times = trace.self_times(spans)
    assert self_times == {"p:0": 50, "p:1": 25, "p:2": 30, "p:3": 5}


def test_chrome_trace_is_valid_and_relative():
    out = ROOT / ".perfbench" / "test-trace.json"
    spans = [["7:0", None, "sim.run", 7, 2_000, 5_000, "fp",
              {"dispatches": 3}],
             ["8:0", None, "runner.cache.get", 8, 1_000, 1_500, None, None]]
    try:
        assert trace.chrome_trace(spans, 1_000, out) == 2
        events = json.loads(out.read_text())["traceEvents"]
        sim = next(e for e in events if e["name"] == "sim.run")
        assert (sim["ts"], sim["dur"]) == (1.0, 3.0)
        assert sim["args"]["dispatches"] == 3
    finally:
        out.unlink(missing_ok=True)
