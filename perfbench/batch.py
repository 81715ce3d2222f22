"""The batch workloads: cold-sweep, fault-matrix and design-space.

A *round* resolves the workload's whole matrix once: one ``SweepRunner``
call for cold-sweep and fault-matrix, one ``run_prefiltered`` call per
subject for design-space, each with a fresh in-memory cache so every cell
is resolved cold.  Rounds repeat until ``--seconds`` have passed.  A
round is the request a user waits for, so its wall time is the latency
sample, and ``cells_per_s`` is the median over rounds of cells per second.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

# Bound before the traced pass instruments the program, so the checks
# below never show up as program spans.
from repro.runner.branch import canonical_bytes

from perfbench import inputs
from perfbench.harness import (LATENCY_LIMIT_MS, SETUP_REPEATS, TRACE_DIR,
                               Outcome, digest_bytes, fresh_dir,
                               import_seconds, median, nproc,
                               reference_results, rcu_sums, timed_setups)
from perfbench.measure import TreePeakRss, percentile

#: What a batch run imports before it can build inputs and runners.
SETUP_IMPORTS = ("repro.core", "repro.faults", "repro.runner",
                 "repro.workloads", "repro.analysis.predict")

INPUTS: dict[str, Callable[[int, bool], list[inputs.Request]]] = {
    "cold-sweep": inputs.cold_sweep,
    "fault-matrix": inputs.fault_matrix,
    "design-space": inputs.design_space,
}


def _make_runner(workload: str) -> Any:
    from repro.runner import SweepRunner

    if workload == "cold-sweep":
        return SweepRunner(jobs=nproc())
    if workload == "fault-matrix":
        return SweepRunner(jobs=nproc(), branch=True)
    return SweepRunner(jobs=1)


def _warm_up(workload: str, runner: Any) -> None:
    """Start pool workers and load lazily imported modules, on cells that
    no measured request contains; then give the runner a fresh cache."""
    from repro.core import BBConfig
    from repro.faults import DeferredFault, FaultPlan
    from repro.runner import ResultCache, SimJob
    from repro.workloads import appliance_workload, wearable_workload

    if workload == "cold-sweep":
        runner.run([SimJob.boot(appliance_workload, bb=BBConfig.full(),
                                cores=cores) for cores in (1, 3, 5, 6)])
    elif workload == "fault-matrix":
        runner.run([SimJob.boot(appliance_workload, bb=BBConfig.full(),
                                fault_plan=FaultPlan(seed=seed, deferred=(
                                    DeferredFault(task="*",
                                                  fail_attempts=1),)))
                    for seed in (1, 2, 3)])
    else:
        runner.run_prefiltered([SimJob.boot(wearable_workload,
                                            bb=BBConfig.none(), cores=3)],
                               top_k=1)
    runner.cache = ResultCache()


@dataclass
class _Pass:
    """One timed region: each round's wall time and checked bytes."""

    start_ns: int
    end_ns: int
    round_cells: int
    round_ms: list[float]
    round_chunks: list[list[bytes]]
    frontier_bad: list[int]
    first_outputs: list[Any]

    @property
    def cells(self) -> int:
        return self.round_cells * len(self.round_ms)

    @property
    def cells_per_s(self) -> float:
        return median([self.round_cells * 1e3 / ms for ms in self.round_ms])


def _output_chunks(workload: str, output: Any) -> list[bytes]:
    """The canonical bytes one call's output is checked and digested by."""
    if workload != "design-space":
        return [canonical_bytes(result) for result in output]
    predicted = [p.boot_complete_ns for p in output.predictions]
    return [repr((output.selected, predicted)).encode()] + [
        canonical_bytes(output.results[i]) for i in output.selected]


def _frontier_mismatches(outputs: list[Any]) -> int:
    """Frontier cells whose predicted ``boot_complete_ns`` differs from
    their DES value (design-space's correctness check)."""
    return sum(output.predictions[i].boot_complete_ns
               != output.results[i].boot_complete_ns
               for output in outputs for i in output.selected)


def _timed(workload: str, runner: Any, requests: list[inputs.Request],
           seconds: float, rss: TreePeakRss) -> _Pass:
    """Rounds until ``seconds`` have passed.  Each round's outputs are
    reduced to their canonical bytes between rounds, outside the round's
    timing, so memory does not grow with the number of rounds."""
    from repro.runner import ResultCache

    prefiltered = workload == "design-space"
    run = _Pass(0, 0, sum(len(request) for request in requests),
                [], [], [], [])
    run.start_ns = time.perf_counter_ns()
    deadline = run.start_ns + int(seconds * 1e9)
    while time.perf_counter_ns() < deadline or not run.round_ms:
        outputs = []
        began = time.perf_counter_ns()
        for request in requests:
            runner.cache = ResultCache()
            if prefiltered:
                outputs.append(runner.run_prefiltered(
                    request, top_k=inputs.DESIGN_TOP_K))
            else:
                outputs.append(runner.run(request))
        run.round_ms.append((time.perf_counter_ns() - began) / 1e6)
        rss.sample()
        run.round_chunks.append([chunk for output in outputs
                                 for chunk in _output_chunks(workload,
                                                             output)])
        run.frontier_bad.append(_frontier_mismatches(outputs)
                                if prefiltered else 0)
        if not run.first_outputs:
            run.first_outputs = outputs
    run.end_ns = time.perf_counter_ns()
    return run


def _check(run: _Pass,
           reference: list[bytes] | None) -> tuple[int, str, list[bool]]:
    """Failed cells, the digest of the first round, and whether each
    round was entirely correct.

    cold-sweep and fault-matrix compare every result with the
    from-scratch ``reference``; design-space requires each frontier
    cell's predicted ``boot_complete_ns`` to equal its DES value.  Every
    round must also reproduce the first round byte for byte.
    """
    first = run.round_chunks[0]
    failed = 0
    round_ok: list[bool] = []
    for chunks, frontier_bad in zip(run.round_chunks, run.frontier_bad):
        bad = frontier_bad
        if reference is not None:
            bad += sum(a != b for a, b in zip(chunks, reference))
        if chunks != first:
            bad = max(bad, 1)
        failed += bad
        round_ok.append(bad == 0)
    return failed, digest_bytes(first), round_ok


def _reports(workload: str, outputs: list[Any]) -> list[Any]:
    if workload == "design-space":
        return [output.results[i] for output in outputs
                for i in output.selected]
    return [report for output in outputs for report in output]


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool, rss: TreePeakRss) -> Outcome:
    """Measure ``workload``; with ``trace`` also run the traced pass."""
    from perfbench import trace as tracing

    def setup() -> tuple[list[inputs.Request], Any]:
        import_seconds(SETUP_IMPORTS)
        requests = INPUTS[workload](seed, smoke)
        runner = _make_runner(workload)
        _warm_up(workload, runner)
        return requests, runner

    (requests, runner), setups = timed_setups(
        1 if trace else SETUP_REPEATS, setup, lambda state: state[1].close())
    try:
        untraced = _timed(workload, runner, requests, seconds, rss)
        rss.sample()
    finally:
        runner.close()

    reference = None
    if workload != "design-space":
        reference = [chunk for output in reference_results(
            [job for request in requests for job in request])
            for chunk in _output_chunks(workload, [output])]
    failed, digest, round_ok = _check(untraced, reference)
    limit = LATENCY_LIMIT_MS[workload]
    rounds = len(untraced.round_ms)
    outcome = Outcome(
        metrics={"cells_per_s": untraced.cells_per_s,
                 "latency_p50_ms": percentile(untraced.round_ms, 50),
                 "latency_p90_ms": percentile(untraced.round_ms, 90),
                 "ok_frac": sum(ok and ms <= limit for ok, ms in zip(
                     round_ok, untraced.round_ms)) / rounds,
                 "peak_rss_mb": rss.peak_mib},
        setup_s=setups,
        samples={"cells_per_s": rounds, "latency_p50_ms": rounds,
                 "latency_p90_ms": rounds, "ok_frac": rounds,
                 "setup_s": len(setups), "peak_rss_mb": rss.processes},
        attempted=untraced.cells, failed=failed, digest=digest,
        info={"cells_per_round": untraced.round_cells})
    if not trace:
        return outcome

    recorder = tracing.Recorder(fresh_dir("spans"))
    tracing.instrument(recorder)
    (requests, runner), _ = timed_setups(1, setup, lambda state: None)
    try:
        traced = _timed(workload, runner, requests, seconds, rss)
    finally:
        runner.close()
    traced_failed, traced_digest, _ = _check(traced, reference)
    if traced_digest != digest:
        traced_failed = max(traced_failed, 1)
    outcome.attempted += traced.cells
    outcome.failed += traced_failed
    outcome.info["traced_digest_matches"] = traced_digest == digest

    spans = tracing.in_window(recorder.gather(), traced.start_ns,
                              traced.end_ns)
    window_s = (traced.end_ns - traced.start_ns) / 1e9
    layer = tracing.layer_metrics(spans, window_s)
    layer.update(rcu_sums(_reports(workload, traced.first_outputs)))
    layer["trace.overhead_frac"] = (untraced.cells_per_s
                                    / traced.cells_per_s - 1.0)
    outcome.layer = layer
    trace_path = TRACE_DIR / f"{workload}-seed{seed}.json"
    outcome.info["trace_spans"] = tracing.chrome_trace(
        spans, traced.start_ns, trace_path)
    outcome.info["trace_file"] = str(trace_path)
    outcome.info["traced_wall_s"] = window_s
    outcome.info["sim_run_share"] = layer["sim.run_s"] / (
        window_s * (1 if workload == "design-space" else nproc()))
    return outcome
