"""The traced mode: wall-clock spans around the calls into each layer.

Nothing here edits ``src/repro``.  :func:`instrument` replaces the public
entry points listed in :data:`LAYER_MAP` with thin wrappers that record a
span (name, start, end, parent, request id, a few counters) in a
:class:`Recorder`.  Processes forked after instrumentation — the sweep's
process pool, the branch runner's fork children, fleet shards — inherit
the wrappers; they spill their spans to ``spans-<pid>.jsonl`` files when
their outermost span closes, and the process that owns the recorder
gathers everything once, at the end.

A span's *self time* is its duration minus the part of it that its child
spans (same process) cover; :func:`layer_metrics` turns the spans of one
timed window into the per-layer metrics of ``BENCHMARK.json``.
:func:`chrome_trace` writes them in the Chrome trace-event format that
:mod:`repro.analysis.chrome_trace` uses for sim-time bootcharts.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from perfbench.measure import percentile

#: Layer (module) -> the span names recorded for it.  Each span times one
#: public function; README.md's layer map says which.
LAYER_MAP: dict[str, tuple[str, ...]] = {
    "workloads": ("workloads.build",),
    "core": ("core.init", "core.start"),
    "sim": ("sim.run",),
    "analysis.metrics": ("analysis.report",),
    "analysis.predict": ("analysis.predict",),
    "runner.jobs": ("runner.execute", "runner.fingerprint"),
    "runner.branch": ("runner.canonical", "runner.branch.group"),
    "runner.cache": ("runner.cache.get", "runner.cache.put"),
    "runner.sweep": ("runner.sweep.run", "runner.sweep.prefiltered"),
    "runner.schedule": ("fleet.schedule.submit", "fleet.schedule.next_batch",
                        "fleet.schedule.complete"),
    "fleet.protocol": ("fleet.protocol.decode", "fleet.protocol.encode",
                       "fleet.protocol.payload"),
    "fleet.journal": ("fleet.journal.submit", "fleet.journal.done"),
    "fleet.workers": ("fleet.workers.batch",),
    "fleet.service": ("fleet.arrival",),
}

_SPILL_GLOB = "spans-*.jsonl"

#: Per-layer metrics the fleet-open harness measures itself (client-side
#: clocks, the service's status and shutdown); they read 0 elsewhere.
FLEET_HARNESS_METRICS = (
    "fleet.workers.peak", "fleet.service.deliver_p50_ms",
    "fleet.service.failed", "fleet.service.drain_s",
    "fleet.service.drain_timeouts", "fleet.gen.lag_p90_ms",
    "fleet.gen.lag_max_ms")


class Recorder:
    """In-memory span store for one process and the children it forks.

    A span is the list ``[id, parent, name, pid, start_ns, end_ns,
    request_id, attrs]``; times are ``time.perf_counter_ns()`` values,
    which share one monotonic clock across the processes of a host.

    Args:
        spill_dir: Where forked children write their spans.
    """

    def __init__(self, spill_dir: str | os.PathLike[str]):
        self.spill_dir = Path(spill_dir)
        self.home_pid = os.getpid()
        self.spans: list[list[Any]] = []
        self.request_id: str | None = None
        self._pid = self.home_pid
        self._stack: list[str] = []
        self._local = 0
        self._ids = itertools.count()

    def _adopt_fork(self) -> None:
        """First span in a forked child: start an empty, parentless store."""
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self.spans = []
            self._stack = []
            self._local = 0
            self._ids = itertools.count()

    def begin(self, request_id: str | None = None) -> tuple:
        self._adopt_fork()
        span_id = f"{self._pid}:{next(self._ids)}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        self._local += 1
        previous = self.request_id
        if request_id is not None:
            self.request_id = request_id
        return span_id, parent, previous, time.perf_counter_ns()

    def end(self, token: tuple, name: str, attrs: dict | None) -> None:
        end = time.perf_counter_ns()
        span_id, parent, previous, start = token
        self._stack.pop()
        self._local -= 1
        self.spans.append([span_id, parent, name, self._pid, start, end,
                           self.request_id, attrs])
        self.request_id = previous
        if self._local == 0 and self._pid != self.home_pid:
            self.spill()

    def record(self, name: str, start: int, end: int,
               request_id: str | None = None,
               attrs: dict | None = None) -> None:
        """Add a finished span that has no parent (async or generator side)."""
        self._adopt_fork()
        self.spans.append([f"{self._pid}:{next(self._ids)}", None, name,
                           self._pid, start, end, request_id, attrs])

    def spill(self) -> None:
        """Append this process's spans to its spill file and forget them."""
        if not self.spans:
            return
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
        self.spans = []

    def gather(self) -> list[list[Any]]:
        """This process's spans plus every spilled one, sorted by start."""
        spans = list(self.spans)
        spans.extend(read_spills(self.spill_dir))
        spans.sort(key=lambda span: span[4])
        return spans


def read_spills(spill_dir: Path) -> list[list[Any]]:
    spans: list[list[Any]] = []
    for path in sorted(Path(spill_dir).glob(_SPILL_GLOB)):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


# ------------------------------------------------------------ instrumenting


def _wrap(recorder: Recorder, name: str, fn: Callable,
          request_id: Callable | None = None,
          before: Callable | None = None,
          after: Callable | None = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args) if before is not None else None
        token = recorder.begin(request_id(args) if request_id else None)
        attrs = None
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                attrs = after(args, result, state)
            return result
        finally:
            recorder.end(token, name, attrs)
    return wrapper


def _wrap_async(recorder: Recorder, name: str, fn: Callable,
                after: Callable) -> Callable:
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return await fn(*args, **kwargs)
        finally:
            recorder.record(name, start, time.perf_counter_ns(),
                            attrs=after(args))
    return wrapper


def _patch_function(module: Any, attr: str, wrapper: Callable) -> None:
    """Rebind ``module.attr`` everywhere a ``repro`` module imported it."""
    original = getattr(module, attr)
    for loaded in list(sys.modules.values()):
        if (getattr(loaded, "__name__", "").startswith("repro")
                and getattr(loaded, attr, None) is original):
            setattr(loaded, attr, wrapper)


def instrument(recorder: Recorder) -> None:
    """Wrap every entry point of :data:`LAYER_MAP` to record into ``recorder``.

    Call it before any process pool or service is created, so forked
    workers inherit the wrappers.  Irreversible for the process.
    """
    import repro.fleet.service  # noqa: F401 - bind its imports before patching
    from repro.analysis.predict import SweepPredictor
    from repro.core.bb import BootSimulation
    from repro.fleet import journal, protocol, workers
    from repro.runner import branch, cache, jobs, schedule, sweep
    from repro.sim.engine import Simulator

    fingerprint = jobs.SimJob.fingerprint

    def wrap_method(cls, attr, name, **hooks):
        setattr(cls, attr, _wrap(recorder, name, getattr(cls, attr), **hooks))

    def wrap_function(module, attr, name, **hooks):
        _patch_function(module, attr,
                        _wrap(recorder, name, getattr(module, attr), **hooks))

    def sweep_state(args):
        stats = args[0].stats
        return stats.executed, stats.branched, stats.prefix_boots

    def sweep_attrs(args, _result, state):
        stats = args[0].stats
        return {"jobs": args[0].jobs, "cells": len(args[1]),
                "executed": stats.executed - state[0],
                "branched": stats.branched - state[1],
                "prefix_boots": stats.prefix_boots - state[2]}

    def submit_state(args):
        stats = args[0].stats
        return stats.coalesced, stats.cache_hits

    def submit_attrs(args, ticket, state):
        stats = args[0].stats
        outcome = ("coalesced" if stats.coalesced > state[0]
                   else "cached" if stats.cache_hits > state[1]
                   else "queued")
        return {"fp": ticket.fingerprint, "outcome": outcome}

    wrap_function(jobs, "execute_job", "runner.execute",
                  request_id=lambda args: fingerprint(args[0]))
    wrap_function(jobs, "make_boot_simulation", "workloads.build")
    wrap_method(BootSimulation, "__init__", "core.init")
    wrap_method(BootSimulation, "start", "core.start")
    wrap_method(BootSimulation, "complete", "analysis.report")
    wrap_method(Simulator, "run", "sim.run",
                before=lambda args: args[0].cpu.stats.dispatches,
                after=lambda args, _r, state: {
                    "dispatches": args[0].cpu.stats.dispatches - state})
    wrap_method(jobs.SimJob, "fingerprint", "runner.fingerprint")
    wrap_function(branch, "canonical_bytes", "runner.canonical",
                  after=lambda _a, result, _s: {"bytes": len(result)})
    wrap_method(cache.ResultCache, "get", "runner.cache.get",
                after=lambda _a, result, _s: {"hit": int(result[0])})
    wrap_method(cache.ResultCache, "put", "runner.cache.put")
    wrap_method(sweep.SweepRunner, "run", "runner.sweep.run",
                before=sweep_state, after=sweep_attrs)
    wrap_method(sweep.SweepRunner, "run_prefiltered",
                "runner.sweep.prefiltered",
                after=lambda _a, result, _s: {
                    "frontier": len(result.selected),
                    "cells": len(result.predictions)})
    wrap_method(branch.BranchRunner, "run_group", "runner.branch.group",
                request_id=lambda args: args[1][0][1].prefix_fingerprint())
    wrap_method(SweepPredictor, "predict", "analysis.predict",
                before=lambda args: (args[0].machine_runs,
                                     args[0].fast_hits),
                after=lambda args, _r, state: {
                    "machine_runs": args[0].machine_runs - state[0],
                    "fast_hits": args[0].fast_hits - state[1]})
    wrap_method(schedule.JobScheduler, "submit", "fleet.schedule.submit",
                before=submit_state, after=submit_attrs)
    wrap_method(schedule.JobScheduler, "next_batch",
                "fleet.schedule.next_batch",
                after=lambda _a, batch, _s: {"fps": [fp for fp, _ in batch]})
    wrap_method(schedule.JobScheduler, "complete", "fleet.schedule.complete",
                after=lambda args, _r, _s: {"fp": args[1]})
    wrap_function(protocol, "decode_frame", "fleet.protocol.decode")
    wrap_function(protocol, "encode_frame", "fleet.protocol.encode",
                  after=lambda _a, result, _s: {"bytes": len(result)})
    wrap_function(protocol, "encode_payload", "fleet.protocol.payload",
                  after=lambda _a, result, _s: {"bytes": len(result)})
    wrap_method(journal.JobJournal, "record_submit", "fleet.journal.submit",
                request_id=lambda args: str(args[2]))
    wrap_method(journal.JobJournal, "record_done", "fleet.journal.done")
    workers.WorkerShard.run_batch = _wrap_async(
        recorder, "fleet.workers.batch", workers.WorkerShard.run_batch,
        after=lambda args: {"jobs": len(args[1])})


# ------------------------------------------------------------ derived metrics


def in_window(spans: list[list[Any]], start_ns: int,
              end_ns: int) -> list[list[Any]]:
    """Spans that lie wholly inside ``[start_ns, end_ns]``."""
    return [s for s in spans if s[4] >= start_ns and s[5] <= end_ns]


def self_times(spans: list[list[Any]]) -> dict[str, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[4], span[5]))
    result: dict[str, int] = {}
    for span in spans:
        start, end = span[4], span[5]
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(span[0], ())):
            child_start, child_end = max(child_start, cursor), min(child_end,
                                                                   end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span[0]] = (end - start) - covered
    return result


class _Index:
    """Per-name views of one window's spans."""

    def __init__(self, spans: list[list[Any]]):
        self.by_name: dict[str, list[list[Any]]] = defaultdict(list)
        for span in spans:
            self.by_name[span[2]].append(span)
        self._self = self_times(spans)

    def self_s(self, *names: str) -> float:
        return sum(self._self[s[0]] for name in names
                   for s in self.by_name[name]) / 1e9

    def total_s(self, *names: str) -> float:
        return sum(s[5] - s[4] for name in names
                   for s in self.by_name[name]) / 1e9

    def durations_ms(self, *names: str) -> list[float]:
        return [(s[5] - s[4]) / 1e6 for name in names
                for s in self.by_name[name]]

    def attr_sum(self, name: str, key: str) -> float:
        return sum((s[7] or {}).get(key, 0) for s in self.by_name[name])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[list[Any]], window_s: float,
                  peak_shards: int = 0) -> dict[str, float]:
    """Every span-derived per-layer metric for one timed window.

    ``spans`` must already be restricted to the window (:func:`in_window`).
    Layers a workload never reaches read 0.
    """
    ix = _Index(spans)
    sim_run_s = ix.self_s("sim.run")
    dispatches = ix.attr_sum("sim.run", "dispatches")
    cache_gets = len(ix.by_name["runner.cache.get"])
    sweep_runs = ix.by_name["runner.sweep.run"]
    capacity_s = sum((s[5] - s[4]) * (s[7] or {}).get("jobs", 1)
                     for s in sweep_runs) / 1e9
    prefix_boots = ix.attr_sum("runner.sweep.run", "prefix_boots")

    submitted_at: dict[str, int] = {}
    for span in ix.by_name["fleet.schedule.submit"]:
        attrs = span[7] or {}
        if attrs.get("outcome") == "queued":
            submitted_at.setdefault(attrs["fp"], span[5])
    queue_waits = []
    for span in ix.by_name["fleet.schedule.next_batch"]:
        for fp in (span[7] or {}).get("fps", ()):
            if fp in submitted_at:
                queue_waits.append((span[5] - submitted_at.pop(fp)) / 1e6)
    outcomes = [(s[7] or {}).get("outcome")
                for s in ix.by_name["fleet.schedule.submit"]]
    batches = ix.durations_ms("fleet.workers.batch")
    journal = ix.durations_ms("fleet.journal.submit", "fleet.journal.done")

    return {
        "workloads.build_s": ix.self_s("workloads.build"),
        "core.start_s": ix.self_s("core.start"),
        "analysis.report_s": ix.self_s("analysis.report"),
        "sim.run_s": sim_run_s,
        "sim.dispatches": dispatches,
        "sim.us_per_dispatch": _ratio(sim_run_s * 1e6, dispatches),
        "runner.fingerprint_s": ix.self_s("runner.fingerprint"),
        "runner.canonical_s": ix.self_s("runner.canonical"),
        "runner.canonical_bytes": ix.attr_sum("runner.canonical", "bytes"),
        "runner.cache.put_s": ix.total_s("runner.cache.put"),
        "runner.cache.get_s": ix.total_s("runner.cache.get"),
        "runner.cache.hit_rate": _ratio(ix.attr_sum("runner.cache.get",
                                                    "hit"), cache_gets),
        "runner.sweep.run_s": ix.total_s("runner.sweep.run"),
        "runner.sweep.executed": ix.attr_sum("runner.sweep.run", "executed"),
        "runner.sweep.parallel_eff": _ratio(ix.total_s("runner.execute"),
                                            capacity_s),
        "runner.branch.group_s": ix.self_s("runner.branch.group"),
        "runner.sweep.prefix_boots": prefix_boots,
        "runner.branch.cells_per_prefix": _ratio(
            ix.attr_sum("runner.sweep.run", "branched"), prefix_boots),
        "analysis.predict.predict_s": ix.self_s("analysis.predict"),
        "analysis.predict.machine_runs": ix.attr_sum("analysis.predict",
                                                     "machine_runs"),
        "analysis.predict.fast_hits": ix.attr_sum("analysis.predict",
                                                  "fast_hits"),
        "analysis.predict.frontier_boots": ix.attr_sum(
            "runner.sweep.prefiltered", "frontier"),
        "fleet.protocol.decode_s": ix.total_s("fleet.protocol.decode"),
        "fleet.protocol.encode_s": ix.total_s("fleet.protocol.encode",
                                              "fleet.protocol.payload"),
        "fleet.protocol.frame_bytes": ix.attr_sum("fleet.protocol.encode",
                                                  "bytes"),
        "fleet.journal.append_p50_ms": percentile(journal, 50),
        "fleet.journal.append_p90_ms": percentile(journal, 90),
        "fleet.schedule.queue_wait_p50_ms": percentile(queue_waits, 50),
        "fleet.schedule.queue_wait_p90_ms": percentile(queue_waits, 90),
        "fleet.schedule.coalesced": outcomes.count("coalesced"),
        "fleet.schedule.cache_hits": outcomes.count("cached"),
        "fleet.schedule.dispatched": sum(
            len((s[7] or {}).get("fps", ()))
            for s in ix.by_name["fleet.schedule.next_batch"]),
        "fleet.workers.batch_p50_ms": percentile(batches, 50),
        "fleet.workers.batch_p90_ms": percentile(batches, 90),
        "fleet.workers.batch_jobs": _ratio(ix.attr_sum("fleet.workers.batch",
                                                       "jobs"), len(batches)),
        "fleet.workers.busy_frac": _ratio(sum(batches) / 1e3,
                                          window_s * peak_shards),
        **dict.fromkeys(FLEET_HARNESS_METRICS, 0.0),
    }


# ------------------------------------------------------------ chrome trace


def chrome_trace(spans: list[list[Any]], origin_ns: int,
                 path: str | os.PathLike[str]) -> int:
    """Write ``spans`` as a Chrome trace (``ph: "X"``, microseconds).

    One process row per OS pid and one track per layer, named the way
    :func:`repro.analysis.chrome_trace.tracer_to_events` names its tracks;
    the document passes :func:`repro.analysis.schema.validate_chrome_trace`.
    Returns the number of span events written.
    """
    from repro.analysis.schema import validate_chrome_trace

    layer_of = {name: layer for layer, names in LAYER_MAP.items()
                for name in names}
    tracks = {layer: tid for tid, layer in enumerate(LAYER_MAP, start=1)}
    events: list[dict[str, Any]] = []
    named: set[tuple[int, int]] = set()
    for span in spans:
        span_id, parent, name, pid, start, end, request_id, attrs = span
        layer = layer_of.get(name, "other")
        tid = tracks.get(layer, len(tracks) + 1)
        if (pid, 0) not in named:
            named.add((pid, 0))
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": f"pid {pid}"}})
        if (pid, tid) not in named:
            named.add((pid, tid))
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid, "args": {"name": layer}})
        args = {"id": span_id, "parent": parent, "request_id": request_id}
        args.update(attrs or {})
        events.append({"name": name, "cat": layer, "ph": "X", "pid": pid,
                       "tid": tid, "ts": (start - origin_ns) / 1e3,
                       "dur": (end - start) / 1e3, "args": args})
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    validate_chrome_trace(document)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(document), encoding="utf-8")
    return sum(1 for event in events if event["ph"] == "X")
