"""fleet-open: an open-loop generator against ``FleetService`` in its own
process.

Arrivals are sent on a fixed schedule (:data:`RATE_PER_S`), whether or
not earlier ones have been answered, over ``nproc`` connections.  Each
arrival's latency runs from its *due* time to its result frame, so a
stalled generator shows up as latency and as ``fleet.gen.lag_*``.  The
service runs with a fresh write-ahead journal and a fresh disk cache,
shards capped at ``nproc``; its shutdown has a deadline, and a missed one
is counted and answered with SIGKILL to the service's process group.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench import inputs
from perfbench.harness import (LATENCY_LIMIT_MS, ROOT, SETUP_REPEATS,
                               TRACE_DIR, Outcome, digest_bytes, fresh_dir,
                               nproc, reference_results, rcu_sums)
from perfbench.measure import TreePeakRss, percentile

#: Offered load: arrivals per second (half of them repeats).
RATE_PER_S = 6.0

#: How long a service may take to print its port, and to drain.
START_DEADLINE_S = 60.0
DRAIN_DEADLINE_S = 15.0

#: After the last due time, how long to wait for outstanding results.
RESULT_GRACE_S = 30.0

#: Seconds between peak-RSS samples during the open loop.
RSS_EVERY_S = 1.0


class _Service:
    """One ``perfbench/fleet_server.py`` process and its process group."""

    def __init__(self, work: Path, trace: bool):
        self.work = work
        self.process = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "fleet_server.py"),
             "--work", str(work), "--max-workers", str(nproc()),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            start_new_session=True)
        self.drain_s = 0.0
        self.drain_timeouts = 0
        try:
            self.port = self._read_port()
        except BaseException:
            self.kill()
            raise

    def _read_port(self) -> int:
        assert self.process.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=START_DEADLINE_S):
                raise RuntimeError("fleet service did not start in time")
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("fleet service exited during start-up")
        return int(json.loads(line)["port"])

    def spill_spans(self) -> None:
        """Ask the service to write its spans; wait until it has."""
        path = self.work / "spans" / f"spans-{self.process.pid}.jsonl"
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10.0
        while not path.exists() and time.monotonic() < deadline:
            time.sleep(0.01)

    def shutdown(self) -> None:
        """``op: drain`` with a deadline; a missed deadline is counted and
        the whole process group is killed."""
        start = time.perf_counter()
        try:
            with socket.create_connection(("127.0.0.1", self.port),
                                          timeout=DRAIN_DEADLINE_S) as sock:
                sock.sendall(b'{"op":"drain"}\n')
                sock.makefile("rb").readline()  # the "draining" event
        except OSError:
            pass  # already gone; wait() below tells
        try:
            self.process.wait(timeout=max(
                0.0, DRAIN_DEADLINE_S - (time.perf_counter() - start)))
        except subprocess.TimeoutExpired:
            self.drain_timeouts += 1
            self.kill()
        self.drain_s = time.perf_counter() - start

    def kill(self) -> None:
        """SIGKILL the service and its shards, then wait for all of them."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.process.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.02)
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None:
                pipe.close()

    def close(self) -> None:
        if self.process.poll() is None:
            self.shutdown()
        self._close_pipes()


@dataclass
class _Loop:
    """What one open-loop pass saw."""

    ready_ns: int = 0
    start_ns: int = 0
    end_ns: int = 0
    due_ns: list[int] = field(default_factory=list)
    sent_ns: dict[int, int] = field(default_factory=dict)
    frames: dict[str, tuple[int, dict[str, Any]]] = field(
        default_factory=dict)
    status: dict[str, Any] = field(default_factory=dict)

    @property
    def window_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _frame(message: dict[str, Any]) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


async def _session(port: int, arrivals: list[inputs.Arrival] | None,
                   rss: TreePeakRss) -> _Loop:
    """Connect and warm up; then, given arrivals, run the open loop."""
    streams = [await asyncio.open_connection("127.0.0.1", port,
                                             limit=64 * 1024 * 1024)
               for _ in range(nproc())]
    for index, (reader, writer) in enumerate(streams):
        writer.write(_frame({"op": "submit", "id": f"warm-{index}",
                             "jobs": [inputs.FLEET_WARMUP_SPEC]}))
        await writer.drain()
        while json.loads(await reader.readline()).get("event") != "done":
            pass
    loop = _Loop(ready_ns=time.perf_counter_ns())
    if arrivals:
        await _open_loop(streams, arrivals, rss, loop)
    for _reader, writer in streams:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return loop


async def _open_loop(streams, arrivals: list[inputs.Arrival],
                     rss: TreePeakRss, loop: _Loop) -> None:
    finished = asyncio.Event()
    status_seen = asyncio.Event()

    async def read(reader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter_ns()
            message = json.loads(line)
            event = message.get("event")
            if event in ("result", "error") and message.get("id") is not None:
                loop.frames.setdefault(message["id"], (now, message))
                if len(loop.frames) == len(arrivals):
                    finished.set()
            elif event == "status":
                loop.status = message
                status_seen.set()

    async def sample() -> None:
        while True:
            await asyncio.sleep(RSS_EVERY_S)
            rss.sample()

    readers = [asyncio.create_task(read(reader)) for reader, _ in streams]
    sampler = asyncio.create_task(sample())
    loop.start_ns = time.perf_counter_ns() + 20_000_000
    loop.due_ns = [loop.start_ns + int(a.due_s * 1e9) for a in arrivals]
    for arrival, due in zip(arrivals, loop.due_ns):
        delay = (due - time.perf_counter_ns()) / 1e9
        if delay > 0:
            await asyncio.sleep(delay)
        writer = streams[arrival.connection][1]
        loop.sent_ns[arrival.index] = time.perf_counter_ns()
        writer.write(_frame({"op": "submit", "id": arrival.arrival_id,
                             "jobs": [arrival.spec]}))
        await writer.drain()
    try:
        await asyncio.wait_for(finished.wait(), timeout=RESULT_GRACE_S)
    except asyncio.TimeoutError:
        pass  # unanswered arrivals are counted as failures
    loop.end_ns = max([loop.start_ns] + [t for t, _ in loop.frames.values()])
    sampler.cancel()
    rss.sample()
    streams[0][1].write(_frame({"op": "status"}))
    await streams[0][1].drain()
    try:
        await asyncio.wait_for(status_seen.wait(), timeout=10.0)
    except asyncio.TimeoutError:
        pass
    for task in readers:
        task.cancel()
    await asyncio.gather(sampler, *readers, return_exceptions=True)


def _start(work_name: str, trace: bool, rss: TreePeakRss,
           arrivals: list[inputs.Arrival] | None
           ) -> tuple[_Service, _Loop, float]:
    """Start a service, connect and warm up (timed as set-up), and run the
    open loop when ``arrivals`` are given."""
    start = time.perf_counter_ns()
    service = _Service(fresh_dir(work_name), trace)
    try:
        loop = asyncio.run(_session(service.port, arrivals, rss))
    except BaseException:
        service.kill()
        raise
    return service, loop, (loop.ready_ns - start) / 1e9


def _check(arrivals: list[inputs.Arrival], loop: _Loop,
           reference: dict[str, bytes]) -> tuple[list[bool], str, int]:
    """Per-arrival correctness, the output digest, and distinct
    fingerprints delivered correctly."""
    from repro.fleet import protocol

    seen: dict[tuple[int, str], bytes] = {}
    correct: list[bool] = []
    chunks: list[bytes] = []
    distinct: set[str] = set()
    for arrival in arrivals:
        _at, message = loop.frames.get(arrival.arrival_id, (0, {}))
        key = json.dumps(arrival.spec, sort_keys=True)
        job, _repeat = protocol.job_from_spec(arrival.spec)
        fingerprint = message.get("fingerprint")
        payload = None
        if "payload" in message:
            payload = protocol.decode_payload(message["payload"])
            seen[(arrival.connection, fingerprint)] = payload
        elif "payload_ref" in message:
            payload = seen.get((arrival.connection, message["payload_ref"]))
        good = (message.get("event") == "result" and "error" not in message
                and fingerprint == job.fingerprint()
                and payload is not None and payload == reference[key])
        correct.append(good)
        if good:
            distinct.add(fingerprint)
        chunks.append(f"{fingerprint}".encode() + (payload or b""))
    return correct, digest_bytes(chunks), len(distinct)


def _reference(arrivals: list[inputs.Arrival]) -> tuple[dict[str, bytes],
                                                        list[Any]]:
    """Serial-replay canonical bytes per distinct spec (outside timing)."""
    from repro.fleet import protocol
    from repro.runner import canonical_bytes

    unique: dict[str, Any] = {}
    for arrival in arrivals:
        unique.setdefault(json.dumps(arrival.spec, sort_keys=True),
                          protocol.job_from_spec(arrival.spec)[0])
    reports = reference_results(list(unique.values()))
    return ({key: canonical_bytes(report)
             for key, report in zip(unique, reports)}, reports)


def _latencies(arrivals, loop: _Loop) -> list[float]:
    return [(loop.frames[a.arrival_id][0] - due) / 1e6
            for a, due in zip(arrivals, loop.due_ns)
            if a.arrival_id in loop.frames]


def _deliver_ms(arrivals, loop: _Loop, spans) -> list[float]:
    """Completion (service) to result frame (client), for arrivals that
    were waiting when their fingerprint completed."""
    completed: dict[str, int] = {}
    for span in spans:
        if span[2] == "fleet.schedule.complete":
            completed.setdefault(span[7]["fp"], span[5])
    values = []
    for arrival in arrivals:
        received, message = loop.frames.get(arrival.arrival_id, (0, {}))
        done = completed.get(message.get("fingerprint"))
        if done is not None and loop.sent_ns[arrival.index] <= done <= received:
            values.append((received - done) / 1e6)
    return values


def run(seed: int, seconds: float, trace: bool, smoke: bool,
        rss: TreePeakRss) -> Outcome:
    """Measure fleet-open; with ``trace`` also run the traced pass."""
    from perfbench import trace as tracing

    rate = RATE_PER_S / 2 if smoke else RATE_PER_S
    arrivals = inputs.fleet_arrivals(seed, max(2, round(rate * seconds)),
                                     rate, nproc())
    setups: list[float] = []
    drain_timeouts = 0
    for _ in range(0 if trace else SETUP_REPEATS - 1):
        service, _loop, setup_s = _start("fleet-setup", False, rss, None)
        setups.append(setup_s)
        service.close()
        drain_timeouts += service.drain_timeouts
    service, untraced, setup_s = _start("fleet", False, rss, arrivals)
    setups.append(setup_s)
    service.close()
    drain_timeouts += service.drain_timeouts

    reference, reports = _reference(arrivals)
    correct, digest, distinct = _check(arrivals, untraced, reference)
    latencies = _latencies(arrivals, untraced)
    limit = LATENCY_LIMIT_MS["fleet-open"]
    ok = sum(good and (untraced.frames[a.arrival_id][0] - due) / 1e6 <= limit
             for a, due, good in zip(arrivals, untraced.due_ns, correct))
    lags = [(untraced.sent_ns[a.index] - due) / 1e6
            for a, due in zip(arrivals, untraced.due_ns)]
    pool = untraced.status.get("pool", {})
    outcome = Outcome(
        metrics={"cells_per_s": distinct / untraced.window_s,
                 "latency_p50_ms": percentile(latencies, 50),
                 "latency_p90_ms": percentile(latencies, 90),
                 "ok_frac": ok / len(arrivals),
                 "peak_rss_mb": rss.peak_mib},
        setup_s=setups,
        samples={"cells_per_s": distinct, "latency_p50_ms": len(latencies),
                 "latency_p90_ms": len(latencies), "ok_frac": len(arrivals),
                 "setup_s": len(setups), "peak_rss_mb": rss.processes},
        attempted=len(arrivals), failed=correct.count(False), digest=digest,
        info={"offered_per_s": rate, "arrivals": len(arrivals),
              "unique_boots": distinct,
              "peak_workers": pool.get("peak_workers"),
              "scheduler": untraced.status.get("scheduler"),
              "drain_s": service.drain_s, "drain_timeouts": drain_timeouts,
              "gen_lag_max_ms": max(lags)})
    if not trace:
        return outcome

    service, traced, _setup = _start("fleet-traced", True, rss, arrivals)
    try:
        service.spill_spans()
    finally:
        service.close()
    drain_timeouts += service.drain_timeouts
    traced_correct, traced_digest, _ = _check(arrivals, traced, reference)
    outcome.attempted += len(arrivals)
    outcome.failed += traced_correct.count(False) + (
        len(arrivals) if traced_digest != digest else 0)
    outcome.info["traced_digest_matches"] = traced_digest == digest

    recorder = tracing.Recorder(service.work / "spans")
    for arrival, due in zip(arrivals, traced.due_ns):
        received, message = traced.frames.get(arrival.arrival_id,
                                              (due, {}))
        recorder.record("fleet.arrival", due, received,
                        request_id=arrival.arrival_id,
                        attrs={"fp": message.get("fingerprint"),
                               "repeat_of": arrival.repeat_of})
    spans = tracing.in_window(recorder.gather(), traced.start_ns,
                              traced.end_ns)
    peak = traced.status.get("pool", {}).get("peak_workers", 0)
    layer = tracing.layer_metrics(spans, traced.window_s, peak_shards=peak)
    layer.update(rcu_sums(reports))
    deliver = _deliver_ms(arrivals, traced, spans)
    traced_latencies = _latencies(arrivals, traced)
    layer.update({
        "fleet.workers.peak": float(peak),
        "fleet.service.deliver_p50_ms": percentile(deliver, 50),
        "fleet.service.failed": float(traced_correct.count(False)),
        "fleet.service.drain_s": service.drain_s,
        "fleet.service.drain_timeouts": float(drain_timeouts),
        "fleet.gen.lag_p90_ms": percentile(lags, 90),
        "fleet.gen.lag_max_ms": max(lags),
        "trace.overhead_frac": percentile(traced_latencies, 50)
        / outcome.metrics["latency_p50_ms"] - 1.0,
    })
    outcome.layer = layer
    outcome.info["trace_file"] = trace_path = str(
        TRACE_DIR / f"fleet-open-seed{seed}.json")
    outcome.info["trace_spans"] = tracing.chrome_trace(
        spans, traced.start_ns, trace_path)
    return outcome
