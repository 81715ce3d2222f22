"""The fleet campaign: 10k+ boot jobs through the service, verified.

This is the deployment-shaped experiment the paper implies but never
shows: a whole fleet of consumer-electronics devices — heterogeneous
workload profiles x BB configurations x fault plans, most devices
identical to thousands of siblings — booted through the async service
instead of one batch sweep.  The campaign:

1. builds a device matrix (:func:`build_specs`) whose ``repeat`` counts
   model fleet popularity (one TV model ships millions of units),
2. boots an in-process :class:`~repro.fleet.service.FleetService` on an
   ephemeral port, submits everything over TCP, and streams results,
3. replays every **unique** job through a fresh serial
   :class:`~repro.runner.sweep.SweepRunner` and byte-compares the
   canonical encodings — the fleet-vs-serial identity oracle — and
4. reports sustained throughput (jobs/minute) for the floor gate in
   ``make fleet-smoke``.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.report import format_table
from repro.canonical import canonical_bytes, canonical_json
from repro.errors import FleetError
from repro.fleet.client import FleetClient, RetryPolicy
from repro.fleet.resources import ResourcePolicy
from repro.fleet.service import FleetService
from repro.runner.sweep import SweepRunner
from repro.fleet.protocol import job_from_spec

#: Fault presets that model field failures worth sweeping at fleet scale.
_FAULT_PRESETS = ("flaky-services", "storage-storm", "missing-device")


def build_specs(smoke: bool = False,
                total_jobs: int | None = None) -> list[dict[str, Any]]:
    """The campaign device matrix as wire specs.

    Full matrix: 6 workload profiles x {full, none} BB x (healthy + 3
    fault presets x 2 seeds) = 84 unique boots; smoke: 2 profiles x 2 BB
    x (healthy + 1 preset) = 8 unique.  ``repeat`` counts spread
    ``total_jobs`` (default 10,080) across the cells with a deliberate
    skew — earlier cells model popular device models — so the stream is
    dominated by single-flight/cache traffic exactly like a real fleet.
    """
    workloads = ("tv", "camera") if smoke else (
        "tv", "tv-commercial", "camera", "phone", "wearable", "appliance")
    presets = _FAULT_PRESETS[:1] if smoke else _FAULT_PRESETS
    seeds = (1,) if smoke else (1, 2)
    if total_jobs is None:
        total_jobs = 10_080

    cells: list[dict[str, Any]] = []
    for workload in workloads:
        for bb in ("full", "none"):
            cells.append({"kind": "boot", "workload": workload, "bb": bb,
                          "label": f"{workload}/{bb}/healthy"})
            for preset in presets:
                for seed in seeds:
                    cells.append({
                        "kind": "boot", "workload": workload, "bb": bb,
                        "fault": {"preset": preset, "seed": seed},
                        "label": f"{workload}/{bb}/{preset}#{seed}",
                    })

    # Zipf-ish popularity skew: cell i ships proportionally to 1/(i+1),
    # scaled so the campaign totals ``total_jobs``.
    weights = [1.0 / (index + 1) for index in range(len(cells))]
    scale = total_jobs / sum(weights)
    repeats = [max(1, round(weight * scale)) for weight in weights]
    deficit = total_jobs - sum(repeats)
    repeats[0] = max(1, repeats[0] + deficit)
    for cell, repeat in zip(cells, repeats):
        cell["repeat"] = repeat
    return cells


@dataclass(slots=True)
class CampaignResult:
    """What one fleet campaign measured.

    Attributes:
        total_jobs: Tickets submitted (after ``repeat`` expansion).
        unique_jobs: Distinct fingerprints in the matrix.
        executed: Unique jobs the shards actually simulated.
        cache_hits: Tickets answered from the cache at submit time.
        coalesced: Tickets that rode an in-flight execution
            (single-flight dedup).
        wall_s: Submit-to-done wall time.
        jobs_per_min: Sustained delivery throughput.
        identical: Every fleet result byte-matched its serial replay.
        mismatches: Human-readable identity violations (empty = pass).
        serial_wall_s: Wall time of the serial replay of unique jobs.
        peak_workers: Largest shard count the pool reached.
        scaled_up / scaled_down: Auto-scale events observed.
        smoke: Whether this was the CI-sized matrix.
        status: The service's final status snapshot.
        provenance: ``"fresh"`` for an uninterrupted campaign,
            ``"resumed"`` when the service recovered journaled work or
            the client retried through a restart.
        resumed_jobs: Submissions the service's journal resumed.
        client_retries: Transport attempts beyond the first across all
            submissions (see ``SubmissionOutcome.attempts``).
        requeued: Fingerprints requeued after shard crashes.
        quarantined: Fingerprints quarantined by the service.
    """

    total_jobs: int
    unique_jobs: int
    executed: int
    cache_hits: int
    coalesced: int
    wall_s: float
    jobs_per_min: float
    identical: bool
    mismatches: list[str] = field(default_factory=list)
    serial_wall_s: float = 0.0
    peak_workers: int = 0
    scaled_up: int = 0
    scaled_down: int = 0
    smoke: bool = False
    status: dict[str, Any] = field(default_factory=dict)
    provenance: str = "fresh"
    resumed_jobs: int = 0
    client_retries: int = 0
    requeued: int = 0
    quarantined: int = 0


def run(smoke: bool = False, total_jobs: int | None = None,
        max_workers: int | None = None,
        batch_size: int = 16,
        journal_dir: str | None = None) -> CampaignResult:
    """Run the campaign end to end; see :class:`CampaignResult`.

    Boots an in-process service on an ephemeral port and streams the
    whole matrix through it as one submission, then checks the result
    with the same serial identity oracle as :func:`run_external`.
    """
    from repro.runner.schedule import resolve_worker_count

    specs = build_specs(smoke=smoke, total_jobs=total_jobs)
    policy = ResourcePolicy(
        min_workers=1,
        max_workers=resolve_worker_count(max_workers))

    async def _in_process() -> tuple[RemoteOutcome, float]:
        service = FleetService(port=0, policy=policy, batch_size=batch_size,
                               journal_dir=journal_dir)
        host, port = await service.start()
        try:
            started = time.perf_counter()
            outcome = await _drive(host, port, [specs])
            wall_s = time.perf_counter() - started
            await service.drain()
            return outcome, wall_s
        finally:
            if not service.draining:
                await service.stop()

    outcome, wall_s = asyncio.run(_in_process())
    return _campaign_result(specs, outcome, wall_s, smoke)


def specs_expanded_total(specs: list[dict[str, Any]]) -> int:
    """Total tickets a spec list expands to."""
    return sum(spec.get("repeat", 1) for spec in specs)


# ------------------------------------------------- canonical campaign report


def campaign_report(total: int, fingerprints: list[str],
                    payloads: list[bytes],
                    errors: dict[Any, str]) -> dict[str, Any]:
    """The campaign's result stream as a pure-data report document.

    Per-ticket fingerprints plus sha256 of each canonical payload, in
    submission order — everything that identifies *what the fleet
    answered*, nothing that depends on *how* (timings, worker counts,
    how many times the client had to retry).
    """
    return {
        "total": total,
        "jobs": [{"fingerprint": fingerprint,
                  "payload_sha256": hashlib.sha256(payload).hexdigest()}
                 for fingerprint, payload in zip(fingerprints, payloads)],
        "errors": {str(key): value for key, value in sorted(
            errors.items(), key=lambda item: str(item[0]))},
    }


def serial_campaign_bytes(specs: list[dict[str, Any]]
                          ) -> tuple[bytes, int]:
    """Canonical report of an *uninterrupted serial* run of ``specs``.

    This is the ground truth the ``fleet-crash`` verify group compares
    a crashed-and-resumed campaign against: expand the specs in
    submission order, run each unique fingerprint once through a fresh
    serial :class:`~repro.runner.sweep.SweepRunner`, and canonicalize.
    Returns ``(bytes, unique_job_count)``.
    """
    expanded: list[tuple[str, Any]] = []
    unique: dict[str, Any] = {}
    for spec in specs:
        job, repeat = job_from_spec(spec)
        fingerprint = job.fingerprint()
        unique.setdefault(fingerprint, job)
        expanded.extend([(fingerprint, job)] * repeat)
    with SweepRunner(jobs=1) as runner:
        results = runner.run(list(unique.values()))
    by_fingerprint = {fingerprint: canonical_bytes(result)
                      for fingerprint, result in zip(unique, results)}
    fingerprints = [fingerprint for fingerprint, _ in expanded]
    payloads = [by_fingerprint[fingerprint] for fingerprint in fingerprints]
    report = campaign_report(len(expanded), fingerprints, payloads, {})
    return canonical_json(report), len(unique)


# ----------------------------------------------------- remote (client) mode


def chunk_specs(specs: list[dict[str, Any]],
                cells_per_chunk: int = 1) -> list[list[dict[str, Any]]]:
    """Split a spec list into per-submission chunks.

    Chunked submission is what makes a campaign *restart-survivable* at
    useful granularity: each chunk is one journaled submission, so a
    service crash loses at most one chunk's ack — which the client
    resubmits idempotently.
    """
    cells_per_chunk = max(1, cells_per_chunk)
    return [specs[index:index + cells_per_chunk]
            for index in range(0, len(specs), cells_per_chunk)]


@dataclass(slots=True)
class RemoteOutcome:
    """A chunked campaign's aggregated stream, in submission order.

    Attributes:
        total: Tickets across all chunks (after ``repeat`` expansion).
        fingerprints / payloads: Per ticket, submission order.
        errors: Global-ticket-index (or ``"N:server"``) -> message.
        attempts: Transport attempts summed over chunks (== number of
            chunks when nothing ever failed).
        chunks: Submissions made.
        status: The service's final status snapshot (after the last
            chunk; reflects the *surviving* process after a restart).
    """

    total: int = 0
    fingerprints: list[str] = field(default_factory=list)
    payloads: list[bytes] = field(default_factory=list)
    errors: dict[Any, str] = field(default_factory=dict)
    attempts: int = 0
    chunks: int = 0
    status: dict[str, Any] = field(default_factory=dict)

    def report(self) -> dict[str, Any]:
        return campaign_report(self.total, self.fingerprints,
                               self.payloads, self.errors)


async def _drive(host: str, port: int,
                 chunks: list[list[dict[str, Any]]],
                 retry: RetryPolicy | None = None,
                 connect_timeout: float | None = 5.0,
                 read_timeout: float | None = None,
                 priority: int = 0) -> RemoteOutcome:
    """Submit ``chunks`` in order over one client and aggregate the
    streams; every campaign mode runs through this driver."""
    outcome = RemoteOutcome()
    client = FleetClient(host, port, connect_timeout=connect_timeout,
                         read_timeout=read_timeout)
    try:
        for number, chunk in enumerate(chunks):
            result = await client.submit_with_retry(
                chunk, priority=priority, sid=f"campaign-{number}",
                policy=retry)
            base = len(outcome.payloads)
            for offset, message in sorted(result.errors.items()):
                key = (f"{number}:server" if offset < 0
                       else base + offset)
                outcome.errors[key] = message
            outcome.total += result.total
            outcome.fingerprints.extend(result.fingerprints)
            outcome.payloads.extend(result.payloads)
            outcome.attempts += result.attempts
            outcome.chunks += 1
        try:
            outcome.status = await client.status()
        except FleetError:
            await client.close()
            await client.connect()
            outcome.status = await client.status()
    finally:
        await client.close()
    return outcome


def run_remote(host: str, port: int,
               chunks: list[list[dict[str, Any]]],
               retry: RetryPolicy | None = None,
               connect_timeout: float | None = 5.0,
               read_timeout: float | None = None,
               priority: int = 0) -> RemoteOutcome:
    """Drive a chunked campaign against an *external* fleet service.

    Each chunk keeps a stable ``campaign-N`` submission id across
    retries, so a service restart mid-campaign is survived transparently:
    the journaled service resumes what it acked, the client resubmits
    what it never saw acked, and the content-addressed cache makes both
    paths converge on identical bytes.
    """
    return asyncio.run(_drive(host, port, chunks, retry=retry,
                              connect_timeout=connect_timeout,
                              read_timeout=read_timeout, priority=priority))


def run_external(host: str, port: int, smoke: bool = False,
                 total_jobs: int | None = None,
                 cells_per_chunk: int = 1,
                 retry: RetryPolicy | None = None,
                 connect_timeout: float | None = 5.0,
                 read_timeout: float | None = None) -> CampaignResult:
    """The campaign against an already-running ``repro fleet serve``.

    Same matrix and same serial identity oracle as :func:`run`, but
    submitted in restart-survivable chunks through
    :meth:`~repro.fleet.client.FleetClient.submit_with_retry` — this is
    the mode that rides out a service crash + restart, and its result
    carries the resumed-vs-fresh provenance.
    """
    specs = build_specs(smoke=smoke, total_jobs=total_jobs)
    chunks = chunk_specs(specs, cells_per_chunk)
    started = time.perf_counter()
    outcome = run_remote(host, port, chunks, retry=retry,
                         connect_timeout=connect_timeout,
                         read_timeout=read_timeout)
    wall_s = time.perf_counter() - started
    return _campaign_result(specs, outcome, wall_s, smoke)


def _campaign_result(specs: list[dict[str, Any]], outcome: RemoteOutcome,
                     wall_s: float, smoke: bool) -> CampaignResult:
    """The identity oracle and result of one campaign run.

    Replays every unique job through a fresh serial ``SweepRunner``
    (separate caches, separate process) and requires the streamed
    campaign report to be byte-identical to the serial one.
    """
    serial_started = time.perf_counter()
    expected, unique_jobs = serial_campaign_bytes(specs)
    serial_wall_s = time.perf_counter() - serial_started
    mismatches: list[str] = []
    if canonical_json(outcome.report()) != expected:
        mismatches.append(
            "campaign report is not byte-identical to the uninterrupted "
            "serial run")
    for key, message in sorted(outcome.errors.items(),
                               key=lambda item: str(item[0])):
        mismatches.append(f"job {key}: streamed error: {message}")

    status = outcome.status
    scheduler = status.get("scheduler", {})
    pool = status.get("pool", {})
    journal = status.get("journal", {})
    resilience = status.get("resilience", {})
    resumed = int(journal.get("resumed", 0))
    retries = max(0, outcome.attempts - outcome.chunks)
    return CampaignResult(
        total_jobs=outcome.total,
        unique_jobs=unique_jobs,
        executed=int(scheduler.get("dispatched", 0)),
        cache_hits=int(scheduler.get("cache_hits", 0)),
        coalesced=int(scheduler.get("coalesced", 0)),
        wall_s=wall_s,
        jobs_per_min=(outcome.total / wall_s * 60.0) if wall_s else 0.0,
        identical=not mismatches,
        mismatches=mismatches,
        serial_wall_s=serial_wall_s,
        peak_workers=int(pool.get("peak_workers", 0)),
        scaled_up=int(pool.get("scaled_up", 0)),
        scaled_down=int(pool.get("scaled_down", 0)),
        smoke=smoke,
        status=status,
        provenance="resumed" if (resumed or retries) else "fresh",
        resumed_jobs=resumed,
        client_retries=retries,
        requeued=int(resilience.get("requeued", 0)),
        quarantined=int(resilience.get("quarantined", 0)),
    )


def render(result: CampaignResult) -> str:
    """Human-readable campaign report."""
    scope = "smoke matrix" if result.smoke else "full matrix"
    provenance = result.provenance
    if result.resumed_jobs or result.client_retries:
        provenance += (f" ({result.resumed_jobs} journal-resumed, "
                       f"{result.client_retries} client retries)")
    rows = [
        ("jobs submitted", f"{result.total_jobs:,}"),
        ("unique boots", f"{result.unique_jobs}"),
        ("executed by shards", f"{result.executed}"),
        ("cache hits at submit", f"{result.cache_hits:,}"),
        ("single-flight coalesced", f"{result.coalesced:,}"),
        ("stream wall time", f"{result.wall_s:.2f} s"),
        ("throughput", f"{result.jobs_per_min:,.0f} jobs/min"),
        ("serial replay (unique)", f"{result.serial_wall_s:.2f} s"),
        ("peak workers", f"{result.peak_workers}"),
        ("auto-scale events", f"+{result.scaled_up}/-{result.scaled_down}"),
        ("provenance", provenance),
        ("requeued/quarantined", f"{result.requeued}/{result.quarantined}"),
        ("fleet == serial", "yes" if result.identical else "NO"),
    ]
    out = [f"Fleet campaign ({scope}): async service vs serial sweep, "
           "byte-identity checked",
           format_table(["metric", "value"], rows)]
    for mismatch in result.mismatches[:10]:
        out.append(f"  ! {mismatch}")
    if len(result.mismatches) > 10:
        out.append(f"  ... and {len(result.mismatches) - 10} more")
    return "\n".join(out)
