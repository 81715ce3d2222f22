"""Pieces every workload shares: settings, results, references."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

#: Repository root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent

#: Work space inside the checkout; everything a run writes goes here.
WORK_ROOT = ROOT / ".perfbench"

#: Where traced runs leave their Chrome traces.
TRACE_DIR = WORK_ROOT / "traces"

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Per-request latency limit for ``ok_frac``.  Fleet arrivals are single
#: boots; a batch request is a whole row, prefix group or matrix.
LATENCY_LIMIT_MS = {"cold-sweep": 10_000.0, "fault-matrix": 10_000.0,
                    "design-space": 10_000.0, "fleet-open": 1_000.0}


def nproc() -> int:
    """CPUs this process may run on: the cap on workers and connections."""
    return len(os.sched_getaffinity(0))


@dataclass
class Outcome:
    """What one pass of a workload measured and checked.

    Attributes:
        metrics: End-to-end metric name -> value (``setup_s`` excluded;
            :mod:`perfbench.run` adds it).
        setup_s: Set-up times, one per repeat.
        samples: Metric name -> sample count it was computed from.
        attempted / failed: Operations tried, and those that failed or
            whose output failed its correctness check.
        digest: SHA-256 over every checked output, in input order.
        layer: Per-layer metrics (traced pass only).
        info: Extra facts printed for the reader (not metrics).
    """

    metrics: dict[str, float]
    setup_s: list[float]
    samples: dict[str, int]
    attempted: int
    failed: int
    digest: str
    layer: dict[str, float] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)


def fresh_dir(name: str) -> Path:
    """An empty directory under :data:`WORK_ROOT`, unique to this process."""
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def import_seconds(modules: Sequence[str]) -> float:
    """Wall time of a fresh interpreter importing ``modules`` from ``src``:
    the import share of a set-up, measured anew on every repeat."""
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}]; "
            f"import {', '.join(modules)}")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def timed_setups(repeats: int, setup: Callable[[], Any],
                 discard: Callable[[Any], None]) -> tuple[Any, list[float]]:
    """Run ``setup`` ``repeats`` times; keep the last result, discard the rest."""
    times: list[float] = []
    kept = None
    for index in range(repeats):
        start = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - start)
        if index < repeats - 1:
            discard(state)
        else:
            kept = state
    return kept, times


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def reference_results(jobs: Sequence[Any]) -> list[Any]:
    """From-scratch results of ``jobs``, computed independently of
    ``SweepRunner``: ``execute_job`` on a pool of :func:`nproc` workers
    owned by the benchmark.

    The workers are forked: callers hold no threads here, and unlike
    ``spawn``, ``fork`` starts no resource-tracker process that would
    outlive the benchmark.
    """
    from repro.runner.jobs import execute_job

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=nproc(),
                             mp_context=context) as pool:
        return list(pool.map(execute_job, jobs))


def digest_bytes(chunks: Sequence[bytes]) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(hashlib.sha256(chunk).digest())
    return digest.hexdigest()


def rcu_sums(reports: Sequence[Any]) -> dict[str, float]:
    """Sim-time RCU totals over boot reports (degraded ones count 0)."""
    return {
        "kernel.rcu.spin_ms": sum(getattr(r, "rcu_spin_ns", 0)
                                  for r in reports) / 1e6,
        "kernel.rcu.syncs": float(sum(getattr(r, "rcu_sync_count", 0)
                                      for r in reports)),
    }
