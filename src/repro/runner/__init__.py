"""Parallel sweep runner with deterministic result caching.

Every evaluation artifact re-runs dozens of full :class:`BootSimulation`\\ s,
and every one of those runs is a pure function of its inputs (DESIGN §4.5).
This package exploits that:

* :class:`~repro.runner.jobs.SimJob` — a picklable, declarative description
  of one simulation (workload factory + params, :class:`BBConfig`, cores,
  kernel config) with a stable content :meth:`~repro.runner.jobs.SimJob.fingerprint`,
* :class:`~repro.runner.cache.ResultCache` — an in-memory + optional
  on-disk content-addressed result store keyed by job fingerprint and a
  code-version salt,
* :mod:`~repro.runner.schedule` — the scheduling layer shared with the
  fleet service: :func:`~repro.runner.schedule.plan_batch` (the
  dedup + cache cuts), :class:`~repro.runner.schedule.JobScheduler`
  (priority queue with single-flight dedup, fair-share dispatch and
  per-client ordered delivery) and
  :func:`~repro.runner.schedule.resolve_worker_count` (the one shared
  ``--jobs`` policy),
* :class:`~repro.runner.sweep.SweepRunner` — deduplicates jobs and fans
  them out over a ``ProcessPoolExecutor`` (``jobs=1`` is a strictly
  serial, deterministic fallback),
* :class:`~repro.runner.branch.BranchRunner` — the checkpoint/fork
  engine: jobs sharing a prefix fingerprint run as one recorded prefix
  boot plus cheap copy-on-write suffixes (``SweepRunner(branch=True)``),
* :mod:`~repro.runner.bench` — the engine/cache microbenchmarks, the
  checkpoint benchmark and the serial-vs-parallel sweep benchmark behind
  ``python -m repro bench``.

The experiment drivers under :mod:`repro.experiments` enumerate their
boots as ``SimJob``\\ s and submit them through a shared runner, so
``python -m repro experiment all`` never boots the same
(workload, config, cores) twice.
"""

from repro.canonical import canonical_bytes
from repro.runner.branch import BranchRunner, BranchStats, default_backend
from repro.runner.cache import CacheStats, ResultCache
from repro.runner.jobs import (CheckpointSpec, SimJob, code_version,
                               execute_job, make_boot_simulation)
from repro.runner.schedule import (BatchPlan, JobScheduler, SchedulerStats,
                                   Ticket, plan_batch, resolve_worker_count)
from repro.runner.sweep import SweepRunner, SweepStats

__all__ = [
    "BatchPlan",
    "BranchRunner",
    "BranchStats",
    "CacheStats",
    "CheckpointSpec",
    "JobScheduler",
    "ResultCache",
    "SchedulerStats",
    "SimJob",
    "SweepRunner",
    "SweepStats",
    "Ticket",
    "canonical_bytes",
    "code_version",
    "default_backend",
    "execute_job",
    "make_boot_simulation",
    "plan_batch",
    "resolve_worker_count",
]
