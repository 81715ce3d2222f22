"""Branch-identity oracle: checkpoint/fork must be invisible in results.

The checkpoint/fork engine (:mod:`repro.runner.branch`) promises that
running a fault matrix as one shared prefix plus forked suffixes returns
*exactly* what from-scratch boots return — not statistically close,
byte-identical.  This module is the oracle for that promise: it builds a
mixed matrix that exercises every branch path (the null cell, early and
late divergence, no-divergence cells, degraded boots, non-branchable
path faults) and compares every branched result against a from-scratch
:func:`~repro.runner.jobs.execute_job` via
:func:`~repro.canonical.canonical_bytes` — the canonical encoding
that makes equal values encode equally even after a fork-pipe or worker
pool round-trip permutes a frozenset's pickle layout.
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import BBConfig
from repro.faults import (DeferredFault, FaultPlan, PathFault, ServiceFault,
                          SettleFault, StorageFault)
from repro.canonical import canonical_bytes
from repro.runner.branch import (BACKEND_FORK, BACKEND_REPLAY,
                                 default_backend)
from repro.runner.jobs import SimJob, execute_job
from repro.runner.sweep import SweepRunner
from repro.workloads import opensource_tv_workload


def identity_matrix(smoke: bool = False) -> list[SimJob]:
    """The oracle's job matrix, covering every branch code path.

    Cells (all on the TV workload under full BB):

    * the null cell — answered straight from the cached prefix probe;
    * transient service failures (fork at the unit's first attempt);
    * a permanent failure of a completion-critical unit — the suffix
      ends degraded, so the branch must reproduce the degraded report;
    * settle jitter on settle-capable units (late divergence) and on a
      unit without hardware settle (no divergence: master-report
      answer);
    * storage latency spikes (early divergence — near-full suffix);
    * deferred-task failures (post-completion divergence);
    * a path fault — structurally non-branchable, must fall back to a
      from-scratch run and still match.
    """
    boot = lambda plan: SimJob.boot(opensource_tv_workload,  # noqa: E731
                                    bb=BBConfig.full(), fault_plan=plan)
    jobs = [
        boot(None),
        boot(FaultPlan(seed=21, services=(
            ServiceFault(unit="logger.service", fail_attempts=1),))),
        boot(FaultPlan(seed=22, services=(
            ServiceFault(unit="dbus.service", fail_attempts=99),))),
        boot(FaultPlan(seed=23, settles=(
            SettleFault(unit="fasttv.service", jitter=0.5),))),
        boot(FaultPlan(seed=24, settles=(
            SettleFault(unit="logger.service", jitter=0.5),))),
        boot(FaultPlan(seed=25, storage=(
            StorageFault(spike_rate=0.05, spike_ns=400_000),))),
        boot(FaultPlan(seed=26, deferred=(
            DeferredFault(task="*", fail_attempts=1),))),
        boot(FaultPlan(seed=27, paths=(
            PathFault(path="/dev/verify_branch", delay_ns=50_000_000),))),
    ]
    if not smoke:
        jobs += [
            boot(FaultPlan(seed=28, services=(
                ServiceFault(unit="tuner.service", hang_ns=30_000_000,
                             hang_rate=1.0),))),
            boot(FaultPlan(seed=29, services=(
                ServiceFault(unit="*.service", fail_rate=0.02),))),
            boot(FaultPlan(seed=30, settles=(
                SettleFault(unit="hdmi.service", multiplier=3.0),))),
            boot(FaultPlan(seed=31, deferred=(
                DeferredFault(task="journal-flush-and-rotate",
                              fail_attempts=2),))),
        ]
    return jobs


def backend_configs(smoke: bool = False) -> list[tuple[str, int]]:
    """(backend, jobs) combinations the oracle must hold under."""
    configs = [(BACKEND_REPLAY, 1), (BACKEND_REPLAY, 2)]
    if default_backend() == BACKEND_FORK:
        configs += [(BACKEND_FORK, 1), (BACKEND_FORK, 2)]
        if not smoke:
            configs.append((BACKEND_FORK, 4))
    return configs


def check_branch_identity(
        smoke: bool = False,
        progress: Callable[[str], None] | None = None,
) -> tuple[list[str], int, int]:
    """Run the oracle; returns ``(violations, boots, checks)``.

    From-scratch results are computed once; each (backend, jobs) combo
    then runs the same matrix through a cold branching
    :class:`~repro.runner.sweep.SweepRunner` and every cell is compared
    by canonical bytes.
    """
    jobs = identity_matrix(smoke)
    violations: list[str] = []
    boots = 0
    checks = 0

    scratch = [execute_job(job) for job in jobs]
    boots += len(jobs)
    expected = [canonical_bytes(result) for result in scratch]

    for backend, workers in backend_configs(smoke):
        label = f"{backend}/jobs={workers}"
        if progress is not None:
            progress(label)
        with SweepRunner(jobs=workers, branch=True, branch_backend=backend,
                         min_branch_group=2) as runner:
            branched = runner.run(jobs)
        boots += runner.stats.executed + runner.stats.prefix_boots
        if not runner.stats.branched:
            violations.append(f"{label}: no cell was actually branched")
        for index, (job, want, got) in enumerate(
                zip(jobs, expected, branched)):
            checks += 1
            if canonical_bytes(got) != want:
                violations.append(
                    f"{label}: cell {index} "
                    f"({job.fault_plan.label if job.fault_plan else 'null'}"
                    f" seed={job.fault_plan.seed if job.fault_plan else '-'})"
                    f" diverged from the from-scratch result")
    return violations, boots, checks
