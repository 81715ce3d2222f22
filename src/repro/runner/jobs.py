"""Declarative simulation jobs with stable content fingerprints.

A :class:`SimJob` is everything a worker process needs to reproduce one
simulation: a *reference* to a module-level workload factory plus its
arguments (never a live :class:`~repro.workloads.base.Workload`, whose
factory closures do not pickle), the BB configuration, the core count and
an optional kernel config.  Because a simulation is a pure function of
these inputs, two jobs with equal fingerprints are interchangeable — the
foundation for both deduplication and result caching.

Fingerprints are content hashes over a *canonical* encoding (sets sorted,
enums by name, callables by qualified name) salted with a hash of the
``repro`` source tree, so editing the simulator invalidates every cached
result automatically.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

from repro.canonical import canonical_repr
from repro.core.config import BBConfig
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan

#: Job kinds understood by :func:`execute_job`.
KIND_BOOT = "boot"
KIND_KERNEL = "kernel"
KIND_RECOVERY = "recovery"


@lru_cache(maxsize=1)
def code_version() -> str:
    """Hash of every ``repro`` source file — the cache's code-version salt.

    Any edit to the simulator, the workloads, or the experiments changes
    this value and therefore every job fingerprint, so stale on-disk cache
    entries can never be served against new code.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(path.relative_to(package_root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


@dataclass(frozen=True, slots=True)
class CheckpointSpec:
    """How a boot job may branch off a shared null-boot prefix.

    Attached to a :class:`SimJob` purely as execution *strategy*: the spec
    never enters the fingerprint, because branching is required to be
    result-invariant (the verify oracle enforces byte-identity).

    Attributes:
        divergence_ns: Optional "fork no later than" sim time.  The branch
            runner forks at ``min(divergence_ns, first injected fault)`` —
            forking earlier than necessary is always sound (the suffix
            just replays more shared events), forking later is not, so an
            explicit time can only tighten the automatic probe-derived
            bound.  ``None`` derives the time entirely from the probe.
        enabled: ``False`` opts this job out of branching even inside an
            eligible group (it runs from scratch).
    """

    divergence_ns: int | None = None
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.divergence_ns is not None and self.divergence_ns < 0:
            raise SimulationError(
                f"CheckpointSpec.divergence_ns cannot be negative: "
                f"{self.divergence_ns!r}")


def _require_module_level(factory: Callable[..., Any]) -> None:
    """Jobs cross process boundaries; the factory must pickle by reference."""
    qualname = getattr(factory, "__qualname__", "")
    module = sys.modules.get(getattr(factory, "__module__", ""), None)
    resolved = getattr(module, qualname, None) if module is not None else None
    if resolved is not factory:
        raise SimulationError(
            f"SimJob factory {factory!r} is not a module-level callable; "
            "it cannot be pickled to worker processes")


@dataclass(frozen=True, slots=True)
class SimJob:
    """One simulation, described by value.

    Attributes:
        kind: ``"boot"`` (full :class:`BootSimulation`, result is a
            :class:`~repro.analysis.metrics.BootReport`) or ``"kernel"``
            (kernel stage only, result is the total kernel nanoseconds).
        workload_factory: Module-level callable building the workload
            (``boot`` jobs only).
        workload_args / workload_kwargs: Arguments for the factory;
            kwargs as a sorted tuple of pairs so the job stays hashable.
        bb: Feature flags; ``None`` means :meth:`BBConfig.none`.
        cores: Core-count override (``None`` = the platform's).
        kernel_config: Kernel build override.
        manual_bb_group: Manual BB-Group override for the Isolator.
        platform_preset: Hardware preset name (``kernel`` jobs only),
            resolved against :mod:`repro.hw.presets`.
        fault_plan: Seeded fault plan for the run (``boot`` and
            ``recovery`` jobs); part of the fingerprint, so a faulted run
            caches and deduplicates like any other.  A boot the plan
            keeps from completing yields a
            :class:`~repro.core.degraded.DegradedBootReport` result.
        recovery_policy: Escalation policy (``recovery`` jobs only); the
            job runs a :class:`~repro.recovery.BootSupervisor` ladder and
            the result is a :class:`~repro.recovery.RecoveryOutcome`.
        checkpoint: Optional :class:`CheckpointSpec` tuning checkpoint/fork
            branching; excluded from the fingerprint (branching must be
            result-invariant).
        label: Human-facing tag; excluded from the fingerprint.
    """

    kind: str = KIND_BOOT
    workload_factory: Callable[..., Any] | None = None
    workload_args: tuple[Any, ...] = ()
    workload_kwargs: tuple[tuple[str, Any], ...] = ()
    bb: BBConfig | None = None
    cores: int | None = None
    kernel_config: Any | None = None
    manual_bb_group: tuple[str, ...] | None = None
    platform_preset: str = "ue48h6200"
    fault_plan: FaultPlan | None = None
    recovery_policy: Any | None = None
    checkpoint: CheckpointSpec | None = None
    label: str = ""

    # ------------------------------------------------------------ builders

    @classmethod
    def boot(cls, workload_factory: Callable[..., Any], *args: Any,
             bb: BBConfig | None = None, cores: int | None = None,
             kernel_config: Any | None = None,
             manual_bb_group: tuple[str, ...] | None = None,
             fault_plan: FaultPlan | None = None,
             checkpoint: CheckpointSpec | None = None,
             label: str = "", **kwargs: Any) -> "SimJob":
        """A full cold-boot job: ``workload_factory(*args, **kwargs)``
        booted under ``bb``."""
        _require_module_level(workload_factory)
        return cls(kind=KIND_BOOT, workload_factory=workload_factory,
                   workload_args=tuple(args),
                   workload_kwargs=tuple(sorted(kwargs.items())),
                   bb=bb, cores=cores, kernel_config=kernel_config,
                   manual_bb_group=manual_bb_group, fault_plan=fault_plan,
                   checkpoint=checkpoint, label=label)

    @classmethod
    def recover(cls, workload_factory: Callable[..., Any], *args: Any,
                policy: Any = None, fault_plan: FaultPlan | None = None,
                label: str = "", **kwargs: Any) -> "SimJob":
        """A supervised recovery job: the full escalation ladder of
        :class:`~repro.recovery.BootSupervisor` over the workload."""
        _require_module_level(workload_factory)
        return cls(kind=KIND_RECOVERY, workload_factory=workload_factory,
                   workload_args=tuple(args),
                   workload_kwargs=tuple(sorted(kwargs.items())),
                   fault_plan=fault_plan, recovery_policy=policy, label=label)

    @classmethod
    def kernel(cls, kernel_config: Any, platform_preset: str = "ue48h6200",
               cores: int = 4, label: str = "") -> "SimJob":
        """A kernel-stage-only job on a named hardware preset."""
        return cls(kind=KIND_KERNEL, kernel_config=kernel_config,
                   platform_preset=platform_preset, cores=cores, label=label)

    # --------------------------------------------------------- fingerprint

    def prefix_fingerprint(self) -> str:
        """Content hash of the *shared boot prefix* this job runs.

        Covers everything except the divergent inputs (``fault_plan``,
        ``recovery_policy``): two jobs with equal prefix fingerprints boot
        the identical simulation up to their first injected fault, which
        is what lets the branch runner run that prefix once and fork per
        cell — and lets :class:`~repro.runner.cache.ResultCache` serve a
        recorded prefix probe across sweeps.  Salted with the
        code-version hash like :meth:`fingerprint`.
        """
        payload = canonical_repr((
            self.kind,
            self.workload_factory,
            self.workload_args,
            self.workload_kwargs,
            self.bb,
            self.cores,
            self.kernel_config,
            self.manual_bb_group,
            self.platform_preset if self.kind == KIND_KERNEL else None,
        ))
        digest = hashlib.sha256()
        digest.update(code_version().encode())
        digest.update(b"\0")
        digest.update(payload.encode())
        return digest.hexdigest()

    def divergence_fingerprint(self) -> str:
        """Content hash of the inputs that make this job diverge from its
        prefix (the fault plan and the recovery policy)."""
        payload = canonical_repr((self.fault_plan, self.recovery_policy))
        digest = hashlib.sha256()
        digest.update(payload.encode())
        return digest.hexdigest()

    def fingerprint(self) -> str:
        """Stable content hash identifying this job's result.

        Factored as ``sha256(prefix_fingerprint || divergence_fingerprint)``
        so the prefix component is independently addressable; covers every
        semantically meaningful field plus the code-version salt.
        ``label`` and ``checkpoint`` are presentation/strategy only and
        excluded — branching a job must not change its result.
        """
        digest = hashlib.sha256()
        digest.update(self.prefix_fingerprint().encode())
        digest.update(b"\0")
        digest.update(self.divergence_fingerprint().encode())
        return digest.hexdigest()

    # ----------------------------------------------------------- branching

    def branchable(self) -> bool:
        """True when this job can run as a suffix branched off a shared
        null-boot prefix.

        Only ``boot`` jobs branch (a recovery ladder constructs its boots
        internally), and only under plans without ``paths`` specs: missing
        or late device paths are *structural* — the init manager blocks
        them at construction and schedules their lift events at init
        start, so the prefix itself differs and no late swap can reproduce
        it.  An explicit ``CheckpointSpec(enabled=False)`` also opts out.
        """
        if self.kind != KIND_BOOT:
            return False
        if self.checkpoint is not None and not self.checkpoint.enabled:
            return False
        return self.fault_plan is None or not self.fault_plan.paths

    def prefix_job(self) -> "SimJob":
        """The null (fault-free) job booting this job's shared prefix."""
        from dataclasses import replace

        return replace(self, fault_plan=None, recovery_policy=None,
                       checkpoint=None,
                       label=f"prefix of {self.label}" if self.label
                             else "prefix")


def execute_job(job: SimJob) -> Any:
    """Run one job to completion in this process and return its result.

    Top-level so ``ProcessPoolExecutor`` can import it by reference in
    worker processes.
    """
    if job.kind == KIND_KERNEL:
        return _execute_kernel(job)
    if job.kind == KIND_RECOVERY:
        return _execute_recovery(job)
    if job.kind != KIND_BOOT:
        raise SimulationError(f"unknown SimJob kind {job.kind!r}")
    from repro.core.degraded import DegradedBootError

    simulation = make_boot_simulation(job)
    try:
        return simulation.run()
    except DegradedBootError as exc:
        # A failed boot is a *result* for sweep purposes: cacheable,
        # deterministic, and countable in completion-rate statistics.
        return exc.report


def make_boot_simulation(job: SimJob, injector_slot=None) -> Any:
    """Build (without running) the ``BootSimulation`` a boot job describes.

    With ``injector_slot`` the simulation is wired for checkpoint/fork
    branching instead of compiling ``job.fault_plan`` (the branch runner
    only passes slots for null prefix jobs).
    """
    if job.kind != KIND_BOOT:
        raise SimulationError(f"cannot build a BootSimulation for a "
                              f"{job.kind!r} job")
    if job.workload_factory is None:
        raise SimulationError("boot SimJob has no workload factory")
    from repro.core import BootSimulation

    workload = job.workload_factory(*job.workload_args,
                                    **dict(job.workload_kwargs))
    return BootSimulation(workload, job.bb, cores=job.cores,
                          kernel_config=job.kernel_config,
                          manual_bb_group=job.manual_bb_group,
                          fault_plan=None if injector_slot is not None
                          else job.fault_plan,
                          injector_slot=injector_slot)


def _execute_recovery(job: SimJob) -> Any:
    """Supervised recovery ladder; the result is a ``RecoveryOutcome``.

    The invariant monitor is built inside the worker (it holds live
    simulator references and does not pickle); every rung of every job in
    a sweep is therefore invariant-checked.
    """
    from repro.recovery import BootSupervisor
    from repro.verify import InvariantMonitor

    if job.workload_factory is None:
        raise SimulationError("recovery SimJob has no workload factory")
    workload = job.workload_factory(*job.workload_args,
                                    **dict(job.workload_kwargs))
    supervisor = BootSupervisor(workload, policy=job.recovery_policy,
                                fault_plan=job.fault_plan,
                                monitor=InvariantMonitor())
    return supervisor.run()


def _execute_kernel(job: SimJob) -> int:
    """Kernel-stage boot (the §2.4 sweep): total kernel nanoseconds."""
    from repro.hw import presets
    from repro.kernel.sequence import KernelBootSequence
    from repro.sim import Simulator

    preset = getattr(presets, job.platform_preset, None)
    if preset is None:
        raise SimulationError(f"unknown platform preset {job.platform_preset!r}")
    sim = Simulator(cores=job.cores if job.cores is not None else 4)
    platform = preset().attach(sim)
    sequence = KernelBootSequence(platform, config=job.kernel_config)

    def kernel_boot():
        yield from sequence.run(sim)

    sim.spawn(kernel_boot(), name="kernel")
    sim.run()
    assert sequence.timings is not None
    return sequence.timings.total_ns
