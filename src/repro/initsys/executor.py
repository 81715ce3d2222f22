"""The parallel in-order job executor.

Every job gets a *shepherd* process: it waits for the job's ordering
predecessors (strong edges wait for readiness, weak edges for launch),
checks path conditions, then performs the unit's simulated start work —
fork (serialized through the single-threaded manager, a real systemd
bottleneck), exec image read from storage, dynamic linking, initialization
CPU interleaved with ``synchronize_rcu`` calls, hardware settle — and
fires the job's ``started``/``ready`` completions according to the
service type.

Two hooks make this the substrate for BB's Service Engine:

* ``edge_filter(edge) -> bool`` — the Booting Booster Group Isolator drops
  ordering edges from out-of-group units into BB-Group units,
* ``priority_fn(unit) -> int`` — the Booting Booster Manager gives
  BB-Group services high scheduling priority so non-critical work is
  deferred whenever cores are scarce.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.canonical import unit_draw
from repro.errors import UnitNotFoundError
from repro.hw.storage import AccessPattern, StorageDevice
from repro.initsys.transaction import EdgeKind, Job, JobState, OrderingEdge, Transaction
from repro.initsys.units import (DEFAULT_START_LIMIT_BURST, RestartPolicy,
                                 ServiceType, Unit, UnitType)
from repro.kernel.rcu import RCUSubsystem
from repro.sim.process import Compute, Interrupted, Timeout, Wait
from repro.sim.sync import Mutex, PriorityMutex

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.process import Process, ProcessGenerator

#: Default scheduling priority for ordinary service start jobs.
SERVICE_PRIORITY = 100

#: How one start attempt ended (the restart policies distinguish a crash
#: from a JobTimeout watchdog interruption).
ATTEMPT_OK = "ok"
ATTEMPT_CRASHED = "crashed"
ATTEMPT_TIMED_OUT = "timed-out"


class PathRegistry:
    """The simulated filesystem-path namespace.

    Services *provide* paths (``var.mount`` provides ``/var``); path
    conditions and the out-of-order path-check mechanism test or wait for
    them.
    """

    def __init__(self, engine: "Simulator", preexisting: set[str] | None = None):
        self._engine = engine
        self._paths: set[str] = set(preexisting or ())
        self._watchers: dict[str, list] = {}
        self._blocked: set[str] = set()
        self.suppressed_provides = 0
        self.suppressed_paths: set[str] = set()

    def exists(self, path: str) -> bool:
        """Whether ``path`` currently exists."""
        return path in self._paths

    def provide(self, path: str) -> None:
        """Create ``path``, waking any processes waiting for it."""
        if path in self._blocked:
            # Fault injection: the device/file refuses to appear; whoever
            # tried to provide it proceeds none the wiser (udev would not
            # tell the provider either).
            self.suppressed_provides += 1
            self.suppressed_paths.add(path)
            return
        if path in self._paths:
            return
        self._paths.add(path)
        for completion in self._watchers.pop(path, []):
            completion.fire(path)

    def block(self, path: str) -> None:
        """Suppress every provide of ``path`` (and hide it if it exists)."""
        self._blocked.add(path)
        self._paths.discard(path)

    def unblock(self, path: str, provide: bool = False) -> None:
        """Lift a block; with ``provide=True`` the path appears at once."""
        self._blocked.discard(path)
        if provide:
            self.provide(path)

    def wait_for(self, path: str) -> "ProcessGenerator":
        """Generator: block until ``path`` exists (no polling cost)."""
        if path in self._paths:
            return
        completion = self._engine.completion(f"path:{path}")
        self._watchers.setdefault(path, []).append(completion)
        yield Wait(completion)

    def poll_for(self, path: str, interval_ns: int,
                 check_cpu_ns: int) -> "ProcessGenerator":
        """Generator: poll until ``path`` exists (the §2.5.1 path-check).

        Unlike :meth:`wait_for`, each probe costs CPU and the discovery
        latency is quantized to the polling interval — the inefficiency
        that makes retrofitted out-of-order schemes slow.

        Returns:
            Number of polls taken.
        """
        polls = 0
        while path not in self._paths:
            yield Compute(check_cpu_ns)
            polls += 1
            yield Timeout(interval_ns)
        return polls

    @property
    def paths(self) -> frozenset[str]:
        """Snapshot of all existing paths."""
        return frozenset(self._paths)


class ServiceRunner:
    """Performs the simulated start work of a unit.

    ``path_faulter``, when given, handles a missing device path the unit
    waits on (``WaitsForPaths``) by loading the deferred built-in driver
    on demand — the On-demand Modularizer Control.  Without it the unit
    blocks until another process (the kmod worker) provides the path.
    """

    def __init__(self, engine: "Simulator", storage: StorageDevice,
                 rcu: RCUSubsystem, paths: PathRegistry,
                 manager_lock: "Mutex | PriorityMutex | None" = None,
                 path_faulter: "Callable[[str], ProcessGenerator] | None" = None,
                 ready_gate: "Callable[[str], object | None] | None" = None,
                 fault_injector=None):
        self._engine = engine
        self._storage = storage
        self._rcu = rcu
        self._paths = paths
        self._manager_lock = manager_lock
        self._path_faulter = path_faulter
        # Socket activation: maps a unit name to its readiness completion
        # so a client's first IPC call can block on it (None = no lookup,
        # e.g. under the sequential baseline where everything is ordered).
        self._ready_gate = ready_gate
        # Seeded fault injection (repro.faults); None = healthy boot.
        self._fault_injector = fault_injector

    def run(self, job: Job) -> "ProcessGenerator":
        """Generator: execute one start attempt of ``job``.

        Returns :data:`ATTEMPT_OK` on success (completions fired per the
        service type); :data:`ATTEMPT_CRASHED` if the attempt failed —
        injected via the unit's ``failures_before_success`` or a fault
        plan's ``ServiceFault``; the crash happens after exec but before
        the unit signals any readiness.
        """
        unit = job.unit
        engine = self._engine
        job.attempts += 1
        job.attempt_began_ns.append(engine.now)
        decision = (self._fault_injector.service_decision(unit.name, job.attempts)
                    if self._fault_injector is not None else None)
        span = engine.tracer.begin(unit.name, "service",
                                   unit_type=unit.unit_type.value,
                                   service_type=unit.service_type.value,
                                   attempt=job.attempts)
        job.state = JobState.RUNNING

        # Fork each of the unit's processes through the manager (systemd is
        # single threaded; concurrent forks serialize on it).
        for _ in range(unit.cost.processes):
            if self._manager_lock is not None:
                yield from self._manager_lock.acquire()
                try:
                    yield Compute(unit.cost.fork_ns)
                finally:
                    self._manager_lock.release()
            else:
                yield Compute(unit.cost.fork_ns)

        # Exec: load the binary (and libraries) from storage.
        if unit.cost.exec_bytes:
            yield from self._storage.read(unit.cost.exec_bytes, AccessPattern.RANDOM)
        if not unit.static_build and unit.cost.dynamic_link_ns:
            yield Compute(unit.cost.dynamic_link_ns)

        if (job.attempts <= unit.failures_before_success
                or (decision is not None and decision.fail)):
            # Injected failure: the process crashes mid-initialization,
            # before signalling readiness.
            yield Compute(unit.cost.init_cpu_ns // 2)
            engine.tracer.end(span)
            engine.tracer.instant(f"{unit.name}.failed", "service")
            return ATTEMPT_CRASHED

        self._mark_started(job)
        if unit.service_type is ServiceType.SIMPLE:
            # Simple services count as active the moment they are forked.
            self._mark_ready(job)

        if decision is not None and decision.hang_ns:
            # Injected stall: the daemon wedges mid-start; a long enough
            # hang trips the unit's JobTimeout watchdog.
            yield Timeout(decision.hang_ns)

        # Device availability: wait for (or on-demand load) the driver
        # behind each device path the unit opens.
        for path in unit.waits_for_paths:
            if not self._paths.exists(path):
                if self._path_faulter is not None:
                    yield from self._path_faulter(path)
                if not self._paths.exists(path):
                    # No faulter, or the demand-load could not surface the
                    # node (fault-blocked path): block until it appears.
                    yield from self._paths.wait_for(path)

        yield from self._initialization_work(unit, job.attempts)

        if unit.service_type is ServiceType.NOTIFY and unit.cost.ready_extra_ns:
            yield Timeout(unit.cost.ready_extra_ns)
        # Provide paths before signalling readiness so dependents woken by
        # the ready edge observe the paths this unit creates.
        for path in unit.provides_paths:
            self._paths.provide(path)
        if job.ready_at_ns is None:
            self._mark_ready(job)

        job.state = JobState.DONE
        job.done_at_ns = engine.now
        engine.tracer.end(span)
        return ATTEMPT_OK

    def _initialization_work(self, unit: Unit,
                             attempt: int = 1) -> "ProcessGenerator":
        """CPU init chunks interleaved with synchronize_rcu calls.

        If the unit declares socket-activation IPC targets, the first
        chunk runs in parallel with the providers; the first IPC call
        (after that chunk) blocks until each provider is ready — the
        kernel buffers the connect in the provider's listening socket.
        """
        syncs = unit.cost.rcu_syncs
        chunks = syncs + 1
        chunk_ns = unit.cost.init_cpu_ns // chunks
        remainder = unit.cost.init_cpu_ns - chunk_ns * chunks
        for index in range(chunks):
            cpu = chunk_ns + (remainder if index == chunks - 1 else 0)
            if cpu:
                yield Compute(cpu)
            if index == 0 and unit.ipc_targets and self._ready_gate is not None:
                for target in unit.ipc_targets:
                    gate = self._ready_gate(target)
                    if gate is not None and not gate.fired:
                        yield Wait(gate)
            if index < syncs:
                yield from self._rcu.synchronize_rcu()
        settle_ns = unit.cost.hw_settle_ns
        if settle_ns and self._fault_injector is not None:
            settle_ns = self._fault_injector.settle_ns(unit.name, attempt,
                                                       settle_ns)
        if settle_ns:
            yield Timeout(settle_ns)

    def _mark_started(self, job: Job) -> None:
        # Every attempt records its own launch time: started_at_ns must
        # reflect the attempt that ultimately succeeded, not attempt 1 of
        # a unit that was watchdogged and restarted.  The completion keeps
        # first-fire semantics — dependents wait for the first launch.
        now = self._engine.now
        job.attempt_started_ns.append(now)
        job.started_at_ns = now
        monitor = self._engine.monitor
        if monitor is not None:
            monitor.on_job_started(job)
        assert job.started is not None
        if not job.started.fired:
            job.started.fire(job.name)

    def _mark_ready(self, job: Job) -> None:
        if job.ready_at_ns is None:
            job.state = JobState.READY
            job.ready_at_ns = self._engine.now
            assert job.ready is not None
            job.ready.fire(job.name)
            if job.settled is not None and not job.settled.fired:
                job.settled.fire(job.name)


class JobExecutor:
    """Runs a whole transaction in parallel, respecting ordering edges."""

    def __init__(self, engine: "Simulator", transaction: Transaction,
                 storage: StorageDevice, rcu: RCUSubsystem, paths: PathRegistry,
                 manager_lock: "Mutex | PriorityMutex | None" = None,
                 edge_filter: Callable[[OrderingEdge], bool] | None = None,
                 priority_fn: Callable[[Unit], int] | None = None,
                 path_faulter: "Callable[[str], ProcessGenerator] | None" = None,
                 fault_injector=None,
                 restart_seed: int = 0,
                 restart_jitter: float = 0.0):
        self._engine = engine
        self.transaction = transaction
        self._restart_seed = restart_seed
        self._restart_jitter = restart_jitter

        def ready_gate(name: str):
            if name in transaction:
                return transaction.job(name).ready
            return None

        self._runner = ServiceRunner(engine, storage, rcu, paths,
                                     manager_lock=manager_lock,
                                     path_faulter=path_faulter,
                                     ready_gate=ready_gate,
                                     fault_injector=fault_injector)
        self._paths = paths
        self._edge_filter = edge_filter
        self._priority_fn = priority_fn
        self.ignored_edges: list[OrderingEdge] = []
        self.failed_jobs: list[str] = []
        # (failed unit, handler unit) pairs, in activation order.
        self.on_failure_activated: list[tuple[str, str]] = []
        self._shepherds: list["Process"] = []

    def start_all(self) -> list["Process"]:
        """Spawn one shepherd per job; returns the shepherd processes."""
        # Create completions up front so shepherds can wait on each other
        # regardless of spawn order.
        monitor = self._engine.monitor
        if monitor is not None:
            monitor.on_executor(self)
        for job in self.transaction.jobs.values():
            job.started = self._engine.completion(f"{job.name}.started")
            job.ready = self._engine.completion(f"{job.name}.ready")
            job.settled = self._engine.completion(f"{job.name}.settled")
        for job in self.transaction.jobs.values():
            priority = (self._priority_fn(job.unit) if self._priority_fn
                        else SERVICE_PRIORITY)
            shepherd = self._engine.spawn(self._shepherd(job),
                                          name=f"job:{job.name}",
                                          priority=priority)
            self._shepherds.append(shepherd)
        return list(self._shepherds)

    def wait_all(self) -> "ProcessGenerator":
        """Generator: block until every shepherd finished."""
        for shepherd in self._shepherds:
            if shepherd.alive:
                yield Wait(shepherd.done)

    def _shepherd(self, job: Job) -> "ProcessGenerator":
        for edge in self.transaction.predecessors(job.name):
            if self._edge_filter is not None and not self._edge_filter(edge):
                self.ignored_edges.append(edge)
                continue
            predecessor = self.transaction.job(edge.predecessor)
            # Strong edges wait for the predecessor to settle (ready or
            # permanently failed); weak edges only for its launch.
            gate = (predecessor.settled if edge.kind is EdgeKind.STRONG
                    else predecessor.started)
            assert gate is not None
            if not gate.fired:
                yield Wait(gate)
            # Requirement failure propagates; a failed unit that was only
            # an ordering constraint (After=/Before=) merely unblocks.
            if (predecessor.state is JobState.FAILED
                    and predecessor.name in job.unit.requires):
                self._fail(job, f"required unit {predecessor.name} failed")
                return

        unit = job.unit
        missing = [p for p in unit.condition_paths if not self._paths.exists(p)]
        if missing:
            # Condition not met: systemd skips the unit but the job still
            # counts as complete so dependents are not wedged.
            job.state = JobState.SKIPPED
            job.started_at_ns = job.ready_at_ns = job.done_at_ns = self._engine.now
            self._fire_all(job)
            self._engine.tracer.instant(f"{job.name}.skipped", "service")
            return

        if unit.unit_type is UnitType.TARGET:
            # Targets have no work: ready once predecessors are satisfied.
            # State must be final BEFORE firing: Completion.fire resumes
            # waiting dependents synchronously, and a dependent's strong-
            # edge check reads predecessor.state the moment it wakes.
            job.started_at_ns = job.ready_at_ns = job.done_at_ns = self._engine.now
            job.state = JobState.DONE
            self._fire_all(job)
            return

        restarts = 0
        while True:
            outcome = yield from self._attempt_with_watchdog(job)
            if outcome == ATTEMPT_OK:
                if job.settled is not None and not job.settled.fired:
                    job.settled.fire(job.name)
                return
            if not self._should_restart(unit, outcome, restarts):
                self._fail(job,
                           f"start job failed after {job.attempts} attempt(s)")
                return
            if self._start_limit_hit(job):
                self._fail(job, f"start-limit-hit: {job.attempts} starts "
                                f"within {unit.start_limit_interval_ns} ns")
                return
            # Monitoring and recovery (§2.5.2): restart after a delay.
            restarts += 1
            delay = self._restart_delay(unit, restarts)
            job.restart_delays_ns.append(delay)
            if delay:
                yield Timeout(delay)

    def _should_restart(self, unit: Unit, outcome: str, restarts: int) -> bool:
        """Whether the unit's restart policy allows another attempt.

        ``on-failure`` restarts after any failed attempt (crash or
        JobTimeout), ``on-watchdog`` only after a JobTimeout interruption
        — both bounded by ``max_restarts``.  ``always`` ignores
        ``max_restarts`` and is bounded only by the start-rate limit.
        """
        policy = unit.restart_policy
        if policy is RestartPolicy.NO:
            return False
        if policy is RestartPolicy.ALWAYS:
            return True
        if restarts >= unit.max_restarts:
            return False
        if policy is RestartPolicy.ON_WATCHDOG:
            return outcome == ATTEMPT_TIMED_OUT
        return True  # ON_FAILURE: crash or timeout

    def _start_limit_hit(self, job: Job) -> bool:
        """systemd start-rate limiting over the attempt-launch history.

        A burst of 0 means unlimited — except under ``Restart=always``,
        which would loop forever without a limit, so it gets systemd's
        default of 5 starts per 10 s.
        """
        unit = job.unit
        burst = unit.start_limit_burst
        if burst == 0 and unit.restart_policy is RestartPolicy.ALWAYS:
            burst = DEFAULT_START_LIMIT_BURST
        if burst <= 0:
            return False
        window_start = self._engine.now - unit.start_limit_interval_ns
        recent = sum(1 for t in job.attempt_began_ns if t >= window_start)
        return recent >= burst

    def _restart_delay(self, unit: Unit, restart_number: int) -> int:
        """Seeded exponential backoff with deterministic jitter."""
        delay = (unit.restart_delay_ns
                 * unit.restart_backoff_factor ** (restart_number - 1))
        if self._restart_jitter:
            draw = unit_draw(repr((self._restart_seed, "restart-jitter",
                                   unit.name, restart_number)))
            delay *= 1.0 + self._restart_jitter * (2.0 * draw - 1.0)
        return int(delay)

    def _attempt_with_watchdog(self, job: Job) -> "ProcessGenerator":
        """One start attempt, guarded by the unit's JobTimeout watchdog.

        A unit that exceeds ``start_timeout_ns`` without becoming ready is
        interrupted (its held simulation locks are released by the
        generator's ``finally`` blocks) and the attempt counts as
        :data:`ATTEMPT_TIMED_OUT`, so the unit's restart policy applies.
        The watchdog event is cancelled whatever the outcome — a
        successful attempt leaves no stray timer in the event queue.
        """
        unit = job.unit
        engine = self._engine
        if not unit.start_timeout_ns:
            result = yield from self._runner.run(job)
            return result
        me = engine.current_process
        assert me is not None

        def watchdog() -> None:
            if job.ready_at_ns is None and me.alive:
                engine.interrupt(me, Interrupted(
                    f"{unit.name}: start timed out"))

        event = engine.call_after(unit.start_timeout_ns, watchdog)
        try:
            result = yield from self._runner.run(job)
        except Interrupted:
            engine.tracer.instant(f"{unit.name}.start-timeout", "service")
            return ATTEMPT_TIMED_OUT
        finally:
            engine.events.cancel(event)
        return result

    def _fail(self, job: Job, reason: str) -> None:
        """Settle a job as permanently failed without wedging dependents."""
        job.state = JobState.FAILED
        job.failure_reason = reason
        if job.started is not None and not job.started.fired:
            job.started_at_ns = self._engine.now
            job.started.fire(job.name)
        if job.settled is not None and not job.settled.fired:
            job.settled.fire(job.name)
        self.failed_jobs.append(job.name)
        self._engine.tracer.instant(f"{job.name}.start-failed", "service")
        for handler in job.unit.on_failure:
            self._activate_on_failure(job.name, handler)

    def _activate_on_failure(self, failed: str, handler: str) -> None:
        """``OnFailure=``: enqueue a start job for ``handler``.

        A handler already part of the transaction is merely recorded (its
        job runs regardless); one outside it gets a fresh edge-free job
        and shepherd, appended to ``_shepherds`` — ``wait_all`` iterates
        the live list, so late additions are still drained.
        """
        engine = self._engine
        if handler in self.transaction.jobs:
            self.on_failure_activated.append((failed, handler))
            return
        try:
            unit = self.transaction.registry.get(handler)
        except UnitNotFoundError:
            engine.tracer.instant(f"{handler}.on-failure-missing", "service")
            return
        job = Job(unit=unit, pulled_strongly=False)
        job.started = engine.completion(f"{job.name}.started")
        job.ready = engine.completion(f"{job.name}.ready")
        job.settled = engine.completion(f"{job.name}.settled")
        self.transaction.jobs[handler] = job
        priority = (self._priority_fn(unit) if self._priority_fn
                    else SERVICE_PRIORITY)
        shepherd = engine.spawn(self._shepherd(job),
                                name=f"job:{job.name}",
                                priority=priority)
        self._shepherds.append(shepherd)
        self.on_failure_activated.append((failed, handler))
        engine.tracer.instant(f"{handler}.on-failure-activated", "service")

    def _fire_all(self, job: Job) -> None:
        monitor = self._engine.monitor
        if monitor is not None:
            monitor.on_job_started(job)
        for completion in (job.started, job.ready, job.settled):
            if completion is not None and not completion.fired:
                completion.fire(job.name)
