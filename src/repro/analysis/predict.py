"""Closed-form boot-time prediction without running the event loop.

For an *unperturbed* boot (no fault plan) the paper's arithmetic is
closed-form: I/O is bytes/throughput, CPU work is cycles plus dispatch
overhead, and user-space parallelism is list scheduling of the start jobs
over the strong-ordering graph with ``min(tasks, cores)`` concurrency.
This module evaluates exactly that arithmetic:

* the kernel stage, manager initialization, unit loading (text or
  Pre-parser cache) and init sub-modules are strictly serial in the
  simulator — their cost is a sum, computed directly from the same model
  objects (:class:`~repro.kernel.sequence.KernelBootSequence`,
  :class:`~repro.initsys.preparser.PreParser`, ...) the DES uses;
* the service-launch phase is solved by a small deterministic list
  scheduler over the boot transaction: one lightweight task per start
  job replays the shepherd's step sequence (ordering gates, fork through
  the manager lock, exec read through the storage channel, init chunks,
  ``synchronize_rcu``, settle, readiness), with BB's Group Isolator edge
  pruning and Manager priorities applied analytically.

The solver is validated against the simulator by the ``predicted``
differential-oracle group in :mod:`repro.verify` (gem5's
known-answer-test methodology): on every built-in preset the prediction
must match DES boot-completion time within :data:`PREDICTION_TOLERANCE`.

**Tolerance contract** (details in ``docs/analysis.md``) — the machine
solver steps CPU time by the simulator's one rule: every compute request
is queued at its priority, an idle core takes the best queued task for
one slice (at most a quantum, plus the switch cost), and each slice end
frees the core and then either re-queues the task with the work still
owed or resumes it.  ``_Machine._enqueue``, ``_dispatch`` and the slice
end in ``_Machine.run`` mirror ``CPU._enqueue``, ``CPU._dispatch`` and
``CPU._slice_done`` of :mod:`repro.sim.cpu`.  On top of that rule the
priority-aware storage channel and fork lock, direct-handoff mutexes,
ticket-spinlock RCU grace periods (spinners burn core slices), socket
activation, on-demand driver faulting and the kmod worker are replayed
step for step, with the simulator's own constants.  The prediction
equals DES boot-completion time *exactly*, to the nanosecond, on every
built-in preset × ``BBConfig.none()/full()`` × 1/2/4 cores and on the
mixed service-phase feature corners.  :data:`PREDICTION_TOLERANCE` is a
guard band for effects outside the replicated set (it admits no known
error source today); anything perturbed is out of scope — a job with a
fault plan or ``failures_before_success`` is rejected with
:class:`AnalysisError`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.core.config import BBConfig
from repro.core.core_engine import CoreEngine
from repro.core.service_engine import ServiceEngine
from repro.errors import AnalysisError, ReproError
from repro.hw.storage import AccessPattern
from repro.initsys.executor import SERVICE_PRIORITY
from repro.initsys.manager import (FORK_WAKE_COST_NS, KMOD_PRIORITY,
                                   MANAGER_PRIORITY)
from repro.initsys.preparser import PreParser
from repro.initsys.startup_tasks import STARTUP_TASKS, SUBMODULE_TASKS
from repro.initsys.transaction import EdgeKind, Transaction
from repro.initsys.units import ServiceType, UnitType
from repro.kernel.rcu import (DEFAULT_BOOSTED_OP_CPU_NS,
                              DEFAULT_CONVENTIONAL_OP_CPU_NS,
                              DEFAULT_EXPEDITED_GRACE_NS, DEFAULT_GRACE_NS,
                              DEFAULT_SPIN_SLICE_NS)
from repro.sim.cpu import DEFAULT_QUANTUM_NS, DEFAULT_SWITCH_COST_NS
from repro.sim.sync import DEFAULT_SPIN_ACQUIRE_COST_NS, DEFAULT_WAKE_COST_NS
from repro.workloads.base import Workload

if TYPE_CHECKING:
    from repro.initsys.registry import UnitRegistry
    from repro.runner.jobs import SimJob

#: Relative tolerance of the ``predicted`` verify oracle: |predicted -
#: DES| / DES must stay below this on every unperturbed preset.  The
#: replica is currently exact (every preset measures a delta of 0.0);
#: the band exists so a future micro-cost added to the simulator fails
#: soft with a diagnosable drift report instead of a hard mismatch.
PREDICTION_TOLERANCE = 0.001

#: Simulated-time horizon for the service phase.  The simulated init
#: model can genuinely livelock — conventional-RCU ticket spinners at
#: service priority starved forever by boosted-priority spinners on a
#: saturated CPU (the §4.3 priority-inversion pathology the RCU Booster
#: removes).  The DES runs such a boot forever; the predictor instead
#: raises :class:`AnalysisError` once simulated time passes this bound,
#: making it total over the whole design space.  Every terminating
#: preset boots in under 25 simulated seconds of service phase; two
#: minutes is safely past any real configuration while keeping the
#: livelock detection itself cheap (a livelocked machine only emits
#: spin-slice events, ~2 k per simulated second).
LIVELOCK_HORIZON_NS = 120_000_000_000


def compute_wall_ns(ns: int, quantum_ns: int = DEFAULT_QUANTUM_NS,
                    switch_cost_ns: int = DEFAULT_SWITCH_COST_NS) -> int:
    """Wall time of an uncontended ``Compute(ns)`` on the CPU model.

    The scheduler charges one dispatch (context switch) per quantum
    slice; a zero-length computation resumes synchronously and is free.
    """
    if ns <= 0:
        return 0
    slices = -(-ns // quantum_ns)
    return ns + slices * switch_cost_ns


# --------------------------------------------------------------------------
# Registry text statistics (the expensive part of the unit-loading closed
# form; cacheable across a sweep because they only depend on the unit set).


@dataclass(frozen=True, slots=True)
class RegistryTextStats:
    """Serialized-unit-file statistics feeding the load-phase closed form."""

    unit_count: int
    total_text_bytes: int
    parse_text_ns: int  # sum of per-unit parse costs (base + per-byte)
    edge_count: int


def registry_text_stats(registry: "UnitRegistry",
                        parse_base_ns: int,
                        parse_per_byte_ns: float) -> RegistryTextStats:
    """Compute the text statistics of ``registry`` (renders every unit)."""
    from repro.initsys.preparser import dependency_edge_count

    total = 0
    parse = 0
    for unit in registry:
        nbytes = len(registry.dump_unit_text(unit.name).encode())
        total += nbytes
        parse += parse_base_ns + round(parse_per_byte_ns * nbytes)
    return RegistryTextStats(unit_count=len(registry),
                             total_text_bytes=total,
                             parse_text_ns=parse,
                             edge_count=dependency_edge_count(registry))


# --------------------------------------------------------------------------
# The list-scheduler virtual machine for the service-launch phase.


class _Gate:
    """A one-shot completion; waiters resume synchronously on fire (FIFO)."""

    __slots__ = ("fired", "waiters")

    def __init__(self) -> None:
        self.fired = False
        self.waiters: list["_Task"] = []


class _Lock:
    """A sleeping lock granted to the best (priority, FIFO) waiter.

    ``fifo=True`` ignores priority on release — the semantics of the
    simulator's plain ``Mutex`` and ``SpinLock`` tickets, as opposed to
    the ``PriorityMutex`` guarding the storage channel and fork path.
    """

    __slots__ = ("owner", "queue", "wake_cost_ns", "seq", "fifo")

    def __init__(self, wake_cost_ns: int = 0, fifo: bool = False) -> None:
        self.owner: "_Task | None" = None
        self.queue: list[tuple[int, "_Task"]] = []
        self.wake_cost_ns = wake_cost_ns
        self.seq = 0
        self.fifo = fifo


class _Task:
    """One schedulable activity (a shepherd, the kmod worker, ...)."""

    __slots__ = ("gen", "priority", "name")

    def __init__(self, gen: Any, priority: int, name: str) -> None:
        self.gen = gen
        self.priority = priority
        self.name = name


class _Machine:
    """Deterministic list scheduler mirroring the DES dispatch rules.

    Tasks are generators yielding instruction tuples::

        ("cpu", ns)      occupy a core for compute_wall_ns(ns)
        ("sleep", ns)    timer wait, no core
        ("wait", gate)   park until the gate fires (caller checks .fired)
        ("fire", gate)   fire a gate, waking waiters synchronously
        ("lock", lock)   acquire; send-value True means it was contended
        ("unlock", lock) release, granting the best queued waiter

    CPU time steps by the simulator's one rule: every ``("cpu", ns)``
    request goes through :meth:`_enqueue` and :meth:`_dispatch`, and
    every slice end in :meth:`run` re-queues or resumes its task — the
    counterparts of ``CPU._enqueue``, ``CPU._dispatch`` and
    ``CPU._slice_done``.  Wake cascades run synchronously, as in the
    DES, so a freed core is visible to the cascade that freed it, and
    ties break FIFO by sequence number.
    """

    def __init__(self, cores: int, start_ns: int,
                 quantum_ns: int = DEFAULT_QUANTUM_NS,
                 switch_cost_ns: int = DEFAULT_SWITCH_COST_NS) -> None:
        self.now = start_ns
        self.idle = cores
        self.quantum_ns = quantum_ns
        self.switch_cost_ns = switch_cost_ns
        self.stopped = False
        # Event records: (time, seq, task, remaining_ns) — remaining < 0
        # marks a plain resume (timer expiry / zero-delay wake), >= 0 a
        # slice end with that much of the task's work still owed.
        self._events: list[tuple[int, int, "_Task", int]] = []
        self._eseq = 0
        self._run: list[tuple[int, int, "_Task", int]] = []
        self._rseq = 0

    # -------------------------------------------------------------- driving

    def start(self, task: "_Task") -> None:
        self._drive(task, None)

    def run(self, horizon_ns: int) -> None:
        events = self._events
        while events and not self.stopped:
            time_ns, _, task, remaining_ns = heapq.heappop(events)
            self.now = time_ns
            if time_ns > horizon_ns:
                raise AnalysisError(
                    f"no boot completion after {horizon_ns / 1e9:.0f} "
                    f"simulated seconds — the configuration livelocks "
                    f"(e.g. conventional-RCU spinners starved by "
                    f"priority-boosted work on a saturated CPU)")
            if remaining_ns < 0:
                self._drive(task, None)
                continue
            # Slice end, as CPU._slice_done.
            self.idle += 1
            if remaining_ns:
                self._enqueue(task, remaining_ns)
            else:
                self._drive(task, None)
            self._dispatch()

    def _schedule(self, delay_ns: int, task: "_Task",
                  remaining_ns: int) -> None:
        heapq.heappush(self._events,
                       (self.now + delay_ns, self._eseq, task, remaining_ns))
        self._eseq += 1

    def _drive(self, task: "_Task", value: Any) -> None:
        send = task.gen.send
        try:
            while True:
                op, operand = send(value)
                value = None
                if op == "cpu":
                    if operand <= 0:
                        continue  # Compute(0) resumes synchronously
                    self._enqueue(task, operand)
                    self._dispatch()
                    return
                if op == "sleep":
                    self._schedule(operand, task, -1)
                    return
                if op == "wait":
                    if operand.fired:
                        # Mirrors Wait on a fired completion: one event-
                        # queue round trip at the current time.
                        self._schedule(0, task, -1)
                    else:
                        operand.waiters.append(task)
                    return
                if op == "fire":
                    self.fire(operand)
                    continue
                if op == "lock":
                    if operand.owner is None:
                        operand.owner = task
                        value = False
                        continue
                    operand.queue.append((operand.seq, task))
                    operand.seq += 1
                    return
                if op == "unlock":
                    self._release(operand)
                    continue
                raise AnalysisError(f"unknown VM instruction {op!r}")
        except StopIteration:
            return

    # ------------------------------------------------------- wake machinery

    def fire(self, gate: "_Gate") -> None:
        if gate.fired:
            return
        gate.fired = True
        waiters, gate.waiters = gate.waiters, []
        for waiter in waiters:
            self._drive(waiter, None)

    def _release(self, lock: "_Lock") -> None:
        lock.owner = None
        if not lock.queue:
            return
        if lock.fifo:
            best = 0
        else:
            best = min(range(len(lock.queue)),
                       key=lambda i: (lock.queue[i][1].priority,
                                      lock.queue[i][0]))
        _, task = lock.queue.pop(best)
        lock.owner = task
        self._drive(task, True)

    # --------------------------------------------------------- CPU modelling

    def _enqueue(self, task: "_Task", remaining_ns: int) -> None:
        heapq.heappush(self._run,
                       (task.priority, self._rseq, task, remaining_ns))
        self._rseq += 1

    def _dispatch(self) -> None:
        while self.idle > 0 and self._run:
            _, _, task, remaining_ns = heapq.heappop(self._run)
            self.idle -= 1
            slice_ns = min(remaining_ns, self.quantum_ns)
            self._schedule(self.switch_cost_ns + slice_ns, task,
                           remaining_ns - slice_ns)


def _acquire(lock: "_Lock"):
    """Lock acquisition paying the woken waiter's context-switch cost."""
    contended = yield ("lock", lock)
    if contended and lock.wake_cost_ns:
        yield ("cpu", lock.wake_cost_ns)


class _TicketSpin:
    """Replica of the simulator's ticket ``SpinLock`` (conventional RCU).

    Spinners burn real core time in ``spin_slice_ns`` chunks and observe
    a release only when their current slice completes — both effects the
    RCU Booster exists to remove, so they must be priced faithfully.
    """

    __slots__ = ("held", "next_ticket", "tickets",
                 "acquire_cost_ns", "spin_slice_ns")

    def __init__(self, acquire_cost_ns: int, spin_slice_ns: int) -> None:
        self.held = False
        self.next_ticket = 0
        self.tickets: set[int] = set()
        self.acquire_cost_ns = acquire_cost_ns
        self.spin_slice_ns = spin_slice_ns

    def acquire(self):
        if self.acquire_cost_ns:
            yield ("cpu", self.acquire_cost_ns)
        ticket = self.next_ticket
        self.next_ticket += 1
        self.tickets.add(ticket)
        while min(self.tickets) != ticket or self.held:
            yield ("cpu", self.spin_slice_ns)
        self.tickets.discard(ticket)
        self.held = True

    def release(self) -> None:
        self.held = False


# --------------------------------------------------------------------------
# Prediction result.


@dataclass(frozen=True, slots=True)
class BootPrediction:
    """The closed-form solution for one unperturbed boot.

    Times are absolute nanoseconds from power-on, matching the DES
    report's clock.  Per-unit dictionaries cover every job that started
    (respectively became ready) *before boot completion* — the predictor
    stops at the completion instant; post-completion stragglers and
    deferred work are out of scope by design.
    """

    workload: str
    features: tuple[str, ...]
    cores: int
    boot_complete_ns: int
    kernel_ns: int
    init_init_ns: int
    load_units_ns: int
    submodules_ns: int
    services_ns: int
    unit_started_ns: dict[str, int] = field(default_factory=dict)
    unit_ready_ns: dict[str, int] = field(default_factory=dict)
    bb_group: frozenset[str] = frozenset()

    @property
    def boot_complete_ms(self) -> float:
        """Boot completion in milliseconds (presentation helper)."""
        return self.boot_complete_ns / 1e6


# --------------------------------------------------------------------------
# Serial-phase closed forms.


def _kernel_stage_ns(core_engine: CoreEngine) -> int:
    """Exact serial cost of the kernel stage (one process, idle machine)."""
    sequence = core_engine.sequence
    platform = core_engine.platform
    storage = platform.storage
    bootloader = sequence.bootloader
    total = bootloader.rom_stage_ns
    total += storage.read_time_ns(bootloader.loader_size_bytes,
                                  AccessPattern.SEQUENTIAL)
    total += bootloader.hw_init_ns
    total += sequence.image.load_time_ns(storage, platform.decompress_bps)
    total += compute_wall_ns(sequence.meminit.boot_phase_ns())
    total += compute_wall_ns(sequence.config.extra_cost_ns())
    for call in sequence.initcalls.boot_sequence(defer=sequence.defer_initcalls):
        total += compute_wall_ns(call.cpu_ns) + call.hw_settle_ns
    rootfs = sequence.rootfs
    total += storage.read_time_ns(rootfs.superblock_bytes,
                                  AccessPattern.RANDOM)
    total += compute_wall_ns(rootfs.mount_cpu_ns)
    if not rootfs.deferred_journal:
        total += compute_wall_ns(rootfs.journal_setup_ns)
    return total


def _startup_tasks_ns(config_tasks: Iterable, defer: bool) -> int:
    """Serial cost of the manager's Fig. 6(b) initialization phase."""
    return sum(compute_wall_ns(task.cpu_ns) for task in config_tasks
               if not (defer and task.deferrable))


def _load_units_ns(preparser: PreParser, storage,
                   stats: RegistryTextStats, use_preparser: bool) -> int:
    """Serial cost of unit loading: Pre-parser cache or full text parse.

    In an unperturbed boot the cache is built from the exact registry it
    is loaded against, so it is always fresh — the stale-cache fallback
    never triggers and its fingerprint never needs computing.
    """
    if use_preparser:
        blob = max(1, round(stats.total_text_bytes
                            * preparser.cache_compression))
        total = storage.read_time_ns(blob, AccessPattern.SEQUENTIAL)
        total += compute_wall_ns(preparser.cached_unit_ns * stats.unit_count)
        return total
    loading_cpu = preparser.file_op_ns * preparser.file_ops_per_unit \
        * stats.unit_count
    total = compute_wall_ns(loading_cpu)
    total += storage.read_time_ns(stats.total_text_bytes,
                                  AccessPattern.RANDOM)
    parsing_cpu = stats.parse_text_ns \
        + preparser.resolve_per_edge_ns * stats.edge_count
    total += compute_wall_ns(parsing_cpu)
    return total


def _serial_prefix(workload: Workload, bb: BBConfig, kernel_config: Any,
                   preparser: PreParser, text_stats: RegistryTextStats
                   ) -> tuple[int, int, int, int]:
    """Kernel stage, manager init, unit loading and init sub-modules.

    Everything before the services phase is strictly serial in the
    simulator, so each part is a closed-form sum.  ``kernel_config=None``
    means the workload's own kernel configuration.
    """
    platform = workload.platform_factory()
    if kernel_config is None and workload.kernel_config_factory is not None:
        kernel_config = workload.kernel_config_factory()
    core_engine = CoreEngine(
        platform, bb, kernel_config=kernel_config,
        initcalls=workload.initcalls_factory(),
        builtin_initcalls=workload.builtin_initcalls_factory())
    submodules_ns = 0
    if not bb.deferred_executor:
        submodules_ns = sum(compute_wall_ns(task.cpu_ns)
                            for task in SUBMODULE_TASKS)
    return (_kernel_stage_ns(core_engine),
            _startup_tasks_ns(STARTUP_TASKS, bb.defer_startup_tasks),
            _load_units_ns(preparser, platform.storage, text_stats,
                           use_preparser=bb.preparser),
            submodules_ns)


# --------------------------------------------------------------------------
# The service-launch phase.


class _ServiceWorld:
    """Shared state of the service-phase list schedule."""

    def __init__(self, machine: "_Machine", transaction: Transaction,
                 storage, rcu_boosted: bool,
                 preexisting_paths: set[str]) -> None:
        self.machine = machine
        self.transaction = transaction
        self.storage_ns = storage.read_time_ns
        self.storage_lock = _Lock(wake_cost_ns=0)
        self.fork_lock = _Lock(wake_cost_ns=FORK_WAKE_COST_NS)
        self.rcu_boosted = rcu_boosted
        self.paths: set[str] = set(preexisting_paths)
        self.path_gates: dict[str, "_Gate"] = {}
        self.started: dict[str, "_Gate"] = {}
        self.ready: dict[str, "_Gate"] = {}
        self.settled: dict[str, "_Gate"] = {}
        self.started_at: dict[str, int] = {}
        self.ready_at: dict[str, int] = {}
        self.completion_ns: int | None = None
        # RCUSubsystem's ticket spinlock and boost mutex, at its defaults.
        self.rcu_wait_lock = _TicketSpin(
            acquire_cost_ns=DEFAULT_SPIN_ACQUIRE_COST_NS,
            spin_slice_ns=DEFAULT_SPIN_SLICE_NS)
        self.rcu_boost_mutex = _Lock(wake_cost_ns=DEFAULT_WAKE_COST_NS,
                                     fifo=True)

    # ----------------------------------------------------------- primitives

    def provide(self, path: str) -> None:
        if path in self.paths:
            return
        self.paths.add(path)
        gate = self.path_gates.pop(path, None)
        if gate is not None:
            self.machine.fire(gate)

    def path_gate(self, path: str) -> "_Gate":
        gate = self.path_gates.get(path)
        if gate is None:
            gate = self.path_gates[path] = _Gate()
        return gate

    def storage_read(self, nbytes: int, pattern: AccessPattern):
        duration = self.storage_ns(nbytes, pattern)
        yield from _acquire(self.storage_lock)
        yield ("sleep", duration)
        yield ("unlock", self.storage_lock)

    def synchronize_rcu(self):
        if self.rcu_boosted:
            yield ("cpu", DEFAULT_BOOSTED_OP_CPU_NS)
            yield from _acquire(self.rcu_boost_mutex)
            yield ("sleep", DEFAULT_EXPEDITED_GRACE_NS)
            yield ("unlock", self.rcu_boost_mutex)
        else:
            yield ("cpu", DEFAULT_CONVENTIONAL_OP_CPU_NS)
            yield from self.rcu_wait_lock.acquire()
            yield ("sleep", DEFAULT_GRACE_NS)
            self.rcu_wait_lock.release()


def _mark_started(world: "_ServiceWorld", name: str) -> tuple[str, Any]:
    world.started_at[name] = world.machine.now
    return ("fire", world.started[name])


def _mark_ready_steps(world: "_ServiceWorld", name: str):
    if name not in world.ready_at:
        world.ready_at[name] = world.machine.now
        yield ("fire", world.ready[name])
        yield ("fire", world.settled[name])


def _shepherd(world: "_ServiceWorld", job, edge_filter, faulter):
    """The predictor's replica of ``JobExecutor._shepherd`` + runner."""
    name = job.unit.name
    unit = job.unit
    for edge in world.transaction.predecessors(name):
        if edge_filter is not None and not edge_filter(edge):
            continue
        gate = (world.settled[edge.predecessor]
                if edge.kind is EdgeKind.STRONG
                else world.started[edge.predecessor])
        if not gate.fired:
            yield ("wait", gate)

    if any(p not in world.paths for p in unit.condition_paths):
        # Condition skip: the job settles immediately, dependents unblock.
        world.started_at[name] = world.ready_at[name] = world.machine.now
        yield ("fire", world.started[name])
        yield ("fire", world.ready[name])
        yield ("fire", world.settled[name])
        return

    if unit.unit_type is UnitType.TARGET:
        world.started_at[name] = world.ready_at[name] = world.machine.now
        yield ("fire", world.started[name])
        yield ("fire", world.ready[name])
        yield ("fire", world.settled[name])
        return

    cost = unit.cost
    for _ in range(cost.processes):
        yield from _acquire(world.fork_lock)
        yield ("cpu", cost.fork_ns)
        yield ("unlock", world.fork_lock)

    if cost.exec_bytes:
        yield from world.storage_read(cost.exec_bytes, AccessPattern.RANDOM)
    if not unit.static_build and cost.dynamic_link_ns:
        yield ("cpu", cost.dynamic_link_ns)

    yield _mark_started(world, name)
    if unit.service_type is ServiceType.SIMPLE:
        yield from _mark_ready_steps(world, name)

    for path in unit.waits_for_paths:
        if path not in world.paths:
            if faulter is not None:
                yield from faulter(path)
            if path not in world.paths:
                yield ("wait", world.path_gate(path))

    # Initialization chunks interleaved with synchronize_rcu, the first
    # IPC call gated on socket-activation providers.
    syncs = cost.rcu_syncs
    chunks = syncs + 1
    chunk_ns = cost.init_cpu_ns // chunks
    remainder = cost.init_cpu_ns - chunk_ns * chunks
    for index in range(chunks):
        cpu = chunk_ns + (remainder if index == chunks - 1 else 0)
        if cpu:
            yield ("cpu", cpu)
        if index == 0 and unit.ipc_targets:
            for target in unit.ipc_targets:
                if target in world.transaction:
                    gate = world.ready[target]
                    if not gate.fired:
                        yield ("wait", gate)
        if index < syncs:
            yield from world.synchronize_rcu()
    if cost.hw_settle_ns:
        yield ("sleep", cost.hw_settle_ns)

    if unit.service_type is ServiceType.NOTIFY and cost.ready_extra_ns:
        yield ("sleep", cost.ready_extra_ns)
    for path in unit.provides_paths:
        world.provide(path)
    yield from _mark_ready_steps(world, name)


def _kmod_worker(world: "_ServiceWorld", boot_modules):
    """Replica of the bulk external-module loader (priority 60)."""
    from repro.kernel.modules import SYSCALL_COST_NS, SYSCALLS_PER_LOAD

    loaded: set[str] = set()
    for module in boot_modules:
        if module.name in loaded:
            world.provide(f"/dev/{module.name}")
            continue
        yield ("cpu", SYSCALL_COST_NS * SYSCALLS_PER_LOAD)
        yield from world.storage_read(module.size_bytes, AccessPattern.RANDOM)
        yield ("cpu", module.link_cpu_ns)
        if module.hw_settle_ns:
            yield ("sleep", module.hw_settle_ns)
        loaded.add(module.name)
        world.provide(f"/dev/{module.name}")


def _manager_wait(world: "_ServiceWorld", completion_units):
    """Replica of ``_wait_for_completion``: stop at the completion instant."""
    for name in completion_units:
        gate = world.settled[name]
        if not gate.fired:
            yield ("wait", gate)
        if name not in world.ready_at:
            raise AnalysisError(
                f"completion unit {name!r} settled without becoming ready")
    world.completion_ns = world.machine.now
    world.machine.stopped = True


def _make_faulter(world: "_ServiceWorld", workload: Workload, bb: BBConfig):
    """On-demand Modularizer Control: demand-load the driver of a path."""
    initcalls = CoreEngine(
        workload.platform_factory(), bb,
        initcalls=workload.initcalls_factory(),
        builtin_initcalls=workload.builtin_initcalls_factory()).initcalls
    # Everything the kernel stage's boot sequence selected ran in-line.
    completed = {c.name for c in initcalls.boot_sequence(defer=True)}

    def faulter(path: str):
        driver = path.rsplit("/", 1)[-1]
        call = initcalls.get(driver)  # KernelError on unknown, as in DES
        if call.name not in completed:
            yield ("cpu", 500_000)  # demand dispatch overhead (usec(500))
            yield ("cpu", call.cpu_ns)
            if call.hw_settle_ns:
                yield ("sleep", call.hw_settle_ns)
            completed.add(call.name)
        world.provide(path)

    return faulter


# --------------------------------------------------------------------------
# Entry points.


def predict(workload: Workload, bb: BBConfig | None = None,
            cores: int | None = None, kernel_config: Any | None = None,
            manual_bb_group: tuple[str, ...] | None = None,
            text_stats: RegistryTextStats | None = None) -> BootPrediction:
    """Predict boot-completion time for one unperturbed boot.

    Mirrors the :class:`~repro.core.bb.BootSimulation` constructor
    signature.  ``text_stats`` short-circuits the expensive unit-file
    rendering pass — pass the value of a previous :func:`predict` over
    the *same unit set and* ``static_bb_group`` *flag* (see
    :func:`registry_text_stats`) when sweeping many configurations of
    one workload.

    Raises:
        AnalysisError: If the workload cannot be predicted (cyclic
            transaction, unknown completion unit, injected failures).
    """
    bb = bb if bb is not None else BBConfig.none()
    platform = workload.platform_factory()
    cores = cores if cores is not None else platform.cpu_cores

    try:
        registry = workload.fresh_registry()
    except ReproError as exc:
        raise AnalysisError(f"cannot realize workload: {exc}") from exc
    service_engine = ServiceEngine(registry, workload.completion_units,
                                   bb, manual_group=manual_bb_group)
    preparser = service_engine.preparser
    if text_stats is None:
        text_stats = registry_text_stats(registry, preparser.parse_base_ns,
                                         preparser.parse_per_byte_ns)
    kernel_ns, init_init_ns, load_units_ns, submodules_ns = _serial_prefix(
        workload, bb, kernel_config, preparser, text_stats)

    # The boot transaction, on the post-install-section registry (static
    # builds were already applied by the ServiceEngine constructor).
    registry.apply_install_sections()
    try:
        transaction = Transaction(registry, [workload.goal])
    except Exception as exc:
        raise AnalysisError(f"cannot build boot transaction: {exc}") from exc
    missing = [u for u in workload.completion_units if u not in transaction]
    if missing:
        raise AnalysisError(
            f"completion units not in boot transaction: {missing}")
    flaky = [j.unit.name for j in transaction.jobs.values()
             if j.unit.failures_before_success]
    if flaky:
        raise AnalysisError(
            f"predictor models unperturbed boots only; units with "
            f"failures_before_success: {flaky}")

    services_start = kernel_ns + init_init_ns + load_units_ns + submodules_ns
    machine = _Machine(cores, services_start)
    world = _ServiceWorld(machine, transaction, platform.storage,
                          rcu_boosted=bb.rcu_booster,
                          preexisting_paths=set(workload.preexisting_paths))
    for job in transaction.jobs.values():
        name = job.unit.name
        world.started[name] = _Gate()
        world.ready[name] = _Gate()
        world.settled[name] = _Gate()

    edge_filter = service_engine.edge_filter
    priority_fn = service_engine.priority_fn
    faulter = (_make_faulter(world, workload, bb)
               if bb.ondemand_modularizer else None)
    boot_modules = (() if bb.ondemand_modularizer
                    else workload.boot_modules_factory())

    # Activation order mirrors the DES: the manager parks on the first
    # completion gate before any spawned process runs its first step;
    # the kmod worker was spawned before the shepherds.
    machine.start(_Task(_manager_wait(world, workload.completion_units),
                        MANAGER_PRIORITY, "init-manager"))
    if boot_modules:
        machine.start(_Task(_kmod_worker(world, boot_modules),
                            KMOD_PRIORITY, "kmod-worker"))
    for job in transaction.jobs.values():
        priority = (priority_fn(job.unit) if priority_fn
                    else SERVICE_PRIORITY)
        machine.start(_Task(_shepherd(world, job, edge_filter, faulter),
                            priority, f"job:{job.unit.name}"))
    machine.run(services_start + LIVELOCK_HORIZON_NS)

    if world.completion_ns is None:
        raise AnalysisError(
            "prediction deadlocked before boot completion (a waited-for "
            "path or gate never fired)")

    return BootPrediction(
        workload=workload.name,
        features=tuple(bb.enabled_features()),
        cores=cores,
        boot_complete_ns=world.completion_ns,
        kernel_ns=kernel_ns,
        init_init_ns=init_init_ns,
        load_units_ns=load_units_ns,
        submodules_ns=submodules_ns,
        services_ns=world.completion_ns - services_start,
        unit_started_ns=dict(world.started_at),
        unit_ready_ns=dict(world.ready_at),
        bb_group=(service_engine.bb_group
                  if service_engine.edge_filter is not None else frozenset()),
    )


def predict_job(job: "SimJob",
                text_stats: RegistryTextStats | None = None) -> BootPrediction:
    """Predict the boot a declarative :class:`~repro.runner.jobs.SimJob`
    describes (``boot`` kind, no fault plan).

    Raises:
        AnalysisError: For non-boot kinds or fault-injected jobs.
    """
    from repro.runner.jobs import KIND_BOOT

    if job.kind != KIND_BOOT:
        raise AnalysisError(f"cannot predict a {job.kind!r} job")
    if job.fault_plan is not None:
        raise AnalysisError("predictor models unperturbed boots only; "
                            "this job carries a fault plan")
    if job.workload_factory is None:
        raise AnalysisError("boot SimJob has no workload factory")
    workload = job.workload_factory(*job.workload_args,
                                    **dict(job.workload_kwargs))
    return predict(workload, job.bb, cores=job.cores,
                   kernel_config=job.kernel_config,
                   manual_bb_group=job.manual_bb_group,
                   text_stats=text_stats)

# --------------------------------------------------------------------------
# Design-space sweeps.

#: Features that change when the services phase *begins* but never how it
#: unfolds.  Their entire effect is a serial-prefix delta, so the machine
#: solution of the services phase is shift-invariant under them.
PREFIX_ONLY_FEATURES = ("deferred_meminit", "deferred_journal", "preparser",
                        "defer_startup_tasks", "deferred_executor")

#: Features the services-phase solution genuinely depends on (plus the
#: core count and the workload itself).
SERVICE_PHASE_FEATURES = ("rcu_booster", "ondemand_modularizer",
                          "group_isolation", "group_priority_boost",
                          "static_bb_group")


class SweepPredictor:
    """Amortized :func:`predict` for design-space sweeps of one workload.

    Two structural facts of the boot model make large sweeps cheap:

    * Unit-file text statistics depend only on the unit set and the
      ``static_bb_group`` flag, so one rendering pass serves every other
      feature combination.
    * The :data:`PREFIX_ONLY_FEATURES` change *when* the services phase
      starts, never how it unfolds: the machine solution is
      shift-invariant under them, and one run per
      :data:`SERVICE_PHASE_FEATURES` projection (and core count) serves
      every combination of the prefix-only flags.

    Fast-path results are bit-identical to calling :func:`predict`
    directly — asserted by the ``predicted`` differential-oracle group.
    ``machine_runs`` and ``fast_hits`` expose the cache economics for
    sweep logs.
    """

    def __init__(self, workload_factory: Callable[[], Workload]) -> None:
        self._factory = workload_factory
        self._workload: Workload | None = None
        self._stats: dict[bool, tuple[ServiceEngine, RegistryTextStats]] = {}
        self._reference: dict[tuple, BootPrediction] = {}
        self._prefix: dict[tuple, tuple[int, int, int, int]] = {}
        self.machine_runs = 0
        self.fast_hits = 0

    # ------------------------------------------------------------- caches

    def _wl(self) -> Workload:
        if self._workload is None:
            self._workload = self._factory()
        return self._workload

    def _stats_for(self, static: bool) -> tuple[ServiceEngine,
                                                RegistryTextStats]:
        entry = self._stats.get(static)
        if entry is None:
            wl = self._wl()
            bb = BBConfig.none().with_feature("static_bb_group", static)
            try:
                registry = wl.fresh_registry()
            except ReproError as exc:
                raise AnalysisError(
                    f"cannot realize workload: {exc}") from exc
            engine = ServiceEngine(registry, wl.completion_units, bb)
            preparser = engine.preparser
            entry = (engine,
                     registry_text_stats(registry, preparser.parse_base_ns,
                                         preparser.parse_per_byte_ns))
            self._stats[static] = entry
        return entry

    def _prefix_key(self, bb: BBConfig) -> tuple:
        return tuple(getattr(bb, f) for f in PREFIX_ONLY_FEATURES) \
            + (bb.ondemand_modularizer, bb.static_bb_group)

    def _prefix_parts(self, bb: BBConfig) -> tuple[int, int, int, int]:
        key = self._prefix_key(bb)
        parts = self._prefix.get(key)
        if parts is None:
            engine, stats = self._stats_for(bb.static_bb_group)
            parts = _serial_prefix(self._wl(), bb, None, engine.preparser,
                                   stats)
            self._prefix[key] = parts
        return parts

    # -------------------------------------------------------------- entry

    def predict(self, bb: BBConfig | None = None,
                cores: int | None = None) -> BootPrediction:
        """Predict one design-space cell, reusing cached sub-solutions."""
        bb = bb if bb is not None else BBConfig.none()
        if cores is None:
            cores = self._wl().platform_factory().cpu_cores
        skey = tuple(getattr(bb, f)
                     for f in SERVICE_PHASE_FEATURES) + (cores,)
        ref = self._reference.get(skey)
        if ref is None:
            stats = self._stats_for(bb.static_bb_group)[1]
            ref = predict(self._wl(), bb, cores=cores, text_stats=stats)
            self._reference[skey] = ref
            self._prefix[self._prefix_key(bb)] = (
                ref.kernel_ns, ref.init_init_ns, ref.load_units_ns,
                ref.submodules_ns)
            self.machine_runs += 1
            return ref
        self.fast_hits += 1
        kernel_ns, init_init_ns, load_units_ns, submodules_ns = \
            self._prefix_parts(bb)
        shift = (kernel_ns + init_init_ns + load_units_ns + submodules_ns) \
            - (ref.kernel_ns + ref.init_init_ns + ref.load_units_ns
               + ref.submodules_ns)
        features = tuple(bb.enabled_features())
        if shift == 0 and features == ref.features:
            return ref
        return BootPrediction(
            workload=ref.workload,
            features=features,
            cores=cores,
            boot_complete_ns=ref.boot_complete_ns + shift,
            kernel_ns=kernel_ns,
            init_init_ns=init_init_ns,
            load_units_ns=load_units_ns,
            submodules_ns=submodules_ns,
            services_ns=ref.services_ns,
            unit_started_ns={name: t + shift
                             for name, t in ref.unit_started_ns.items()},
            unit_ready_ns={name: t + shift
                           for name, t in ref.unit_ready_ns.items()},
            bb_group=ref.bb_group,
        )
