"""Multicore CPU model with a priority run queue.

Every :class:`~repro.sim.process.Compute` request goes through this model,
so at most ``cores`` simulated activities make CPU progress at any instant —
the fundamental constraint that makes boot parallelism (and the damage done
by spinning RCU waiters) come out of the simulation rather than being
asserted.

Scheduling is priority-based (lower number first, FIFO within a priority)
and time-sliced: a long computation is split into ``quantum_ns`` slices, and
between slices the process goes back through the run queue.  A priority
change therefore takes effect within one quantum — this is the hook the
Booting Booster Manager uses to push BB-Group services ahead of everything
else.

The CPU also drives spin-waiting on a :class:`~repro.sim.sync.SpinLock`
(a :class:`~repro.sim.process.SpinWait` request): the waiter burns
``spin_slice_ns`` spins on a core, and at the end of each spin the CPU
either resumes it (the lock is free for its ticket, or it was
interrupted) or re-queues it at the back of its priority class, exactly
as a fresh ``Compute`` per spin would be, without a generator round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.process import Process
    from repro.sim.sync import SpinLock

#: Default scheduler quantum: 1 ms, the granularity of priority decisions.
DEFAULT_QUANTUM_NS = 1_000_000

#: Default dispatch (context-switch) cost charged per scheduling decision.
DEFAULT_SWITCH_COST_NS = 2_000


class _RunQueueEntry:
    """One request's claim on the CPU, reused across its slices.

    The run queue orders ``(priority, seq, entry)`` tuples; ``seq`` is
    unique, so the entry itself is never compared.  ``lock`` is set for a
    spin-wait on ``lock``'s ``ticket``; ``remaining_ns`` then counts down
    the current spin.
    """

    __slots__ = ("process", "remaining_ns", "lock", "ticket")

    def __init__(self, process: "Process", remaining_ns: int,
                 lock: "SpinLock | None" = None, ticket: int = 0):
        self.process = process
        self.remaining_ns = remaining_ns
        self.lock = lock
        self.ticket = ticket


@dataclass(slots=True)
class CpuStats:
    """Aggregate CPU accounting for a finished (or running) simulation.

    Attributes:
        busy_ns: Total core-nanoseconds spent executing process slices.
        switch_ns: Total core-nanoseconds spent on dispatch overhead.
        dispatches: Number of scheduling decisions taken.
        peak_runnable: Maximum length of the run queue observed (queued,
            not counting processes already on cores).
    """

    busy_ns: int = 0
    switch_ns: int = 0
    dispatches: int = 0
    peak_runnable: int = 0

    def utilization(self, cores: int, elapsed_ns: int) -> float:
        """Fraction of total core capacity used over ``elapsed_ns``."""
        if elapsed_ns <= 0:
            return 0.0
        return (self.busy_ns + self.switch_ns) / (cores * elapsed_ns)


class CPU:
    """An N-core processor shared by all simulated processes.

    Args:
        engine: Owning simulator.
        cores: Number of cores (the UE48H6200 preset uses 4).
        quantum_ns: Maximum slice per scheduling decision.
        switch_cost_ns: Overhead charged to the core per dispatch.
    """

    def __init__(self, engine: "Simulator", cores: int,
                 quantum_ns: int = DEFAULT_QUANTUM_NS,
                 switch_cost_ns: int = DEFAULT_SWITCH_COST_NS):
        if cores < 1:
            raise SimulationError(f"CPU needs at least one core, got {cores}")
        if quantum_ns <= 0:
            raise SimulationError(f"quantum must be positive, got {quantum_ns}")
        if switch_cost_ns < 0:
            raise SimulationError(f"switch cost cannot be negative: {switch_cost_ns}")
        self._engine = engine
        self._clock = engine.clock
        self._events = engine.events
        self.cores = cores
        self.quantum_ns = quantum_ns
        self.switch_cost_ns = switch_cost_ns
        self.stats = CpuStats()
        self._idle_cores = cores
        self._run_queue: list[tuple[int, int, _RunQueueEntry]] = []
        self._seq = 0

    @property
    def idle_cores(self) -> int:
        """Number of cores currently not executing a slice."""
        return self._idle_cores

    @property
    def runnable(self) -> int:
        """Number of processes queued for a core (excluding those on cores)."""
        return len(self._run_queue)

    def submit(self, process: "Process", ns: int) -> None:
        """Enqueue ``ns`` nanoseconds of work for ``process`` (engine internal).

        The process is resumed via the engine once the full amount has been
        executed.  Zero-length computations resume immediately without a
        scheduling round-trip.
        """
        if ns == 0:
            self._engine._resume(process, None)
            return
        self._enqueue(_RunQueueEntry(process, ns))
        self._dispatch()

    def spin(self, process: "Process", lock: "SpinLock", ticket: int) -> None:
        """Spin ``process`` on ``lock`` until ``ticket`` may take it
        (engine internal).

        Each spin is ``lock.spin_slice_ns`` of CPU time, sliced and queued
        like a ``Compute``.  When a spin ends it is reported to the lock
        (which counts it as spin time) and, unless the lock is now free for
        ``ticket``, the same entry is re-queued at the process's current
        priority.  The process
        is resumed when a spin ends with the lock free, or at the end of
        the slice an interrupt arrived in (that slice is CPU time but not
        spin time).
        """
        self._enqueue(
            _RunQueueEntry(process, lock.spin_slice_ns, lock, ticket))
        self._dispatch()

    def _enqueue(self, entry: _RunQueueEntry) -> None:
        # The priority is read at every enqueue: BB Manager may have
        # boosted the process while it ran, and it must take effect
        # promptly.
        seq = self._seq
        self._seq = seq + 1
        queue = self._run_queue
        heappush(queue, (entry.process.priority, seq, entry))
        queued = len(queue)
        if queued > self.stats.peak_runnable:
            self.stats.peak_runnable = queued

    def _dispatch(self) -> None:
        """Hand idle cores to the highest-priority queued work."""
        queue = self._run_queue
        while self._idle_cores > 0 and queue:
            entry = heappop(queue)[2]
            if entry.process._pending_interrupt is not None:
                # Interrupted while queued: deliver instead of running.
                self._engine._resume(entry.process, None)
                continue
            self._idle_cores -= 1
            slice_ns = entry.remaining_ns
            if slice_ns > self.quantum_ns:
                slice_ns = self.quantum_ns
            self.stats.dispatches += 1
            self.stats.switch_ns += self.switch_cost_ns
            self._events.push(self._clock.now + self.switch_cost_ns + slice_ns,
                              self._slice_done, entry, slice_ns)
        monitor = self._engine.monitor
        if monitor is not None:
            monitor.on_cpu(self)

    def _slice_done(self, entry: _RunQueueEntry, slice_ns: int) -> None:
        self._idle_cores += 1
        self.stats.busy_ns += slice_ns
        process = entry.process
        process.cpu_time_ns += slice_ns
        remaining = 0
        if process._pending_interrupt is None:
            remaining = entry.remaining_ns - slice_ns
            lock = entry.lock
            if (not remaining and lock is not None
                    and lock._spin_ended(entry.ticket)):
                # A whole spin is done and the lock is not free: spin again.
                remaining = lock.spin_slice_ns
        if remaining:
            entry.remaining_ns = remaining
            self._enqueue(entry)
        else:
            # Finished — or interrupted, in which case the remaining work
            # is abandoned and the interrupt is delivered by the resume.
            self._engine._resume(process, None)
        self._dispatch()

    def __repr__(self) -> str:
        return (f"CPU(cores={self.cores}, idle={self._idle_cores}, "
                f"runnable={len(self._run_queue)})")
