"""Simulation-time synchronization primitives.

The two lock flavours here embody the paper's Algorithm 1 vs Algorithm 2
distinction:

* :class:`SpinLock` — the ticket spinlock of conventional
  ``synchronize_rcu`` (Algorithm 1).  A waiter **burns a CPU core**: it
  yields one :class:`~repro.sim.process.SpinWait`, and the CPU model runs
  it in ``spin_slice_ns`` spins, re-trying at the end of each, so while it
  waits other runnable boot tasks cannot use that core.
* :class:`Mutex` — the blocking lock of the boosted RCU (Algorithm 2).  A
  waiter **sleeps**: it is parked on a wait queue and frees its core, at the
  price of a context-switch cost when it is woken.

:class:`Completion` is the waitable event used for process joins, service
readiness, path conditions, and the wait queues of the locks themselves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import SimulationError
from repro.sim.process import Compute, SpinWait, Wait

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.process import Process, ProcessGenerator

#: Default context-switch cost a woken :class:`Mutex` or
#: :class:`PriorityMutex` waiter pays.
DEFAULT_WAKE_COST_NS = 3_000

#: Default CPU cost of taking a :class:`SpinLock` ticket.
DEFAULT_SPIN_ACQUIRE_COST_NS = 200


class Completion:
    """A one-shot waitable event carrying an optional value.

    Waiters created after the event has fired resume immediately — there is
    no lost-wakeup race in simulated time.
    """

    def __init__(self, engine: "Simulator", name: str = "completion"):
        self._engine = engine
        self.name = name
        self.fired = False
        self.value: Any = None
        self._waiters: list["Process"] = []

    def fire(self, value: Any = None) -> None:
        """Fire the event, waking every waiter with ``value``.

        Raises:
            SimulationError: If fired twice.
        """
        if self.fired:
            raise SimulationError(f"completion {self.name!r} fired twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self._engine._resume(process, value)

    def wait(self) -> "ProcessGenerator":
        """Generator helper: ``result = yield from completion.wait()``."""
        value = yield Wait(self)
        return value

    def _add_waiter(self, process: "Process") -> bool:
        """Register ``process``; returns False if already fired (no block)."""
        if self.fired:
            return False
        self._waiters.append(process)
        return True

    def __repr__(self) -> str:
        state = "fired" if self.fired else f"{len(self._waiters)} waiters"
        return f"Completion({self.name!r}, {state})"


def wait_all(engine: "Simulator", completions: Iterable[Completion]) -> "ProcessGenerator":
    """Generator helper: wait until every completion has fired."""
    for completion in completions:
        if not completion.fired:
            yield Wait(completion)
    return None


class Mutex:
    """A sleeping lock: blocked acquirers release their CPU core.

    Waiters are queued FIFO.  ``wake_cost_ns`` models the scheduler /
    context-switch overhead paid by a woken waiter — the "greater CPU
    utilization due to process context switch and scheduling cost" that
    Algorithm 2 trades for not spinning.
    """

    def __init__(self, engine: "Simulator", name: str = "mutex",
                 wake_cost_ns: int = DEFAULT_WAKE_COST_NS):
        self._engine = engine
        self.name = name
        self.wake_cost_ns = wake_cost_ns
        self.owner: "Process | None" = None
        self._wait_queue: list[Completion] = []
        self.contended_acquires = 0
        self.total_acquires = 0

    @property
    def locked(self) -> bool:
        """True while some process owns the lock."""
        return self.owner is not None

    def acquire(self) -> "ProcessGenerator":
        """Generator helper: ``yield from mutex.acquire()``.

        The caller sleeps (core released) until the lock is granted.
        """
        process = self._engine.current_process
        if process is None:
            raise SimulationError(f"mutex {self.name!r} acquired outside a process")
        self.total_acquires += 1
        if self.owner is None:
            self.owner = process
            return None
        self.contended_acquires += 1
        ticket = Completion(self._engine, name=f"{self.name}.ticket")
        self._wait_queue.append(ticket)
        yield Wait(ticket)
        # Ownership was transferred to us by release(); pay the wake cost.
        # An interrupt landing here must hand the lock on, not leak it.
        if self.wake_cost_ns:
            try:
                yield Compute(self.wake_cost_ns)
            except BaseException:
                self.release()
                raise
        return None

    def release(self) -> None:
        """Release the lock, handing it to the first *live* queued waiter.

        Tickets whose waiter was interrupted while queued are skipped.
        """
        if self.owner is None:
            raise SimulationError(f"release of unlocked mutex {self.name!r}")
        self.owner = None
        while self._wait_queue:
            ticket = self._wait_queue.pop(0)
            if ticket._waiters:
                # Direct handoff: the woken waiter owns the lock before it
                # runs, keeping the queue strictly FIFO with no barging.
                self.owner = ticket._waiters[0]
                ticket.fire(None)
                return

    def __repr__(self) -> str:
        holder = self.owner.name if self.owner else None
        return f"Mutex({self.name!r}, owner={holder!r}, queued={len(self._wait_queue)})"


class PriorityMutex:
    """A sleeping lock whose release picks the highest-priority waiter.

    Models priority-aware resource queues such as I/O scheduling classes
    (``ioprio_set``): when the lock is released, the queued process with
    the numerically lowest priority is granted ownership; FIFO breaks ties.
    The waiter's priority is sampled at release time, so a priority boost
    applied while a process waits still takes effect.
    """

    def __init__(self, engine: "Simulator", name: str = "priority-mutex",
                 wake_cost_ns: int = DEFAULT_WAKE_COST_NS):
        self._engine = engine
        self.name = name
        self.wake_cost_ns = wake_cost_ns
        self.owner: "Process | None" = None
        self._wait_queue: list[tuple[int, Completion, "Process"]] = []
        self._seq = 0
        self.total_acquires = 0
        self.contended_acquires = 0

    @property
    def locked(self) -> bool:
        """True while some process owns the lock."""
        return self.owner is not None

    def acquire(self) -> "ProcessGenerator":
        """Generator helper: ``yield from lock.acquire()`` (sleeps if held)."""
        process = self._engine.current_process
        if process is None:
            raise SimulationError(f"lock {self.name!r} acquired outside a process")
        self.total_acquires += 1
        if self.owner is None:
            self.owner = process
            return None
        self.contended_acquires += 1
        ticket = Completion(self._engine, name=f"{self.name}.ticket")
        self._wait_queue.append((self._seq, ticket, process))
        self._seq += 1
        yield Wait(ticket)
        # An interrupt landing on the wake cost must hand the lock on.
        if self.wake_cost_ns:
            try:
                yield Compute(self.wake_cost_ns)
            except BaseException:
                self.release()
                raise
        return None

    def release(self) -> None:
        """Release; ownership passes to the best *live* queued waiter."""
        if self.owner is None:
            raise SimulationError(f"release of unlocked lock {self.name!r}")
        self.owner = None
        # Drop tickets whose waiter was interrupted while queued.
        self._wait_queue = [entry for entry in self._wait_queue
                            if entry[1]._waiters]
        if self._wait_queue:
            best_index = min(range(len(self._wait_queue)),
                             key=lambda i: (self._wait_queue[i][2].priority,
                                            self._wait_queue[i][0]))
            _, ticket, process = self._wait_queue.pop(best_index)
            self.owner = process
            ticket.fire(None)

    def __repr__(self) -> str:
        holder = self.owner.name if self.owner else None
        return (f"PriorityMutex({self.name!r}, owner={holder!r}, "
                f"queued={len(self._wait_queue)})")


class SpinLock:
    """A spinning lock: blocked acquirers burn CPU while waiting.

    ``spin_slice_ns`` is the CPU time consumed per failed attempt before
    re-trying.  A long critical section under contention therefore occupies
    one core per spinner — exactly the pathology the RCU Booster removes at
    boot time.  The spinning itself is driven by the CPU model
    (:meth:`repro.sim.cpu.CPU.spin`), which reports each completed spin
    back to the lock; only completed spins count in :attr:`spin_time_ns`,
    so a spin cut short by an interrupt is CPU time but not spin time.
    """

    def __init__(self, engine: "Simulator", name: str = "spinlock",
                 spin_slice_ns: int = 500_000,
                 acquire_cost_ns: int = DEFAULT_SPIN_ACQUIRE_COST_NS):
        if spin_slice_ns <= 0:
            raise SimulationError("spin_slice_ns must be positive")
        self._engine = engine
        self.name = name
        self.spin_slice_ns = spin_slice_ns
        self.acquire_cost_ns = acquire_cost_ns
        self._held = False
        self.owner: "Process | None" = None
        self.total_acquires = 0
        self.contended_acquires = 0
        self.spin_time_ns = 0
        # Ticket numbers give the FIFO fairness of Linux ticket spinlocks.
        self._next_ticket = 0
        self._tickets: dict[int, "Process"] = {}

    @property
    def locked(self) -> bool:
        """True while the lock is held."""
        return self._held

    def try_acquire(self) -> bool:
        """Non-blocking attempt; True on success (no ticket taken)."""
        if not self._held and not self._tickets:
            self._held = True
            self.owner = self._engine.current_process
            self.total_acquires += 1
            return True
        return False

    def acquire(self) -> "ProcessGenerator":
        """Generator helper: spin (burning CPU) until the lock is granted."""
        process = self._engine.current_process
        if process is None:
            raise SimulationError(f"spinlock {self.name!r} acquired outside a process")
        self.total_acquires += 1
        if self.acquire_cost_ns:
            yield Compute(self.acquire_cost_ns)
        ticket = self._next_ticket
        self._next_ticket += 1
        self._tickets[ticket] = process
        if not self._free_for(ticket):
            self.contended_acquires += 1
            try:
                # Busy-wait: the CPU resumes us once a spin ends with the
                # lock free for this ticket.
                yield SpinWait(self, ticket)
            except BaseException:
                # An abandoned (interrupted) ticket leaves the dict, so it
                # never wedges the queue.
                self._tickets.pop(ticket, None)
                raise
        del self._tickets[ticket]
        self._held = True
        self.owner = process
        return None

    def _free_for(self, ticket: int) -> bool:
        """True when ``ticket`` may take the lock now: the lock is free and
        ``ticket`` is the lowest *outstanding* ticket (FIFO fairness)."""
        return not self._held and min(self._tickets) == ticket

    def _spin_ended(self, ticket: int) -> bool:
        """Count one completed spin by ``ticket``'s waiter (engine
        internal); True when it must spin again."""
        self.spin_time_ns += self.spin_slice_ns
        return self._held or min(self._tickets) != ticket

    def release(self) -> None:
        """Release the lock; the next ticket holder's spin will succeed."""
        if not self._held:
            raise SimulationError(f"release of unlocked spinlock {self.name!r}")
        self._held = False
        self.owner = None

    def __repr__(self) -> str:
        holder = self.owner.name if self.owner else None
        return f"SpinLock({self.name!r}, owner={holder!r}, spinners={len(self._tickets)})"


class Semaphore:
    """A counting semaphore with sleeping waiters (FIFO)."""

    def __init__(self, engine: "Simulator", count: int, name: str = "semaphore"):
        if count < 0:
            raise SimulationError(f"semaphore count cannot be negative: {count}")
        self._engine = engine
        self.name = name
        self.count = count
        self._wait_queue: list[Completion] = []

    def acquire(self) -> "ProcessGenerator":
        """Generator helper: take one permit, sleeping if none available."""
        if self.count > 0:
            self.count -= 1
            return None
        ticket = Completion(self._engine, name=f"{self.name}.ticket")
        self._wait_queue.append(ticket)
        yield Wait(ticket)
        return None

    def release(self) -> None:
        """Return one permit, waking the first *live* queued waiter if any."""
        while self._wait_queue:
            ticket = self._wait_queue.pop(0)
            if ticket._waiters:
                ticket.fire(None)
                return
        self.count += 1

    def __repr__(self) -> str:
        return f"Semaphore({self.name!r}, count={self.count}, queued={len(self._wait_queue)})"
