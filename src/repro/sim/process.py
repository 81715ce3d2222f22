"""Generator-coroutine processes and their request vocabulary.

A simulated activity (a kernel phase, a service start-up, an application
launch) is written as a Python generator that ``yield``\\ s request objects:

* :class:`Timeout` — let simulated time pass without occupying a CPU core
  (device latency, pure sleeps),
* :class:`Compute` — consume CPU time; the process occupies one core of the
  :class:`~repro.sim.cpu.CPU` while it runs and competes with every other
  runnable process through the priority run queue,
* :class:`Wait` — block until a :class:`~repro.sim.sync.Completion` fires,
* :class:`SpinWait` — busy-wait on a :class:`~repro.sim.sync.SpinLock`
  ticket; the CPU model drives the spinning.

Generators compose with ``yield from``, so models build freely on each
other (a service start ``yield from``\\ s a storage read, which internally
yields ``Timeout`` for the transfer and ``Compute`` for syscall overhead).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.sync import Completion, SpinLock

#: Type alias for the generators the engine can run.
ProcessGenerator = Generator[Any, Any, Any]

#: Default scheduling priority; lower numbers run first (like ``nice``).
DEFAULT_PRIORITY = 100


@dataclass(frozen=True, slots=True)
class Timeout:
    """Suspend the process for ``ns`` nanoseconds without using a core."""

    ns: int

    def __post_init__(self) -> None:
        if self.ns < 0:
            raise SimulationError(f"negative timeout: {self.ns}")


@dataclass(frozen=True, slots=True)
class Compute:
    """Consume ``ns`` nanoseconds of CPU time on one core.

    The process is enqueued on the CPU run queue at its current priority,
    may be time-sliced (the engine splits long computations into scheduler
    quanta), and resumes once the full amount has been executed.
    """

    ns: int

    def __post_init__(self) -> None:
        if self.ns < 0:
            raise SimulationError(f"negative compute time: {self.ns}")


@dataclass(frozen=True, slots=True)
class Wait:
    """Block until ``completion`` fires; resumes with the fired value."""

    completion: "Completion"


@dataclass(frozen=True, slots=True)
class SpinWait:
    """Spin on a core until ``lock`` is free for ``ticket``.

    Yielded by :meth:`repro.sim.sync.SpinLock.acquire`.  The CPU runs the
    process in ``lock.spin_slice_ns`` spins, each queued like a
    :class:`Compute`, and resumes it (with ``None``) at the first spin end
    at which the lock is free and ``ticket`` is the lowest outstanding
    one — see :meth:`repro.sim.cpu.CPU.spin`.
    """

    lock: "SpinLock"
    ticket: int


class Interrupted(Exception):
    """Raised *inside* a process generator when it is interrupted.

    Delivered at the process's next resume point: immediately for a
    process blocked on a ``Timeout`` or ``Wait``, at the end of the
    current scheduler slice for one computing on a core.  Generators may
    catch it (``finally`` blocks run, so locks held across ``yield`` are
    released) and either re-raise, return, or continue.
    """


class ProcessState(enum.Enum):
    """Lifecycle states of a simulated process."""

    CREATED = "created"
    RUNNABLE = "runnable"  # waiting for or holding a CPU core
    WAITING = "waiting"  # blocked on a Timeout / Wait
    FINISHED = "finished"
    FAILED = "failed"


class Process:
    """A running simulated activity.

    Created through :meth:`repro.sim.engine.Simulator.spawn`; user code never
    instantiates this class directly.

    Attributes:
        name: Human-readable identifier used in traces and deadlock reports.
        priority: Scheduling priority; lower runs first.  May be changed at
            any time (takes effect at the next scheduler decision), which is
            how the BB Manager boosts BB-Group services.
        done: Fires (with :attr:`result`) when the process finishes.
        result: Return value of the generator once finished.
        cpu_time_ns: Total CPU time this process has consumed so far.
    """

    def __init__(self, engine: "Simulator", gen: ProcessGenerator, name: str,
                 priority: int = DEFAULT_PRIORITY):
        from repro.sim.sync import Completion  # cycle: sync needs engine

        self._engine = engine
        self._gen = gen
        self.name = name
        self.priority = priority
        self.daemon = False
        self.state = ProcessState.CREATED
        self.done: Completion = Completion(engine, name=f"{name}.done")
        self.result: Any = None
        self.exception: BaseException | None = None
        self.cpu_time_ns = 0
        self.started_at_ns: int | None = None
        self.finished_at_ns: int | None = None
        # Interrupt plumbing (see Simulator.interrupt / Interrupted).
        self._pending_interrupt: BaseException | None = None
        self._timeout_event = None  # ScheduledEvent while blocked on Timeout
        self._waiting_on = None  # Completion while blocked on Wait

    @property
    def alive(self) -> bool:
        """True while the process has not finished or failed."""
        return self.state not in (ProcessState.FINISHED, ProcessState.FAILED)

    def _step(self, value: Any) -> None:
        """Advance the generator with ``value`` and dispatch its request."""
        self.state = ProcessState.RUNNABLE
        try:
            if self._pending_interrupt is not None:
                exc, self._pending_interrupt = self._pending_interrupt, None
                request = self._gen.throw(exc)
            else:
                request = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Interrupted:
            # Uncaught interrupt: the process dies quietly (its done
            # completion fires with None); the simulation continues.
            self._finish(None)
            return
        except BaseException as exc:  # model bug: fail fast, keep context
            self.state = ProcessState.FAILED
            self.exception = exc
            self.finished_at_ns = self._engine.now
            self._engine._process_failed(self, exc)
            return
        self._engine._dispatch(self, request)

    def _finish(self, result: Any) -> None:
        self.state = ProcessState.FINISHED
        self.result = result
        self.finished_at_ns = self._engine.now
        self._engine._process_finished(self)
        self.done.fire(result)

    def __repr__(self) -> str:
        return f"Process({self.name!r}, state={self.state.value}, prio={self.priority})"
