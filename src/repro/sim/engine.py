"""The simulation engine: event loop, process lifecycle, dispatch.

:class:`Simulator` owns the clock, the event queue, the CPU model, and the
tracer, and is the only object user code needs to create::

    sim = Simulator(cores=4)

    def worker():
        yield Compute(msec(5))      # occupy a core for 5 ms of CPU time
        yield Timeout(msec(10))     # sleep 10 ms without a core

    p = sim.spawn(worker(), name="worker")
    sim.run()
    assert p.result is None and not p.alive

Processes advance synchronously inside event callbacks; all same-time
activity is ordered by scheduling sequence, so a run is a pure function of
its inputs.
"""

from __future__ import annotations

from typing import Any

from repro.errors import DeadlockError, SimulationError
from repro.sim.clock import SimClock
from repro.sim.cpu import CPU, DEFAULT_QUANTUM_NS, DEFAULT_SWITCH_COST_NS
from repro.sim.events import EventQueue, ScheduledEvent
from repro.sim.process import (DEFAULT_PRIORITY, Compute, Process,
                               ProcessGenerator, ProcessState, SpinWait,
                               Timeout, Wait)
from repro.sim.sync import Completion
from repro.sim.tracing import Tracer


class Simulator:
    """A deterministic discrete-event simulator with a multicore CPU.

    Args:
        cores: Number of CPU cores available to ``Compute`` requests.
        quantum_ns: Scheduler time slice (see :class:`~repro.sim.cpu.CPU`).
        switch_cost_ns: Dispatch overhead per scheduling decision.
        event_queue: Queue to drive the loop with; defaults to a fresh
            FIFO-tie-break :class:`EventQueue`.  The verification harness
            injects a :class:`~repro.verify.PerturbedEventQueue` here to
            fuzz equal-timestamp scheduling order.
    """

    def __init__(self, cores: int = 4, quantum_ns: int = DEFAULT_QUANTUM_NS,
                 switch_cost_ns: int = DEFAULT_SWITCH_COST_NS,
                 event_queue: EventQueue | None = None):
        self.clock = SimClock()
        self.events = event_queue if event_queue is not None else EventQueue()
        #: Optional runtime invariant monitor (see ``repro.verify``); when
        #: set, the event loop and the CPU scheduler report to it.  Kept as
        #: a plain attribute so the healthy hot path pays one ``None`` test.
        self.monitor = None
        self.cpu = CPU(self, cores=cores, quantum_ns=quantum_ns,
                       switch_cost_ns=switch_cost_ns)
        self.tracer = Tracer(self.clock)
        self.processes: list[Process] = []
        self._current_stack: list[Process] = []
        self._pending_failure: tuple[Process, BaseException] | None = None

    # ------------------------------------------------------------------ API

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self.clock.now

    @property
    def current_process(self) -> Process | None:
        """The process being stepped right now, if any."""
        return self._current_stack[-1] if self._current_stack else None

    def spawn(self, gen: ProcessGenerator, name: str,
              priority: int = DEFAULT_PRIORITY, daemon: bool = False) -> Process:
        """Create a process from a generator and schedule its first step.

        Args:
            gen: The generator to run (already called, not the function).
            name: Identifier used in traces and error reports.
            priority: Scheduling priority; lower runs first.
            daemon: Daemon processes (long-running services) are allowed to
                outlive the event queue without tripping deadlock detection.

        Returns:
            The new :class:`~repro.sim.process.Process`; wait for it with
            ``yield Wait(p.done)`` or check ``p.result`` after :meth:`run`.
        """
        process = Process(self, gen, name=name, priority=priority)
        process.daemon = daemon
        self.processes.append(process)
        self.events.push(self.now, self._first_step, process)
        return process

    def completion(self, name: str = "completion") -> Completion:
        """Create a :class:`~repro.sim.sync.Completion` bound to this engine."""
        return Completion(self, name=name)

    def call_at(self, time_ns: int, callback, *args) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if time_ns < self.now:
            raise SimulationError(f"call_at in the past: {time_ns} < {self.now}")
        return self.events.push(time_ns, callback, *args)

    def call_after(self, delay_ns: int, callback, *args) -> ScheduledEvent:
        """Schedule ``callback(*args)`` ``delay_ns`` from now."""
        return self.call_at(self.now + delay_ns, callback, *args)

    def run(self, until_ns: int | None = None, check_deadlock: bool = False) -> int:
        """Run the event loop.

        Args:
            until_ns: Stop (without executing later events) once the next
                event lies strictly beyond this time; ``None`` runs to
                quiescence.
            check_deadlock: If True and the queue drains while non-daemon
                processes are still blocked, raise
                :class:`~repro.errors.DeadlockError`.

        Returns:
            The simulation time when the loop stopped.

        Raises:
            Exception: The first exception raised inside any process is
                re-raised here, at the simulated moment it occurred.
        """
        events = self.events
        advance_to = self.clock.advance_to
        monitor = self.monitor
        while len(events) > 0:
            next_time = events.peek_time()
            assert next_time is not None
            if until_ns is not None and next_time > until_ns:
                advance_to(until_ns)
                return self.now
            event = events.pop()
            if monitor is not None:
                # Before advance_to: a time-disordered pop must be reported
                # as the scheduling bug it is, not as a clock error.
                monitor.on_event(self, event)
            advance_to(event.time_ns)
            event.callback(*event.args)
            if self._pending_failure is not None:
                _failed, exc = self._pending_failure
                self._pending_failure = None
                raise exc
        if check_deadlock:
            blocked = [p.name for p in self.processes
                       if p.alive and not getattr(p, "daemon", False)]
            if blocked:
                raise DeadlockError(blocked)
        if until_ns is not None and until_ns > self.now:
            self.clock.advance_to(until_ns)
        return self.now

    # ------------------------------------------------- engine internals

    def _dispatch(self, process: Process, request: Any) -> None:
        """Route a process's yielded request to the right subsystem."""
        if isinstance(request, Compute):
            process.state = ProcessState.RUNNABLE
            self.cpu.submit(process, request.ns)
        elif isinstance(request, Timeout):
            process.state = ProcessState.WAITING
            process._timeout_event = self.events.push(
                self.now + request.ns, self._resume, process, None)
        elif isinstance(request, Wait):
            completion = request.completion
            if completion._add_waiter(process):
                process.state = ProcessState.WAITING
                process._waiting_on = completion
            else:
                # Already fired: resume on a fresh event to keep FIFO order.
                self.events.push(self.now,
                                 self._resume, process, completion.value)
        elif isinstance(request, SpinWait):
            process.state = ProcessState.RUNNABLE
            self.cpu.spin(process, request.lock, request.ticket)
        else:
            raise SimulationError(
                f"process {process.name!r} yielded unknown request {request!r}")

    def _first_step(self, process: Process) -> None:
        """Run the first step of a freshly spawned process."""
        process.started_at_ns = self.now
        self._current_stack.append(process)
        try:
            process._step(None)
        finally:
            self._current_stack.pop()

    def interrupt(self, process: Process, exc: BaseException | None = None) -> None:
        """Deliver an :class:`~repro.sim.process.Interrupted` to a process.

        Takes effect at the process's next resume point: immediately for a
        process blocked on a ``Timeout`` or ``Wait`` (the pending wakeup is
        cancelled), at the end of its current slice for one on the CPU.
        ``finally`` blocks inside the generator run, so sim locks held
        across a ``yield`` are released.  Interrupting a finished process
        is a no-op.
        """
        from repro.sim.process import Interrupted

        if not process.alive:
            return
        process._pending_interrupt = exc if exc is not None else Interrupted()
        if process._timeout_event is not None:
            self.events.cancel(process._timeout_event)
            process._timeout_event = None
            self.events.push(self.now, self._resume, process, None)
        elif process._waiting_on is not None:
            completion = process._waiting_on
            if process in completion._waiters:
                completion._waiters.remove(process)
            process._waiting_on = None
            self.events.push(self.now, self._resume, process, None)
        # Else: on the CPU (queued or mid-slice); the pending interrupt is
        # delivered when the slice completes (see CPU._slice_done).

    def _resume(self, process: Process, value: Any) -> None:
        """Step ``process`` with ``value`` (engine/CPU/sync internal)."""
        if not process.alive:
            raise SimulationError(f"resume of finished process {process.name!r}")
        process._timeout_event = None
        process._waiting_on = None
        self._current_stack.append(process)
        try:
            process._step(value)
        finally:
            self._current_stack.pop()

    def _process_finished(self, process: Process) -> None:
        """Hook called when a process's generator returns."""

    def _process_failed(self, process: Process, exc: BaseException) -> None:
        """Hook called when a process raises; aborts the run loop."""
        if self._pending_failure is None:
            self._pending_failure = (process, exc)
