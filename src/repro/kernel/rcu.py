"""The RCU synchronization subsystem: conventional vs boosted.

``synchronize_rcu`` waits for a grace period — until every CPU has passed
a quiescent state — and is called with extreme frequency during boot
(driver registration, namespace setup, security hooks).  The paper models
two implementations:

* **Algorithm 1 (conventional)**: the ticket-spinlock path.  A caller that
  finds the grace-period machinery busy *spins*, occupying a CPU core, and
  waits a full normal grace period.  Fine after boot (0-1 concurrent
  callers), terrible during boot.
* **Algorithm 2 (RCU Booster)**: memory barriers + a blocking mutex +
  forced quiescent states ("force all RCU readers onto task lists; do
  synchronized scheduling").  Waiters sleep — releasing their core to other
  boot work — and the forced-quiescent pass expedites the grace period, at
  the price of extra per-operation CPU (barriers, context switches).

The subsystem exposes a simulated *sysfs* knob
(:meth:`RCUSubsystem.write_sysfs`), which is how the user-space RCU Booster
Control of the Boot-up Engine enables boosting at init start and disables
it at boot completion (§3.2).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.errors import KernelError
from repro.quantities import msec, usec
from repro.sim.process import Compute, Timeout, Wait
from repro.sim.sync import Mutex, SpinLock

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.process import ProcessGenerator

#: Calibrated defaults of :class:`RCUSubsystem` (see its Args).
DEFAULT_GRACE_NS = msec(12)
DEFAULT_EXPEDITED_GRACE_NS = msec(1.5)
DEFAULT_CONVENTIONAL_OP_CPU_NS = usec(30)
DEFAULT_BOOSTED_OP_CPU_NS = usec(120)
DEFAULT_SPIN_SLICE_NS = 500_000


class RCUMode(enum.Enum):
    """Active ``synchronize_rcu`` implementation."""

    CONVENTIONAL = "conventional"  # Algorithm 1: ticket spinlock, spin wait
    BOOSTED = "boosted"  # Algorithm 2: mutex + expedited grace period


class RCUSubsystem:
    """Kernel RCU state shared by every simulated ``synchronize_rcu`` call.

    Args:
        engine: Owning simulator.
        grace_period_ns: Normal grace-period length (a few jiffies; 12 ms
            by default, HZ=100 class embedded kernel).
        expedited_grace_period_ns: Grace period under the boosted forced
            quiescent-state pass.
        conventional_op_cpu_ns: Per-call CPU cost of Algorithm 1 (RCU head
            init, wait-queue manipulation).
        boosted_op_cpu_ns: Per-call CPU cost of Algorithm 2 (memory
            barriers, snapshot comparison, forcing readers onto task
            lists) — deliberately larger, this is the §4.3 trade-off.
        spin_slice_ns: CPU burned per spin iteration in Algorithm 1.
    """

    SYSFS_PATH = "/sys/kernel/rcu_boost"

    def __init__(self, engine: "Simulator",
                 grace_period_ns: int = DEFAULT_GRACE_NS,
                 expedited_grace_period_ns: int = DEFAULT_EXPEDITED_GRACE_NS,
                 conventional_op_cpu_ns: int = DEFAULT_CONVENTIONAL_OP_CPU_NS,
                 boosted_op_cpu_ns: int = DEFAULT_BOOSTED_OP_CPU_NS,
                 spin_slice_ns: int = DEFAULT_SPIN_SLICE_NS,
                 reader_tracking: bool = False):
        if grace_period_ns <= 0 or expedited_grace_period_ns <= 0:
            raise KernelError("grace periods must be positive")
        if expedited_grace_period_ns > grace_period_ns:
            raise KernelError("expedited grace period cannot exceed the normal one")
        self._engine = engine
        self.mode = RCUMode.CONVENTIONAL
        self.grace_period_ns = grace_period_ns
        self.expedited_grace_period_ns = expedited_grace_period_ns
        self.conventional_op_cpu_ns = conventional_op_cpu_ns
        self.boosted_op_cpu_ns = boosted_op_cpu_ns
        self._wait_lock = SpinLock(engine, name="rcu.wait_lock",
                                   spin_slice_ns=spin_slice_ns)
        self._boost_mutex = Mutex(engine, name="rcu.boost_mutex")
        # Reader tracking (two-phase): with it on, a grace period waits
        # until the readers that existed at its start have all exited —
        # McKenney's actual semantics — instead of a fixed duration.  The
        # fixed-duration model is the calibrated default (DESIGN S4 #1).
        self.reader_tracking = reader_tracking
        self._phase = 0
        self._reader_counts = [0, 0]
        self._drain_waiters: list = [None, None]  # Completion per phase
        # Statistics for the evaluation harness.
        self.sync_count = 0
        self.total_sync_wall_ns = 0
        self.mode_switches = 0
        self.reader_sections = 0

    # ------------------------------------------------------------- controls

    def set_mode(self, mode: RCUMode) -> None:
        """Switch the active algorithm (kernel-internal interface)."""
        if mode is not self.mode:
            self.mode = mode
            self.mode_switches += 1

    def write_sysfs(self, value: str) -> None:
        """The user-space control interface (§3.2, via sysfs [37]).

        Accepts ``"1"``/``"0"`` exactly as a real sysfs boolean attribute.

        Raises:
            KernelError: On any other value.
        """
        if value == "1":
            self.set_mode(RCUMode.BOOSTED)
        elif value == "0":
            self.set_mode(RCUMode.CONVENTIONAL)
        else:
            raise KernelError(f"invalid write to {self.SYSFS_PATH}: {value!r}")

    def read_sysfs(self) -> str:
        """Current sysfs value (``"1"`` when boosted)."""
        return "1" if self.mode is RCUMode.BOOSTED else "0"

    @property
    def spin_time_ns(self) -> int:
        """Total CPU burned spinning in Algorithm 1 so far."""
        return self._wait_lock.spin_time_ns

    # ------------------------------------------------------------ operation

    def synchronize_rcu(self) -> "ProcessGenerator":
        """Generator: one ``synchronize_rcu`` call under the current mode.

        The mode is sampled at call entry, as in the real implementation
        where the boosted path is patched in behind a static branch.
        """
        start = self._engine.now
        self.sync_count += 1
        if self.mode is RCUMode.BOOSTED:
            yield from self._synchronize_boosted()
        else:
            yield from self._synchronize_conventional()
        self.total_sync_wall_ns += self._engine.now - start

    def _synchronize_conventional(self) -> "ProcessGenerator":
        # Algorithm 1: init RCU head, join the wait queue, spin on the
        # wait-lock (burning a core) until the grace period elapses.
        yield Compute(self.conventional_op_cpu_ns)
        yield from self._wait_lock.acquire()
        try:
            yield from self._grace_period(self.grace_period_ns)
        finally:
            self._wait_lock.release()

    def _synchronize_boosted(self) -> "ProcessGenerator":
        # Algorithm 2: barriers + snapshot, blocking mutex (sleep, not
        # spin), forced quiescent states expedite the grace period.
        yield Compute(self.boosted_op_cpu_ns)
        yield from self._boost_mutex.acquire()
        try:
            yield from self._grace_period(self.expedited_grace_period_ns)
        finally:
            self._boost_mutex.release()

    def _grace_period(self, floor_ns: int) -> "ProcessGenerator":
        """One grace period under the active model.

        Fixed model: a constant wait (jiffy-based quiescent detection,
        calibrated).  Reader-tracking model: flip the phase and wait for
        every reader of the *old* phase to exit — readers arriving after
        the flip never extend this grace period — plus the detection
        floor.
        """
        if not self.reader_tracking:
            yield Timeout(floor_ns)
            return
        old_phase = self._phase
        self._phase ^= 1
        if self._reader_counts[old_phase] > 0:
            drain = self._engine.completion(f"rcu.drain.{old_phase}")
            self._drain_waiters[old_phase] = drain
            yield Wait(drain)
            self._drain_waiters[old_phase] = None
        yield Timeout(floor_ns)

    # ----------------------------------------------------------- read side

    def read_lock(self) -> int:
        """Enter a read-side critical section; returns the phase token."""
        phase = self._phase
        self._reader_counts[phase] += 1
        self.reader_sections += 1
        return phase

    def read_unlock(self, token: int) -> None:
        """Exit a read-side critical section entered with ``token``.

        Raises:
            KernelError: On unbalanced unlock.
        """
        if self._reader_counts[token] <= 0:
            raise KernelError("rcu_read_unlock without a matching lock")
        self._reader_counts[token] -= 1
        drain = self._drain_waiters[token]
        if self._reader_counts[token] == 0 and drain is not None:
            drain.fire(None)

    @property
    def active_readers(self) -> int:
        """Readers currently inside a read-side critical section."""
        return sum(self._reader_counts)

    def __repr__(self) -> str:
        return (f"RCUSubsystem(mode={self.mode.value}, syncs={self.sync_count}, "
                f"spin_ms={self.spin_time_ns / 1e6:.1f})")
