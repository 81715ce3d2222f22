"""Tests for sync primitives — especially the spin-vs-sleep core behaviour
that underlies the paper's RCU Booster result."""

import pytest

from repro.errors import SimulationError
from repro.quantities import msec
from repro.sim import Completion, Compute, Mutex, Semaphore, Simulator, SpinLock, Timeout, Wait
from repro.sim.sync import PriorityMutex, wait_all


# ---------------------------------------------------------------- Completion

def test_completion_wakes_all_waiters_with_value():
    sim = Simulator()
    completion = sim.completion("gate")
    results = []

    def waiter(n):
        value = yield Wait(completion)
        results.append((n, value))

    for n in range(3):
        sim.spawn(waiter(n), name=f"waiter{n}")
    sim.call_after(msec(5), lambda: completion.fire("go"))
    sim.run()
    assert results == [(0, "go"), (1, "go"), (2, "go")]


def test_completion_double_fire_rejected():
    sim = Simulator()
    completion = sim.completion()
    completion.fire()
    with pytest.raises(SimulationError):
        completion.fire()


def test_completion_wait_helper_returns_value():
    sim = Simulator()
    completion = sim.completion()

    def waiter():
        value = yield from completion.wait()
        return value

    process = sim.spawn(waiter(), name="w")
    sim.call_after(1, lambda: completion.fire(123))
    sim.run()
    assert process.result == 123


def test_wait_all_waits_for_every_completion():
    sim = Simulator()
    gates = [sim.completion(f"g{n}") for n in range(3)]
    done_at = []

    def waiter():
        yield from wait_all(sim, gates)
        done_at.append(sim.now)

    sim.spawn(waiter(), name="w")
    sim.call_after(msec(1), lambda: gates[2].fire())
    sim.call_after(msec(3), lambda: gates[0].fire())
    sim.call_after(msec(2), lambda: gates[1].fire())
    sim.run()
    assert done_at == [msec(3)]


# --------------------------------------------------------------------- Mutex

def test_mutex_serializes_critical_sections():
    sim = Simulator(cores=4, switch_cost_ns=0)
    mutex = Mutex(sim, wake_cost_ns=0)
    in_section = [0]
    max_in_section = [0]

    def worker():
        yield from mutex.acquire()
        in_section[0] += 1
        max_in_section[0] = max(max_in_section[0], in_section[0])
        yield Timeout(msec(2))
        in_section[0] -= 1
        mutex.release()

    for n in range(5):
        sim.spawn(worker(), name=f"w{n}")
    sim.run()
    assert max_in_section[0] == 1
    assert sim.now == msec(10)


def test_mutex_waiters_do_not_burn_cpu():
    # 4 cores, 1 holder sleeping 10 ms, 3 waiters: CPU stays idle while
    # they sleep on the mutex.
    sim = Simulator(cores=4, switch_cost_ns=0)
    mutex = Mutex(sim, wake_cost_ns=0)

    def worker():
        yield from mutex.acquire()
        yield Timeout(msec(10))
        mutex.release()

    for n in range(4):
        sim.spawn(worker(), name=f"w{n}")
    sim.run()
    assert sim.cpu.stats.busy_ns == 0


def test_mutex_is_fifo():
    sim = Simulator(cores=4, switch_cost_ns=0)
    mutex = Mutex(sim, wake_cost_ns=0)
    order = []

    def worker(n):
        yield Timeout(n)  # stagger arrival: 0, 1, 2, ...
        yield from mutex.acquire()
        order.append(n)
        yield Timeout(msec(1))
        mutex.release()

    for n in range(4):
        sim.spawn(worker(n), name=f"w{n}")
    sim.run()
    assert order == [0, 1, 2, 3]


def test_mutex_wake_cost_is_charged_to_waiter():
    sim = Simulator(cores=1, switch_cost_ns=0)
    mutex = Mutex(sim, wake_cost_ns=5_000)

    def holder():
        yield from mutex.acquire()
        yield Timeout(msec(1))
        mutex.release()

    def waiter():
        yield from mutex.acquire()
        mutex.release()

    sim.spawn(holder(), name="holder")
    waiter_process = sim.spawn(waiter(), name="waiter")
    sim.run()
    assert waiter_process.cpu_time_ns == 5_000
    assert mutex.contended_acquires == 1
    assert mutex.total_acquires == 2


def test_mutex_release_unlocked_rejected():
    sim = Simulator()
    mutex = Mutex(sim)
    with pytest.raises(SimulationError):
        mutex.release()


def test_mutex_acquire_outside_process_rejected():
    sim = Simulator()
    mutex = Mutex(sim)
    with pytest.raises(SimulationError):
        # Drive the generator by hand outside any process context.
        list(mutex.acquire())


# ------------------------------------------------------------------ SpinLock

def test_spinlock_serializes():
    sim = Simulator(cores=4, switch_cost_ns=0)
    lock = SpinLock(sim, acquire_cost_ns=0)
    concurrent = [0]
    worst = [0]

    def worker():
        yield from lock.acquire()
        concurrent[0] += 1
        worst[0] = max(worst[0], concurrent[0])
        yield Timeout(msec(1))
        concurrent[0] -= 1
        lock.release()

    for n in range(4):
        sim.spawn(worker(), name=f"w{n}")
    sim.run()
    assert worst[0] == 1


def test_spinlock_waiters_burn_cpu_while_mutex_waiters_sleep():
    """The core claim behind RCU Booster, as a property of the primitives:
    under contention, spin waiters consume core time that mutex waiters
    leave free for other work."""

    def run(lock_kind):
        sim = Simulator(cores=4, switch_cost_ns=0)
        if lock_kind == "spin":
            lock = SpinLock(sim, acquire_cost_ns=0, spin_slice_ns=50_000)
        else:
            lock = Mutex(sim, wake_cost_ns=0)

        def worker():
            yield from lock.acquire()
            yield Timeout(msec(5))  # critical section is a pure wait
            lock.release()

        for n in range(4):
            sim.spawn(worker(), name=f"w{n}")
        sim.run()
        return sim.cpu.stats.busy_ns

    spin_busy = run("spin")
    mutex_busy = run("mutex")
    assert mutex_busy == 0
    # Three waiters spin for ~5/10/15 ms: the burn is macroscopic.
    assert spin_busy >= msec(25)


def test_spinlock_burn_delays_other_runnable_work():
    """On a single core, a spinning waiter starves an innocent task;
    a sleeping waiter does not."""

    def innocent_finish_time(lock_kind):
        sim = Simulator(cores=1, switch_cost_ns=0, quantum_ns=msec(1))
        if lock_kind == "spin":
            lock = SpinLock(sim, acquire_cost_ns=0, spin_slice_ns=msec(1))
        else:
            lock = Mutex(sim, wake_cost_ns=0)
        finish = {}

        def holder():
            yield from lock.acquire()
            yield Timeout(msec(20))
            lock.release()

        def contender():
            yield Timeout(1)
            yield from lock.acquire()
            lock.release()

        def innocent():
            yield Timeout(2)
            yield Compute(msec(10))
            finish["innocent"] = sim.now

        sim.spawn(holder(), name="holder")
        sim.spawn(contender(), name="contender")
        sim.spawn(innocent(), name="innocent")
        sim.run()
        return finish["innocent"]

    fast = innocent_finish_time("mutex")
    slow = innocent_finish_time("spin")
    # Under the mutex the innocent task has the core to itself (~10 ms);
    # under the spinlock it time-shares with the spinner (~19-20 ms).
    assert fast < slow
    assert slow >= msec(18)


def test_spinlock_is_fifo_by_ticket():
    sim = Simulator(cores=8, switch_cost_ns=0)
    lock = SpinLock(sim, acquire_cost_ns=0, spin_slice_ns=10_000)
    order = []

    def worker(n):
        yield Timeout(n)
        yield from lock.acquire()
        order.append(n)
        yield Timeout(msec(1))
        lock.release()

    for n in range(4):
        sim.spawn(worker(n), name=f"w{n}")
    sim.run()
    assert order == [0, 1, 2, 3]


def test_spinlock_interrupted_mid_slice():
    """An interrupt lands in the middle of a spin slice: the slice runs to
    its end and counts as CPU time, but not as spin time, and the next
    ticket still gets the lock."""
    sim = Simulator(cores=2, switch_cost_ns=0)
    lock = SpinLock(sim, acquire_cost_ns=0, spin_slice_ns=msec(1))
    order = []
    sampled = {}

    def worker(name, delay, hold):
        yield Timeout(delay)
        yield from lock.acquire()
        order.append((name, sim.now))
        yield Timeout(hold)
        lock.release()

    def sample():
        sampled["spin"] = lock.spin_time_ns
        sampled["cpu"] = victim.cpu_time_ns
        sampled["busy"] = sim.cpu.stats.busy_ns

    sim.spawn(worker("holder", 0, msec(10)), name="holder")
    victim = sim.spawn(worker("victim", 1, 0), name="victim")
    sim.spawn(worker("third", 6_500_000, 0), name="third")
    sim.call_at(5_500_000, lambda: sim.interrupt(victim))
    sim.call_at(6_250_000, sample)
    sim.run()
    # Five whole spins, then the slice that was running at 5.5 ms.
    assert sampled == {"spin": msec(5), "cpu": msec(6), "busy": msec(6)}
    assert victim.finished_at_ns == msec(6) + 1
    assert victim.cpu_time_ns == msec(6)
    assert order == [("holder", 0), ("third", 10_500_000)]
    assert lock.spin_time_ns == msec(9)
    assert not lock._tickets
    stats = sim.cpu.stats
    assert (stats.busy_ns, stats.switch_ns, stats.dispatches,
            stats.peak_runnable) == (msec(10), 0, 10, 1)


def test_spinlock_slice_longer_than_quantum():
    """A spin longer than the quantum is split into quanta that time-share
    with other work; spin time grows once per completed spin."""
    sim = Simulator(cores=1, switch_cost_ns=1_000, quantum_ns=msec(1))
    lock = SpinLock(sim, acquire_cost_ns=0, spin_slice_ns=2_500_000)
    order = []

    def holder():
        yield from lock.acquire()
        yield Timeout(msec(6))
        lock.release()

    def spinner():
        yield Timeout(1)
        yield from lock.acquire()
        order.append(("spinner", sim.now))
        lock.release()

    def other():
        yield Timeout(2)
        yield Compute(msec(3))
        order.append(("other", sim.now))

    sim.spawn(holder(), name="holder")
    spinning = sim.spawn(spinner(), name="spinner")
    sim.spawn(other(), name="other")
    sim.run()
    assert order == [("other", 5_506_001), ("spinner", 8_009_001)]
    # Two whole spins of 2.5 ms, each dispatched as 1 + 1 + 0.5 ms.
    assert lock.spin_time_ns == spinning.cpu_time_ns == 5_000_000
    stats = sim.cpu.stats
    assert (stats.busy_ns, stats.switch_ns, stats.dispatches,
            stats.peak_runnable) == (msec(8), 9_000, 9, 2)


def test_spinlock_priority_boost_takes_effect_at_slice_boundary():
    """Boosting a spinner's priority does not move the run-queue entry it
    already holds; the new priority applies from its next slice end on."""

    def run(boost):
        sim = Simulator(cores=1, switch_cost_ns=0, quantum_ns=msec(1))
        lock = SpinLock(sim, acquire_cost_ns=0, spin_slice_ns=msec(1))
        done = {}
        innocent_cpu = []

        def holder():
            yield from lock.acquire()
            yield Timeout(msec(20))
            lock.release()

        def spinner():
            yield Timeout(1)
            yield from lock.acquire()
            done["spinner"] = sim.now
            lock.release()

        def innocent():
            yield Timeout(2)
            yield Compute(msec(10))
            done["innocent"] = sim.now

        def boost_spinner():
            spinning.priority = 0

        sim.spawn(holder(), name="holder")
        spinning = sim.spawn(spinner(), name="spinner")
        victim = sim.spawn(innocent(), name="innocent")
        if boost:
            sim.call_at(5_250_000, boost_spinner)
        for at in (7_500_000, 19_500_000):
            sim.call_at(at, lambda: innocent_cpu.append(victim.cpu_time_ns))
        sim.run()
        stats = sim.cpu.stats
        return (done, innocent_cpu, lock.spin_time_ns, stats.dispatches,
                stats.peak_runnable)

    assert run(False) == ({"innocent": 20_000_001, "spinner": 21_000_001},
                          [msec(3), msec(9)], msec(11), 21, 2)
    # Boosted at 5.25 ms while queued: the innocent task keeps its turn
    # (5-6 ms), the spinner's queued entry its old place (6-7 ms); from
    # the spinner's 7 ms slice end on it holds the core until 20 ms.
    assert run(True) == ({"spinner": 20_000_001, "innocent": 27_000_001},
                         [msec(3), msec(3)], msec(17), 27, 2)


def test_spinlock_try_acquire():
    sim = Simulator()
    lock = SpinLock(sim)
    assert lock.try_acquire()
    assert not lock.try_acquire()
    lock.release()
    assert lock.try_acquire()


def test_spinlock_release_unlocked_rejected():
    sim = Simulator()
    lock = SpinLock(sim)
    with pytest.raises(SimulationError):
        lock.release()


def test_spinlock_invalid_slice_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        SpinLock(sim, spin_slice_ns=0)


# ------------------------------------------------------------- PriorityMutex

def test_priority_mutex_serves_highest_priority_waiter_first():
    sim = Simulator(cores=8, switch_cost_ns=0)
    lock = PriorityMutex(sim, wake_cost_ns=0)
    order = []

    def worker(name, priority_delay):
        yield Timeout(priority_delay)
        yield from lock.acquire()
        order.append(name)
        yield Timeout(msec(5))
        lock.release()

    # Holder takes the lock at t=0; low/high queue behind it.
    sim.spawn(worker("holder", 0), name="holder", priority=100)
    sim.spawn(worker("low", 1), name="low", priority=200)
    sim.spawn(worker("high", 2), name="high", priority=10)
    sim.run()
    assert order == ["holder", "high", "low"]


def test_priority_mutex_fifo_within_priority():
    sim = Simulator(cores=8, switch_cost_ns=0)
    lock = PriorityMutex(sim, wake_cost_ns=0)
    order = []

    def worker(n):
        yield Timeout(n)
        yield from lock.acquire()
        order.append(n)
        yield Timeout(msec(1))
        lock.release()

    for n in range(4):
        sim.spawn(worker(n), name=f"w{n}", priority=100)
    sim.run()
    assert order == [0, 1, 2, 3]


def test_priority_mutex_samples_priority_at_release():
    """A boost applied while waiting still wins the next grant."""
    sim = Simulator(cores=8, switch_cost_ns=0)
    lock = PriorityMutex(sim, wake_cost_ns=0)
    order = []

    def holder():
        yield from lock.acquire()
        yield Timeout(msec(10))
        lock.release()

    def waiter(name):
        yield Timeout(1)
        yield from lock.acquire()
        order.append(name)
        lock.release()

    sim.spawn(holder(), name="holder")
    sim.spawn(waiter("first"), name="first", priority=100)
    late = sim.spawn(waiter("second"), name="second", priority=100)
    # Boost the second waiter while it is queued.
    sim.call_after(msec(5), lambda: setattr(late, "priority", 1))
    sim.run()
    assert order == ["second", "first"]


def test_priority_mutex_release_unlocked_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        PriorityMutex(sim).release()


def test_priority_mutex_acquire_outside_process_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        list(PriorityMutex(sim).acquire())


# ----------------------------------------------------------------- Semaphore

def test_semaphore_limits_concurrency():
    sim = Simulator(cores=8, switch_cost_ns=0)
    sem = Semaphore(sim, count=2)
    concurrent = [0]
    worst = [0]

    def worker():
        yield from sem.acquire()
        concurrent[0] += 1
        worst[0] = max(worst[0], concurrent[0])
        yield Timeout(msec(1))
        concurrent[0] -= 1
        sem.release()

    for n in range(6):
        sim.spawn(worker(), name=f"w{n}")
    sim.run()
    assert worst[0] == 2
    assert sim.now == msec(3)


def test_semaphore_negative_count_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Semaphore(sim, count=-1)


def test_semaphore_release_without_waiters_increments():
    sim = Simulator()
    sem = Semaphore(sim, count=0)
    sem.release()
    assert sem.count == 1
