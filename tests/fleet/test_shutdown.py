"""Shutdown must always return: drain() and stop() never hang.

The supervisor parks in ``asyncio.wait_for(work_available.wait(), ...)``.
Shutting down right after work was signalled is the interleaving in which
Python < 3.12's ``wait_for`` swallows a ``cancel()`` (CPython gh-86296):
the inner wait has already completed when the cancel lands, so a
supervisor stopped by cancellation keeps looping and the shutdown that
awaits it never returns.  These tests drive that interleaving directly,
many times, with a bounded wait on every shutdown.
"""

import asyncio

import pytest

from repro.fleet import FleetService
from repro.fleet.resources import ResourcePolicy

ROUNDS = 100

#: Generous next to the milliseconds a shutdown of an idle service takes.
SHUTDOWN_TIMEOUT_S = 5.0


async def _signal_work_then(shutdown: str, yields: int) -> None:
    service = FleetService(port=0, policy=ResourcePolicy(min_workers=1,
                                                         max_workers=1))
    await service.start()
    # 0 yields: the supervisor has not run yet; 1: it is parked in
    # wait_for with the inner wait not yet started; 2: both are parked.
    for _ in range(yields):
        await asyncio.sleep(0)
    service._work_available.set()
    # asyncio.wait, not wait_for: a timed-out shutdown must be reported,
    # not cancelled (cancelling it would race the very bug under test).
    task = asyncio.ensure_future(getattr(service, shutdown)())
    done, _ = await asyncio.wait({task}, timeout=SHUTDOWN_TIMEOUT_S)
    assert task in done, (f"{shutdown}() still running after "
                          f"{SHUTDOWN_TIMEOUT_S} s")
    task.result()
    assert service._supervisor.done()


@pytest.mark.parametrize("shutdown", ["drain", "stop"])
def test_shutdown_right_after_a_work_signal_returns(shutdown):
    async def scenario():
        for round_ in range(ROUNDS):
            await _signal_work_then(shutdown, yields=round_ % 3)

    asyncio.run(scenario())
