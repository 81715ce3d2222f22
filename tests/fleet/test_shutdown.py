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

from repro.fleet import FleetClient, FleetService
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


def test_draining_service_refuses_connections_with_a_batch_in_flight():
    """Drain closes the listener even though a shard child, forked while
    it was open, is still running a batch: a new client is refused, not
    parked in a backlog nobody accepts from."""
    specs = [{"kind": "boot", "workload": "tv-commercial", "bb": "none",
              "cores": 4, "fault": {"preset": "flaky-services", "seed": seed}}
             for seed in range(4)]
    # A first, finished batch proves the shard child has been forked and
    # set up, so the refusal below cannot race the child's start-up.
    warm_up = [dict(specs[0], fault={"preset": "flaky-services", "seed": 99})]

    async def scenario():
        service = FleetService(port=0, batch_size=len(specs),
                               policy=ResourcePolicy(min_workers=1,
                                                     max_workers=1))
        host, port = await service.start()
        try:
            async with FleetClient(host, port) as client:
                assert (await client.submit(warm_up)).ok
                submission = asyncio.ensure_future(client.submit(specs))
                while not service._batch_tasks:
                    await asyncio.sleep(0.005)
                drain = asyncio.ensure_future(service.drain())
                while not service.draining:
                    await asyncio.sleep(0)
                assert service._batch_tasks, "the batch finished too soon"
                with pytest.raises(ConnectionRefusedError):
                    _, writer = await asyncio.open_connection(host, port)
                    writer.close()
                outcome = await asyncio.wait_for(submission, 60)
            await asyncio.wait_for(drain, SHUTDOWN_TIMEOUT_S)
        finally:
            if not service._drained.is_set():
                await service.stop()
        return outcome

    outcome = asyncio.run(scenario())
    assert outcome.ok and outcome.total == len(specs)
