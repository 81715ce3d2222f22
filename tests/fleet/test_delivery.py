"""The service's delivery path and the submission tracker behind it.

A live submission streams ``progress`` frames at ``PROGRESS_STEPS``
granularity and ends with ``done``; a journal-resumed submission is
delivered through the same tracker with no stream attached and shows up
in the journal section of ``status()``.  Results reach a connection in
submission order even when flushes overlap, and a shard handed a batch
is never retired before that batch runs.
"""

import asyncio
import json

from repro.fleet import FleetClient, FleetService
from repro.fleet.journal import JobJournal
from repro.fleet.protocol import job_from_spec, submission_key
from repro.fleet.resources import ResourcePolicy
from repro.fleet.service import PROGRESS_STEPS, _Connection, _Submission


def _spec(seed, repeat):
    return {"kind": "boot", "workload": "tv", "bb": "full", "repeat": repeat,
            "fault": {"preset": "flaky-services", "seed": seed}}


async def _with_service(scenario, **service_kwargs):
    service = FleetService(port=0, policy=ResourcePolicy(min_workers=1,
                                                         max_workers=1),
                           **service_kwargs)
    host, port = await service.start()
    try:
        return await scenario(service, host, port)
    finally:
        await service.drain()


def test_progress_and_done_frames_of_one_submission():
    specs = [_spec(seed=0, repeat=30), _spec(seed=1, repeat=15)]
    total = 45

    async def scenario(service, host, port):
        async with FleetClient(host, port) as client:
            return [event async for event in client.stream(specs,
                                                           sid="multi")]

    events = asyncio.run(_with_service(scenario))
    assert events[0] == {"event": "ack", "id": "multi", "jobs": total}
    assert all(event["id"] == "multi" for event in events)

    step = max(1, total // PROGRESS_STEPS)
    results_seen = 0
    progress = []
    for event in events[1:-1]:
        if event["event"] == "result":
            assert event["index"] == results_seen
            results_seen += 1
        else:
            assert event["event"] == "progress"
            assert event["total"] == total
            assert event["done"] == results_seen  # sent right after it
            progress.append(event["done"])
    assert results_seen == total
    assert progress == list(range(step, total, step))

    done = events[-1]
    assert done["event"] == "done" and done["total"] == total
    assert isinstance(done["elapsed_s"], float) and done["elapsed_s"] >= 0


def test_resumed_submission_reports_in_status(tmp_path):
    journal_dir = tmp_path / "journal"
    specs = [_spec(seed=0, repeat=3), _spec(seed=1, repeat=2)]
    staged = JobJournal(journal_dir)
    staged.record_submit(submission_key("sub-crashed", specs, 0),
                         "sub-crashed", specs, 0)
    staged.close()

    async def scenario(service, host, port):
        before = service.status()["journal"]
        for _ in range(1000):
            if service.resumed_done == 1:
                break
            await asyncio.sleep(0.02)
        return before, service.status()["journal"], service.journal.depth

    before, after, depth = asyncio.run(_with_service(
        scenario, journal_dir=str(journal_dir)))
    assert (before["resumed"], before["resumed_done"],
            before["resuming"]) == (1, 0, 1)
    assert (after["resumed"], after["resumed_done"],
            after["resuming"]) == (1, 1, 0)
    assert depth == 0  # the resumed submission journaled its own done


class _SlowWriter:
    """A stream whose every flush yields to the event loop once."""

    def __init__(self):
        self.frames = []
        self.transport = None

    def write(self, data):
        self.frames.append(json.loads(data))

    async def drain(self):
        await asyncio.sleep(0)

    def close(self):
        pass


class _Job:
    def __init__(self, fingerprint):
        self._fingerprint = fingerprint

    def fingerprint(self):
        return self._fingerprint


def test_overlapping_flushes_keep_submission_order():
    # A flush suspended on a slow stream must not be overtaken by a
    # later flush of the same connection.
    async def scenario():
        service = FleetService(port=0, policy=ResourcePolicy(min_workers=1,
                                                             max_workers=1))
        writer = _SlowWriter()
        connection = _Connection("conn-0", writer)
        service._connections[connection.key] = connection
        jobs = [_Job("f1")] * 3 + [_Job("f2")] * 3
        service._enqueue(connection, _Submission("s", len(jobs)), jobs, 0)
        service.scheduler.next_batch(2)
        first = asyncio.ensure_future(service._flush_clients(
            service.scheduler.complete("f1", "r1")))
        await asyncio.sleep(0)  # the first flush is parked in drain()
        await service._flush_clients(service.scheduler.complete("f2", "r2"))
        await first
        service.pool.shutdown(wait=False)
        return writer.frames

    frames = asyncio.run(scenario())
    assert [frame["index"] for frame in frames
            if frame["event"] == "result"] == list(range(6))
    assert frames[-1]["event"] == "done"


def test_dispatched_shards_are_busy_before_their_batches_start():
    # The supervisor autoscales right after it dispatches, before any
    # batch task has run: a shard that looked idle then would be retired
    # under its batch, which fails with "cannot schedule new futures
    # after shutdown" and, three times over, quarantines healthy jobs.
    async def scenario():
        service = FleetService(port=0, batch_size=1,
                               policy=ResourcePolicy(min_workers=1,
                                                     max_workers=2))
        service.pool.scale_to(2)
        for seed in range(2):
            job, _ = job_from_spec(_spec(seed=seed, repeat=1))
            service.scheduler.submit("conn-0", job)
        service._dispatch()
        idle = len(service.pool.idle_shards())
        size = service.pool.scale_to(1)  # a scale-down pass
        await asyncio.gather(*service._batch_tasks)
        service.pool.shutdown(wait=True)
        return idle, size, service.scheduler.stats

    idle, size, stats = asyncio.run(scenario())
    assert idle == 0
    assert size == 2  # nothing idle to retire
    assert stats.completed == 2 and stats.failed == 0
    assert stats.requeued == 0
