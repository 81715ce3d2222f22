"""The fleet boot service: a long-running asyncio TCP/JSON-lines server.

``FleetService`` glues the three tiers together:

* the **scheduler** (:class:`~repro.runner.schedule.JobScheduler`) —
  priority queues, single-flight dedup on top of the
  :class:`~repro.runner.cache.ResultCache`, fair-share across connected
  clients, per-client submission-order delivery;
* the **worker pool** (:class:`~repro.fleet.workers.WorkerPool`) —
  resource-sampled shards that run batches through ordinary
  :class:`~repro.runner.sweep.SweepRunner`\\ s, auto-scaled between the
  policy bounds;
* the **front-end** — one asyncio server speaking the
  :mod:`repro.fleet.protocol` frames, streaming each job's result the
  moment its submission-order turn comes up instead of returning one
  blob at the end.

Graceful drain: ``SIGTERM``/``SIGINT`` (or an ``op: drain`` frame) stops
new submissions, lets in-flight batches finish, flushes every stream,
then closes.  Nothing is orphaned: shard executors are shut down with
``wait=True`` on the drain path.

Durability (``journal_dir``): every submission is appended to the
write-ahead :class:`~repro.fleet.journal.JobJournal` *before* it is
acked, and marked done only after its last result is handed to the
delivery path — so a SIGKILL'd service, restarted on the same journal,
resubmits exactly the submissions whose acks it had issued but whose
results it had not finished.  Recovery is deterministic because jobs are
content-fingerprinted: a resumed fingerprint re-runs (or cache-hits) to
byte-identical results.

Degradation: a shard that dies mid-batch is replaced wholesale and its
batch is requeued under a bounded per-fingerprint retry budget
(``max_job_retries``); a job that keeps killing its shards is
quarantined with a diagnosis and answered as an error instead of
wedging the pool.  The deterministic chaos seam
(:class:`~repro.faults.fleet.FleetFaultPlan`) drives all of this from
the ``fleet-crash`` verify group.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import time
from typing import Any

from repro.canonical import canonical_bytes
from repro.faults.fleet import FleetFaultInjector, FleetFaultPlan
from repro.fleet import protocol
from repro.fleet.journal import DEFAULT_CHECKPOINT_EVERY, JobJournal
from repro.fleet.resources import ResourcePolicy
from repro.fleet.workers import WorkerPool
from repro.runner.cache import ResultCache
from repro.runner.schedule import JobScheduler, Ticket

#: How many jobs one shard batch may carry.  Batches amortize the
#: child-process pickle round-trip and give the branch runner prefix
#: groups to share; small enough that results still stream promptly.
DEFAULT_BATCH_SIZE = 16

#: Emit a ``progress`` frame roughly this many times per submission.
PROGRESS_STEPS = 20


class _Submission:
    """Book-keeping for one submission: an ``op: submit`` frame on a
    connection, or a journal entry resumed after a restart."""

    __slots__ = ("sid", "total", "delivered", "started", "next_progress",
                 "journal_key")

    def __init__(self, sid: str, total: int,
                 journal_key: str | None = None):
        self.sid = sid
        self.total = total
        self.delivered = 0
        self.started = time.perf_counter()
        self.next_progress = max(1, total // PROGRESS_STEPS)
        self.journal_key = journal_key


class _Connection:
    """One client connection: its stream, submissions, and payload memory.

    A journal-resumed submission rides a connection without a stream
    (``writer=None``): it is delivered through the same path, and its
    frames go nowhere.
    """

    def __init__(self, key: str, writer: asyncio.StreamWriter | None,
                 chaos: FleetFaultInjector | None = None, index: int = 0):
        self.key = key
        self.writer = writer
        self.submissions: dict[str, _Submission] = {}
        self.ticket_meta: dict[int, tuple[str, int]] = {}  # id -> (sid, index)
        self.sent_payloads: set[str] = set()
        self.delivering = asyncio.Lock()
        self.closed = writer is None
        self.chaos = chaos
        self.index = index
        self.frames_sent = 0

    async def send(self, message: dict[str, Any]) -> None:
        if self.closed:
            return
        if (self.chaos is not None
                and self.chaos.drop_connection(self.index,
                                               self.frames_sent + 1)):
            # Chaos: cut the link abruptly (RST, not a graceful FIN) —
            # the client must recover via timeout/backoff/resubmission.
            self.closed = True
            transport = self.writer.transport
            if transport is not None:
                transport.abort()
            return
        self.frames_sent += 1
        try:
            self.writer.write(protocol.encode_frame(message))
            await self.writer.drain()
        except (ConnectionError, RuntimeError):
            self.closed = True


class FleetService:
    """The async boot service.  Use programmatically::

        service = FleetService(port=0)
        await service.start()          # service.address is (host, port)
        ...
        await service.drain()          # graceful: finish, flush, close

    or from the CLI as ``repro fleet serve``.

    Args:
        host/port: Bind address; port 0 picks an ephemeral port.
        policy: Worker-pool bounds and resource brakes.
        cache_dir: Content-addressed result store shared by the service
            front cache and every shard (optional).
        cache_max_bytes: LRU cap for the disk store (optional).
        branch: Checkpoint/fork-branch prefix-sharing groups inside
            shard batches.
        batch_size: Jobs per shard batch.
        sample_interval: Seconds between autoscale/sampling passes.
        journal_dir: Write-ahead journal directory; ``None`` disables
            durability (the pre-journal behaviour).
        journal_checkpoint_every: Journal appends between compactions.
        max_job_retries: Requeues a fingerprint gets after shard crashes
            before it is quarantined.
        chaos: Deterministic service-fault plan (testing only).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 policy: ResourcePolicy | None = None,
                 cache_dir: str | None = None,
                 cache_max_bytes: int | None = None,
                 branch: bool = False,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 sample_interval: float = 0.5,
                 journal_dir: str | None = None,
                 journal_checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
                 max_job_retries: int = 2,
                 chaos: FleetFaultPlan | None = None):
        self.host = host
        self.port = port
        self.policy = policy if policy is not None else ResourcePolicy()
        self.cache_dir = cache_dir
        self.branch = branch
        self.batch_size = max(1, batch_size)
        self.sample_interval = sample_interval
        self.scheduler = JobScheduler(
            cache=ResultCache(cache_dir, max_bytes=cache_max_bytes))
        self.pool = WorkerPool(self.policy, cache_dir=cache_dir,
                               branch=branch)
        self.chaos = chaos
        self._chaos = chaos.compile() if chaos is not None else None
        self.journal: JobJournal | None = None
        if journal_dir is not None:
            self.journal = JobJournal(
                journal_dir, checkpoint_every=journal_checkpoint_every,
                crash_after_append=(chaos.crash_at_journal_offset
                                    if chaos is not None else None))
        self.max_job_retries = max(0, max_job_retries)
        self.quarantined: dict[str, str] = {}  # fingerprint -> diagnosis
        self.resumed_total = 0
        self.resumed_done = 0
        self._retry_counts: dict[str, int] = {}
        self._resumed: dict[str, _Connection] = {}
        self._journal_refs: dict[str, int] = {}
        self._batches_dispatched = 0
        self.draining = False
        self.started_at = time.monotonic()
        self.address: tuple[str, int] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._supervisor: asyncio.Task | None = None
        self._stopping = False
        self._batch_tasks: set[asyncio.Task] = set()
        self._client_tasks: set[asyncio.Task] = set()
        self._connections: dict[str, _Connection] = {}
        self._next_conn = 0
        self._work_available = asyncio.Event()
        self._drained = asyncio.Event()

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> tuple[str, int]:
        """Bind, start the supervisor, resume journaled work, return
        the actual address."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port,
            limit=protocol.MAX_FRAME_BYTES)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        self._supervisor = asyncio.create_task(self._supervise())
        await self._resume_journal()
        return self.address

    async def _resume_journal(self) -> None:
        """Resubmit every submission the journal says never finished.

        Each open record is replayed on a stream-less ``journal:``
        connection — results are re-executed (or cache-hit) and delivered
        nowhere, and the record is marked done only once every ticket
        resolves, so another crash mid-recovery just resumes again.
        Sorted keys keep recovery order deterministic.
        """
        if self.journal is None:
            return
        for key in sorted(self.journal.open_submissions):
            record = self.journal.open_submissions[key]
            specs = record.get("specs")
            priority = record.get("priority", 0)
            if not isinstance(priority, int):
                priority = 0
            jobs: list[Any] = []
            try:
                for spec in (specs if isinstance(specs, list) else []):
                    job, repeat = protocol.job_from_spec(spec)
                    jobs.extend([job] * repeat)
            except protocol.ProtocolError:
                jobs = []  # the registry changed under the journal
            if not jobs:
                self.journal.record_done(key)
                continue
            connection = _Connection(f"journal:{key}", writer=None)
            self._resumed[connection.key] = connection
            self._journal_retain(key)
            self.resumed_total += 1
            self._enqueue(connection, _Submission(key, len(jobs), key),
                          jobs, priority)
            await self._deliver(connection)  # cache hits resolve instantly
        self._work_available.set()

    # Two submissions can share one journal content key — identical
    # (sid, specs, priority) triples from different connections collapse
    # to the same hash, and a journal-resumed entry can coexist with a
    # live retry of the same work.  ``done`` may therefore only be
    # journaled when the *last* holder releases the key; otherwise one
    # client disconnecting would strip the crash coverage of another
    # client's still-undelivered submission.

    def _journal_retain(self, key: str) -> None:
        self._journal_refs[key] = self._journal_refs.get(key, 0) + 1

    def _journal_release(self, key: str) -> None:
        remaining = self._journal_refs.get(key, 0) - 1
        if remaining > 0:
            self._journal_refs[key] = remaining
            return
        self._journal_refs.pop(key, None)
        if self.journal is not None:
            self.journal.record_done(key)

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to the graceful drain (serve mode)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.drain()))
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-unix event loop

    async def serve_forever(self) -> None:
        """Block until drained (the ``repro fleet serve`` main loop)."""
        await self._drained.wait()

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, let queued and in-flight
        batches finish and flush, then tear down as :meth:`stop` does."""
        if self.draining:
            await self._drained.wait()
            return
        await self._close_server()
        # Let queued + in-flight work finish; dispatch keeps running.
        while not self.scheduler.idle or self._batch_tasks:
            self._work_available.set()
            await asyncio.sleep(0.02)
        await self._teardown(graceful=True)

    async def stop(self) -> None:
        """Hard stop (tests): cancel in-flight batches, then tear down."""
        await self._close_server()
        for task in list(self._batch_tasks):
            task.cancel()
        await self._teardown(graceful=False)

    async def _close_server(self) -> None:
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _teardown(self, graceful: bool) -> None:
        """The one shutdown sequence behind :meth:`drain` and :meth:`stop`.

        The supervisor exits by seeing ``_stopping`` at the top of its
        loop, never by ``cancel()``: on Python < 3.12 ``asyncio.wait_for``
        swallows a cancel that lands just after its inner wait completed
        (CPython gh-86296), so set-then-cancel could leave it running and
        the shutdown awaiting it forever.
        """
        self._stopping = True
        self._work_available.set()
        if self._supervisor is not None:
            await self._supervisor
        self.pool.shutdown(wait=graceful)
        await self._close_connections()
        if self.journal is not None:
            if graceful:
                # Fold the (normally empty) open set into the checkpoint
                # so the next serve starts from a compact journal.
                self.journal.checkpoint()
            self.journal.close()
        self._drained.set()

    async def _close_connections(self) -> None:
        """Close every client transport and reap the handler tasks, so
        no half-dead reader task lingers into event-loop teardown."""
        for connection in list(self._connections.values()):
            connection.closed = True
            with contextlib.suppress(ConnectionError):
                connection.writer.close()
        if self._client_tasks:
            await asyncio.gather(*list(self._client_tasks),
                                 return_exceptions=True)

    # ---------------------------------------------------------- scheduling

    async def _supervise(self) -> None:
        """Dispatch loop + periodic autoscale/sampling."""
        last_sample = time.monotonic()
        while not self._stopping:
            self._dispatch()
            now = time.monotonic()
            if now - last_sample >= self.sample_interval:
                backlog = self.scheduler.queued
                self.pool.autoscale(backlog)
                last_sample = now
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._work_available.wait(),
                                       timeout=self.sample_interval)
            self._work_available.clear()

    def _dispatch(self) -> None:
        """Hand ready batches to every idle shard."""
        for shard in self.pool.idle_shards():
            if not self.scheduler.queued:
                break
            batch = self.scheduler.next_batch(self.batch_size)
            if not batch:
                break
            shard.claim()
            task = asyncio.create_task(self._run_batch(shard, batch))
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)

    async def _run_batch(self, shard, batch) -> None:
        self._batches_dispatched += 1
        if (self._chaos is not None
                and self._chaos.kill_worker(self._batches_dispatched)):
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, shard.poison)
        fingerprints = [fingerprint for fingerprint, _ in batch]
        jobs = [job for _, job in batch]
        try:
            results = await shard.run_batch(jobs)
        except Exception as exc:  # noqa: BLE001 - shard crash
            await self._handle_batch_crash(shard, batch, exc)
        else:
            for fingerprint, result in zip(fingerprints, results):
                self._retry_counts.pop(fingerprint, None)
                clients = self.scheduler.complete(fingerprint, result)
                await self._flush_clients(clients)
        self._work_available.set()

    async def _handle_batch_crash(self, shard, batch, exc: Exception) -> None:
        """Graceful degradation after a shard death mid-batch.

        The broken shard is replaced wholesale; each fingerprint of the
        lost batch is requeued until its retry budget runs out, after
        which it is quarantined — answered as an error with a diagnosis
        and refused at future submits — so a poison job cannot grind the
        pool down shard by shard.
        """
        self.pool.replace(shard)
        for fingerprint, _job in batch:
            attempts = self._retry_counts.get(fingerprint, 0) + 1
            if attempts <= self.max_job_retries:
                self._retry_counts[fingerprint] = attempts
                self.scheduler.requeue(fingerprint)
                continue
            diagnosis = (
                f"quarantined after killing {attempts} shard(s) "
                f"(last: shard {shard.shard_id} died with {exc!r}); "
                f"retry budget of {self.max_job_retries} exhausted")
            self.quarantined[fingerprint] = diagnosis
            self._retry_counts.pop(fingerprint, None)
            clients = self.scheduler.fail(fingerprint, diagnosis)
            await self._flush_clients(clients)

    async def _flush_clients(self, clients: list[str]) -> None:
        for key in clients:
            connection = self._connections.get(key, self._resumed.get(key))
            if connection is None:
                self.scheduler.drain(key)  # discard: client is gone
                continue
            await self._deliver(connection)

    async def _deliver(self, connection: _Connection) -> None:
        """Stream every deliverable ticket, in submission order.

        One delivery per connection at a time: a flush that awaits a slow
        stream must finish writing the tickets it drained before a later
        flush writes the ones that became deliverable meanwhile.
        """
        async with connection.delivering:
            for ticket in self.scheduler.drain(connection.key):
                sid, index = connection.ticket_meta.pop(id(ticket), ("?", -1))
                submission = connection.submissions.get(sid)
                if not connection.closed:
                    await connection.send(self._result_frame(
                        connection, ticket, sid, index))
                if submission is None:
                    continue
                submission.delivered += 1
                if (submission.delivered >= submission.next_progress
                        and submission.delivered < submission.total):
                    submission.next_progress += max(
                        1, submission.total // PROGRESS_STEPS)
                    await connection.send({
                        "event": "progress", "id": sid,
                        "done": submission.delivered,
                        "total": submission.total,
                    })
                if submission.delivered >= submission.total:
                    del connection.submissions[sid]
                    # Journal completion once every result is delivered; a
                    # crash on either side of the done frame is covered —
                    # before: the journal resumes it (all cache hits);
                    # after: the client's retry resubmits and cache-hits.
                    if submission.journal_key is not None:
                        self._journal_release(submission.journal_key)
                    if self._resumed.pop(connection.key, None) is not None:
                        self.resumed_done += 1
                    await connection.send({
                        "event": "done", "id": sid, "total": submission.total,
                        "elapsed_s": round(
                            time.perf_counter() - submission.started, 6),
                    })

    def _result_frame(self, connection: _Connection, ticket: Ticket,
                      sid: str, index: int) -> dict[str, Any]:
        if ticket.error is not None:
            return {"event": "result", "id": sid, "index": index,
                    "fingerprint": ticket.fingerprint, "error": ticket.error}
        frame: dict[str, Any] = {
            "event": "result", "id": sid, "index": index,
            "fingerprint": ticket.fingerprint, "cached": ticket.cached,
            "summary": protocol.summarize_result(ticket.result),
        }
        if ticket.fingerprint in connection.sent_payloads:
            frame["payload_ref"] = ticket.fingerprint
        else:
            frame["payload"] = protocol.encode_payload(
                canonical_bytes(ticket.result))
            connection.sent_payloads.add(ticket.fingerprint)
        return frame

    # ------------------------------------------------------------- clients

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        index = self._next_conn
        key = f"conn-{index}"
        self._next_conn += 1
        connection = _Connection(key, writer, chaos=self._chaos,
                                 index=index)
        self._connections[key] = connection
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
            task.add_done_callback(self._client_tasks.discard)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, ValueError,
                        asyncio.LimitOverrunError):
                    break  # reset, or a frame beyond the stream limit
                if not line:
                    break
                await self._handle_frame(connection, line)
        except asyncio.CancelledError:
            pass  # drain/teardown cancelled us; clean up and exit quietly
        finally:
            self._connections.pop(key, None)
            self.scheduler.forget_client(key)
            # A client that walked away mid-submission abandoned the
            # work — release its hold on each journal key so a restart
            # does not resurrect submissions nobody is waiting for.
            # Release, not record_done: another connection's identical
            # submission may share the key and still be undelivered.
            # (A client that *retries* re-journals the same content key
            # first.)
            for submission in connection.submissions.values():
                if submission.journal_key is not None:
                    self._journal_release(submission.journal_key)
            connection.closed = True
            with contextlib.suppress(ConnectionError):
                writer.close()

    async def _handle_frame(self, connection: _Connection,
                            line: bytes) -> None:
        try:
            message = protocol.decode_frame(line)
            op = message.get("op")
            if op == "submit":
                await self._handle_submit(connection, message)
            elif op == "status":
                await connection.send(self.status())
            elif op == "drain":
                await connection.send({"event": "draining"})
                asyncio.ensure_future(self.drain())
            else:
                raise protocol.ProtocolError(f"unknown op {op!r}")
        except protocol.ProtocolError as exc:
            await connection.send({"event": "error", "message": str(exc),
                                   "id": _submission_id(line)})

    async def _handle_submit(self, connection: _Connection,
                             message: dict[str, Any]) -> None:
        sid = str(message.get("id", f"sub-{len(connection.submissions)}"))
        if self.draining:
            await connection.send({"event": "error", "id": sid,
                                   "message": "service is draining; "
                                              "submission rejected"})
            return
        specs = message.get("jobs")
        if not isinstance(specs, list) or not specs:
            raise protocol.ProtocolError("'jobs' must be a non-empty list")
        priority = message.get("priority", 0)
        if not isinstance(priority, int):
            raise protocol.ProtocolError(
                f"'priority' must be an int, got {priority!r}")
        expanded: list[Any] = []
        for spec in specs:
            job, repeat = protocol.job_from_spec(spec)
            expanded.extend([job] * repeat)
        # Write-ahead: the submission is durable before the ack leaves.
        # A crash after this line is recoverable from the journal; a
        # crash before it means the client never saw an ack and owns the
        # retry.  record_submit is idempotent on the content key, so a
        # retried submission does not double-journal.
        journal_key: str | None = None
        if self.journal is not None:
            journal_key = protocol.submission_key(sid, specs, priority)
            self._journal_retain(journal_key)
            self.journal.record_submit(journal_key, sid, specs, priority)
        self._enqueue(connection, _Submission(sid, len(expanded), journal_key),
                      expanded, priority)
        await connection.send({"event": "ack", "id": sid,
                               "jobs": len(expanded)})
        self._work_available.set()
        # Cache hits may already be deliverable.
        await self._deliver(connection)

    def _enqueue(self, connection: _Connection, submission: _Submission,
                 jobs: list[Any], priority: int) -> None:
        """Register ``submission`` on ``connection`` and queue its jobs."""
        sid = submission.sid
        replaced = connection.submissions.get(sid)
        if replaced is not None and replaced.journal_key is not None:
            self._journal_release(replaced.journal_key)  # keep refs balanced
        connection.submissions[sid] = submission
        refused: dict[str, str] = {}
        for index, job in enumerate(jobs):
            ticket = self.scheduler.submit(connection.key, job,
                                           priority=priority)
            connection.ticket_meta[id(ticket)] = (sid, index)
            diagnosis = self.quarantined.get(ticket.fingerprint)
            if diagnosis is not None and ticket.error is None:
                refused[ticket.fingerprint] = diagnosis
        # Quarantined fingerprints are answered immediately with their
        # diagnosis instead of being handed back to a pool they kill.
        for fingerprint, diagnosis in refused.items():
            self.scheduler.fail(fingerprint, diagnosis)

    # -------------------------------------------------------------- status

    def status(self) -> dict[str, Any]:
        """The ``status`` event payload (also used by the campaign)."""
        stats = self.scheduler.stats
        cache_stats = self.scheduler.cache.stats
        return {
            "event": "status",
            "draining": self.draining,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "queue_depth": self.scheduler.queued,
            "inflight": self.scheduler.inflight,
            "connections": len(self._connections),
            "workers": [{
                "shard": status.shard_id,
                "busy": status.busy,
                "pid": status.pid,
                "batches": status.batches,
                "jobs_done": status.jobs_done,
                "cpu_percent": status.cpu_percent,
                "rss_bytes": status.rss_bytes,
            } for status in self.pool.statuses()],
            "pool": {
                "workers": len(self.pool),
                "peak_workers": self.pool.peak_workers,
                "scaled_up": self.pool.scaled_up,
                "scaled_down": self.pool.scaled_down,
                "min_workers": self.policy.min_workers,
                "max_workers": self.policy.max_workers,
            },
            "scheduler": {
                "submitted": stats.submitted,
                "cache_hits": stats.cache_hits,
                "coalesced": stats.coalesced,
                "dispatched": stats.dispatched,
                "completed": stats.completed,
                "failed": stats.failed,
                "requeued": stats.requeued,
                "delivered": stats.delivered,
            },
            "journal": ({
                **self.journal.status(),
                "resumed": self.resumed_total,
                "resumed_done": self.resumed_done,
                "resuming": len(self._resumed),
            } if self.journal is not None else {"enabled": False}),
            "resilience": {
                "max_job_retries": self.max_job_retries,
                "requeued": stats.requeued,
                "quarantined": len(self.quarantined),
                "shards_replaced": self.pool.replaced,
                "chaos": (self.chaos.describe()
                          if self.chaos is not None else None),
                "chaos_worker_kills": (self._chaos.worker_kills
                                       if self._chaos is not None else 0),
                "chaos_connection_drops": (
                    self._chaos.connection_drops
                    if self._chaos is not None else 0),
            },
            "cache": {
                "memory_hits": cache_stats.memory_hits,
                "disk_hits": cache_stats.disk_hits,
                "misses": cache_stats.misses,
                "stores": cache_stats.stores,
                "evictions": cache_stats.evictions,
            },
        }


def _submission_id(line: bytes) -> str | None:
    """Best-effort submission id extraction for error frames."""
    import json
    try:
        message = json.loads(line)
        value = message.get("id") if isinstance(message, dict) else None
        return str(value) if value is not None else None
    except ValueError:
        return None
