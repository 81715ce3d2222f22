"""The fleet client: submit jobs, stream events, reassemble payloads.

:class:`FleetClient` is the asyncio side (used by the campaign and the
service tests); the module-level ``*_sync`` helpers wrap it in
``asyncio.run`` for the CLI.  Payload de-duplication is reversed here: a
``result`` frame carries either the canonical result bytes (``payload``)
or a reference to bytes this connection already received
(``payload_ref``), and :meth:`FleetClient.submit` hands back fully
resolved per-job byte strings either way.
"""

from __future__ import annotations

import asyncio
import hashlib
import uuid
from dataclasses import dataclass, field
from typing import Any, AsyncIterator

from repro.canonical import unit_draw
from repro.errors import ConfigurationError, FleetError, ProtocolError
from repro.fleet import protocol


def backoff_schedule(retries: int, base: float = 0.05, cap: float = 2.0,
                     seed: int = 0) -> list[float]:
    """Seeded-jitter exponential backoff delays, one per retry.

    Delay ``i`` is ``min(cap, base * 2**i)`` scaled by a jitter factor in
    ``[0.5, 1.0)`` drawn from ``sha256(seed, i)`` — deterministic per
    seed, so tests and the chaos harness can reason about exact retry
    timing.  Decorrelating a fleet of clients therefore requires
    *different* seeds per client; :class:`RetryPolicy` arranges that by
    default (``seed=None`` derives one from the client's identity) while
    an explicit seed pins the schedule for deterministic tests.
    """
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries!r}")
    if base <= 0 or cap <= 0:
        raise ConfigurationError(
            f"backoff base/cap must be > 0, got base={base!r} cap={cap!r}")
    delays: list[float] = []
    for attempt in range(retries):
        ceiling = min(cap, base * (2 ** attempt))
        unit = unit_draw(f"fleet-backoff:{seed}:{attempt}")
        delays.append(ceiling * (0.5 + 0.5 * unit))
    return delays


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How :meth:`FleetClient.submit_with_retry` rides out failures.

    Attributes:
        retries: Resubmission attempts after the first try.
        backoff_base: First-retry delay ceiling, seconds.
        backoff_cap: Upper bound any delay saturates at, seconds.
        seed: Jitter seed (see :func:`backoff_schedule`).  ``None``
            (the default) derives the seed from the per-client salt
            passed to :meth:`delays`, so a fleet of clients retrying
            against one restarting service spreads out instead of
            hammering it in lockstep; an explicit seed pins the
            schedule regardless of client, for deterministic tests.
    """

    retries: int = 5
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    seed: int | None = None

    def delays(self, salt: str = "") -> list[float]:
        seed = self.seed
        if seed is None:
            seed = int.from_bytes(hashlib.sha256(
                f"fleet-client-seed:{salt}".encode()).digest()[:8], "big")
        return backoff_schedule(self.retries, self.backoff_base,
                                self.backoff_cap, seed)


@dataclass(slots=True)
class SubmissionOutcome:
    """Everything one submission streamed back.

    Attributes:
        sid: The submission id.
        total: Jobs in the submission (after ``repeat`` expansion).
        payloads: Canonical result bytes per job, submission order.
        fingerprints: Job fingerprint per job, submission order.
        cached: Whether each job was answered from cache at submit time.
        summaries: The streamed per-job synopses.
        errors: ``index -> error`` for failed jobs (payload is ``b""``).
        events: Count of each event type seen while streaming.
        elapsed_s: Submit-to-done wall time reported by the server.
        attempts: Transport attempts this outcome took (1 = no retry;
            only :meth:`FleetClient.submit_with_retry` exceeds 1).
    """

    sid: str
    total: int = 0
    payloads: list[bytes] = field(default_factory=list)
    fingerprints: list[str] = field(default_factory=list)
    cached: list[bool] = field(default_factory=list)
    summaries: list[dict[str, Any]] = field(default_factory=list)
    errors: dict[int, str] = field(default_factory=dict)
    events: dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return not self.errors and len(self.payloads) == self.total


class FleetClient:
    """One connection to a fleet service.

    Use as an async context manager::

        async with FleetClient(host, port) as client:
            outcome = await client.submit(specs)
    """

    def __init__(self, host: str, port: int,
                 connect_timeout: float | None = 5.0,
                 read_timeout: float | None = None,
                 client_id: str | None = None):
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        # Salts the default retry jitter so concurrent clients draw
        # different backoff schedules (see RetryPolicy.seed).
        self.client_id = (client_id if client_id is not None
                          else uuid.uuid4().hex)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._payloads: dict[str, bytes] = {}  # fingerprint -> bytes
        self._next_sid = 0

    async def __aenter__(self) -> "FleetClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    async def connect(self) -> None:
        try:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port,
                                        limit=protocol.MAX_FRAME_BYTES),
                timeout=self.connect_timeout)
        except asyncio.TimeoutError as exc:
            raise FleetError(
                f"timed out after {self.connect_timeout}s connecting to "
                f"fleet service at {self.host}:{self.port}") from exc
        except (ConnectionError, OSError) as exc:
            raise FleetError(
                f"cannot reach fleet service at {self.host}:{self.port}: "
                f"{exc}") from exc

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None

    async def _send(self, message: dict[str, Any]) -> None:
        if self._writer is None:
            raise FleetError("client is not connected")
        try:
            self._writer.write(protocol.encode_frame(message))
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            raise FleetError(
                f"server closed the connection while sending "
                f"{message.get('op', '?')!r}: {exc}") from exc

    async def _read_event(self) -> dict[str, Any]:
        assert self._reader is not None
        try:
            line = await asyncio.wait_for(self._reader.readline(),
                                          timeout=self.read_timeout)
        except asyncio.TimeoutError as exc:
            raise FleetError(
                f"timed out after {self.read_timeout}s waiting for a "
                f"server event") from exc
        except (ConnectionError, OSError) as exc:
            raise FleetError(
                f"server closed the connection mid-stream: {exc}") from exc
        if not line:
            raise FleetError("server closed the connection mid-stream")
        return protocol.decode_frame(line)

    # ------------------------------------------------------------- streams

    async def stream(self, specs: list[dict[str, Any]], priority: int = 0,
                     sid: str | None = None) -> AsyncIterator[dict[str, Any]]:
        """Submit and yield raw events (ack/result/progress/done/error)
        until the submission completes."""
        if sid is None:
            sid = f"sub-{self._next_sid}"
            self._next_sid += 1
        await self._send({"op": "submit", "id": sid, "priority": priority,
                          "jobs": specs})
        while True:
            event = await self._read_event()
            yield event
            kind = event.get("event")
            if kind == "done" and event.get("id") == sid:
                return
            if kind == "error":
                return

    async def submit(self, specs: list[dict[str, Any]], priority: int = 0,
                     sid: str | None = None) -> SubmissionOutcome:
        """Submit and collect the whole stream into a
        :class:`SubmissionOutcome` (payload refs resolved)."""
        outcome = SubmissionOutcome(sid=sid if sid is not None else "")
        async for event in self.stream(specs, priority=priority, sid=sid):
            kind = str(event.get("event"))
            outcome.events[kind] = outcome.events.get(kind, 0) + 1
            if kind == "ack":
                outcome.sid = str(event.get("id"))
                outcome.total = int(event.get("jobs", 0))
            elif kind == "result":
                self._collect_result(outcome, event)
            elif kind == "done":
                outcome.elapsed_s = float(event.get("elapsed_s", 0.0))
            elif kind == "error":
                outcome.errors[-1] = str(event.get("message"))
        return outcome

    async def submit_with_retry(self, specs: list[dict[str, Any]],
                                priority: int = 0, sid: str | None = None,
                                policy: RetryPolicy | None = None
                                ) -> SubmissionOutcome:
        """:meth:`submit`, riding out transport failures and restarts.

        The submission id is fixed on the first attempt and reused on
        every retry — that, plus the jobs' content fingerprints, is what
        makes resubmission idempotent: a journaled service recognizes
        the retried ``(sid, specs, priority)`` triple, and re-executed
        fingerprints are answered from the content-addressed cache with
        identical bytes.  Retries cover transport-level
        :class:`~repro.errors.FleetError`\\ s (connect refused/timeout,
        connection cut mid-stream); :class:`~repro.errors.ProtocolError`
        means the *request* is wrong and retrying cannot help, so it
        propagates immediately.
        """
        policy = policy if policy is not None else RetryPolicy()
        if sid is None:
            sid = f"sub-{self._next_sid}"
            self._next_sid += 1
        delays = policy.delays(f"{self.client_id}:{sid}")
        attempt = 0
        while True:
            try:
                if self._writer is None:
                    await self.connect()
                outcome = await self.submit(specs, priority=priority,
                                            sid=sid)
                outcome.attempts = attempt + 1
                return outcome
            except ProtocolError:
                raise
            except FleetError as exc:
                await self.close()
                if attempt >= len(delays):
                    raise FleetError(
                        f"submission {sid!r} failed after {attempt + 1} "
                        f"attempts: {exc}") from exc
                await asyncio.sleep(delays[attempt])
                attempt += 1

    def _collect_result(self, outcome: SubmissionOutcome,
                        event: dict[str, Any]) -> None:
        index = len(outcome.payloads)
        fingerprint = str(event.get("fingerprint", ""))
        outcome.fingerprints.append(fingerprint)
        outcome.cached.append(bool(event.get("cached", False)))
        outcome.summaries.append(event.get("summary") or {})
        if "error" in event:
            outcome.errors[index] = str(event["error"])
            outcome.payloads.append(b"")
            return
        if "payload" in event:
            payload = protocol.decode_payload(event["payload"])
            self._payloads[fingerprint] = payload
        elif "payload_ref" in event:
            payload = self._payloads.get(str(event["payload_ref"]))
            if payload is None:
                raise ProtocolError(
                    f"payload_ref {event['payload_ref']!r} references "
                    f"bytes this connection never received")
        else:
            raise ProtocolError("result frame carries neither payload "
                                "nor payload_ref")
        outcome.payloads.append(payload)

    # -------------------------------------------------------------- admin

    async def status(self) -> dict[str, Any]:
        """The service's ``status`` snapshot."""
        await self._send({"op": "status"})
        while True:
            event = await self._read_event()
            if event.get("event") in ("status", "error"):
                return event

    async def request_drain(self) -> dict[str, Any]:
        """Ask the service to drain gracefully (the remote SIGTERM)."""
        await self._send({"op": "drain"})
        return await self._read_event()


# ------------------------------------------------------------ sync wrappers


def submit_sync(host: str, port: int, specs: list[dict[str, Any]],
                priority: int = 0) -> SubmissionOutcome:
    """Blocking submit-and-collect for the CLI."""
    async def _run() -> SubmissionOutcome:
        async with FleetClient(host, port) as client:
            return await client.submit(specs, priority=priority)
    return asyncio.run(_run())


def status_sync(host: str, port: int) -> dict[str, Any]:
    """Blocking status snapshot for the CLI."""
    async def _run() -> dict[str, Any]:
        async with FleetClient(host, port) as client:
            return await client.status()
    return asyncio.run(_run())
