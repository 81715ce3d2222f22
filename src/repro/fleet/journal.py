"""The fleet write-ahead job journal: crash-safe submission durability.

BB's contract for the *device* is that power loss never loses the boot
state; this module gives the fleet *service* the same contract for its
submissions.  Before a submission is acked, it is appended — checksummed
and fsync'd — to an append-only JSONL log; when every ticket of the
submission has been delivered, a matching ``done`` record is appended.
A restarted ``repro fleet serve --journal DIR`` replays the log and
resubmits every still-open submission, and the content-addressed
:class:`~repro.runner.cache.ResultCache` makes that recovery
deterministic: re-running a fingerprint reproduces its bytes.

Durability rules (in the spirit of every serious WAL):

* **Append = write + flush + fsync.**  A record either reaches the disk
  in full before the ack leaves the service, or the submission was never
  acknowledged and the client's retry path owns it.
* **Checksummed records.**  Every line carries a ``crc`` over its own
  canonical JSON, so replay distinguishes "valid", "torn", and
  "damaged" instead of guessing.
* **Torn-tail tolerance.**  A truncated or garbled *final* record is
  exactly what a power cut mid-append produces; replay skips it, counts
  it, and truncates it off the file before the append handle opens — so
  the next append starts a fresh line instead of gluing onto the
  partial one (which would read as mid-journal damage one restart
  later).  A corrupt record *followed by a valid one* cannot be a torn
  tail — that file was damaged after the fact, and replay refuses it
  with :class:`~repro.errors.JournalError` rather than silently
  dropping acknowledged work.
* **Idempotent replay.**  Per key, ``submit`` only opens (first wins)
  and ``done`` only closes, so replaying any prefix — or the whole file
  twice — converges to the same open set.  This makes the
  checkpoint/truncate pair safe without a transaction: a crash between
  the two just replays folded records onto the checkpoint as no-ops.
* **Checkpoint/compaction.**  Every ``checkpoint_every`` appends the
  open set is folded into ``checkpoint.json`` (written temp + fsync +
  atomic rename, directory fsync'd) and the log is truncated, so the
  journal's disk footprint tracks *open* work, not lifetime traffic.

The chaos seam: ``crash_after_append=N`` makes the ``N``-th durable
append the process's last act (``os._exit(137)`` — a power cut, not an
exception), which is how the ``fleet-crash`` verify group kills the
service at a byte-deterministic journal offset.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.canonical import canonical_json
from repro.errors import JournalError

#: File names inside a journal directory.
JOURNAL_NAME = "journal.jsonl"
CHECKPOINT_NAME = "checkpoint.json"

#: Fold the open set into the checkpoint after this many appends.
DEFAULT_CHECKPOINT_EVERY = 64

#: Hex digits of sha256 kept as the per-record checksum.
_CRC_HEX = 12


# ------------------------------------------------------------- record codec


def _crc(document: dict[str, Any]) -> str:
    return hashlib.sha256(canonical_json(document)).hexdigest()[:_CRC_HEX]


def encode_record(record: dict[str, Any]) -> bytes:
    """One record -> one checksummed newline-terminated JSON line."""
    body = {key: value for key, value in record.items() if key != "crc"}
    body["crc"] = _crc(body)
    return canonical_json(body) + b"\n"


def decode_record(line: bytes) -> dict[str, Any] | None:
    """Inverse of :func:`encode_record`; ``None`` means torn/corrupt."""
    try:
        document = json.loads(line)
    except ValueError:
        return None
    if not isinstance(document, dict):
        return None
    crc = document.pop("crc", None)
    if crc != _crc(document):
        return None
    return document


# ---------------------------------------------------------------- replaying


def parse_journal_bytes(raw: bytes,
                        source: str = "<journal>"
                        ) -> tuple[list[dict[str, Any]], int, int]:
    """Split raw journal bytes into
    ``(valid records, skipped tail lines, valid byte length)``.

    ``valid byte length`` is the offset just past the last valid
    record's line — the length the file must be cut back to before any
    new record is appended.  Appending after torn tail bytes would glue
    the next record onto the partial line, turning tolerated tail
    damage into fatal mid-journal damage one restart later.

    Raises:
        JournalError: A corrupt record is followed by a valid one —
            mid-journal damage, which torn-tail tolerance must not mask.
    """
    records: list[dict[str, Any]] = []
    corrupt_at: int | None = None
    skipped = 0
    valid_bytes = 0
    offset = 0
    lineno = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        end = len(raw) if newline < 0 else newline + 1
        line = raw[offset:len(raw) if newline < 0 else newline]
        lineno += 1
        offset = end
        if not line.strip():
            continue
        record = decode_record(line)
        if record is None:
            if corrupt_at is None:
                corrupt_at = lineno
            skipped += 1
            continue
        if corrupt_at is not None:
            raise JournalError(
                f"{source}: corrupt record at line {corrupt_at} is followed "
                f"by a valid record at line {lineno} — mid-journal damage, "
                f"not a torn tail")
        records.append(record)
        valid_bytes = end
    return records, skipped, valid_bytes


def replay_records(records: Iterable[dict[str, Any]],
                   state: dict[str, dict[str, Any]] | None = None
                   ) -> dict[str, dict[str, Any]]:
    """Fold records over ``state``; returns the open-submission map.

    Per key, ``submit`` opens (first one wins) and ``done`` closes, so
    replay is idempotent: any record may be applied any number of times
    without changing the final open set.
    """
    state = {} if state is None else dict(state)
    for record in records:
        kind = record.get("type")
        key = record.get("key")
        if not isinstance(key, str) or not key:
            raise JournalError(f"journal record has no key: {record!r}")
        if kind == "submit":
            state.setdefault(key, record)
        elif kind == "done":
            state.pop(key, None)
        else:
            raise JournalError(f"unknown journal record type {kind!r}")
    return state


def load_checkpoint(path: Path) -> dict[str, dict[str, Any]]:
    """The checkpointed open set (empty when no checkpoint exists).

    The checkpoint is written atomically, so unlike the journal tail a
    damaged checkpoint is a real error, not an expected crash artifact.
    """
    if not path.exists():
        return {}
    try:
        document = json.loads(path.read_bytes())
    except ValueError as exc:
        raise JournalError(f"{path}: unreadable checkpoint: {exc}") from exc
    if (not isinstance(document, dict)
            or not isinstance(document.get("open"), dict)):
        raise JournalError(f"{path}: checkpoint is not an "
                           f"{{'open': {{...}}}} document")
    return dict(document["open"])


# ------------------------------------------------------------ fsync helpers


def _fsync_dir(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without O_RDONLY dirs
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``payload`` so a crash leaves either the old file or the new
    one, never a torn mix: temp file + fsync + rename + directory fsync."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


# -------------------------------------------------------------- the journal


@dataclass(slots=True)
class JournalStats:
    """Lifetime accounting for one :class:`JobJournal` instance.

    Attributes:
        appended: Records durably appended by this process.
        replayed: Valid records applied while opening the journal.
        skipped_tail: Torn/corrupt tail lines skipped while opening.
        checkpoints: Compactions performed by this process.
        since_checkpoint: Appends since the last compaction (including
            records inherited from the on-disk log at open).
    """

    appended: int = 0
    replayed: int = 0
    skipped_tail: int = 0
    checkpoints: int = 0
    since_checkpoint: int = 0


class JobJournal:
    """Append-only, checksummed, fsync'd write-ahead log of submissions.

    Args:
        root: Journal directory (created if missing); holds
            ``journal.jsonl`` + ``checkpoint.json``.
        checkpoint_every: Appends between compactions.
        crash_after_append: Chaos hook — ``os._exit(137)`` immediately
            after the N-th append becomes durable (simulated power cut).
    """

    def __init__(self, root: str | Path,
                 checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
                 crash_after_append: int | None = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.crash_after_append = crash_after_append
        self.stats = JournalStats()
        self.open_submissions: dict[str, dict[str, Any]] = {}
        self._replay()
        self._handle = open(self.journal_path, "ab")

    @property
    def journal_path(self) -> Path:
        return self.root / JOURNAL_NAME

    @property
    def checkpoint_path(self) -> Path:
        return self.root / CHECKPOINT_NAME

    @property
    def depth(self) -> int:
        """Open (journaled, not yet done) submissions."""
        return len(self.open_submissions)

    def _replay(self) -> None:
        state = load_checkpoint(self.checkpoint_path)
        raw = (self.journal_path.read_bytes()
               if self.journal_path.exists() else b"")
        records, skipped, valid_bytes = parse_journal_bytes(
            raw, str(self.journal_path))
        self.open_submissions = replay_records(records, state)
        self.stats.replayed = len(records)
        self.stats.skipped_tail = skipped
        self.stats.since_checkpoint = len(records)
        # Amputate the torn tail before the append handle opens: bytes
        # left after the last valid record would glue onto the next
        # append, producing one corrupt merged line that the restart
        # after this one rejects as mid-journal damage.  A final valid
        # record whose newline was cut gets it back for the same reason.
        clean = raw[:valid_bytes]
        if clean and not clean.endswith(b"\n"):
            clean += b"\n"
        if clean != raw:
            atomic_write_bytes(self.journal_path, clean)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    # -------------------------------------------------------------- writes

    def record_submit(self, key: str, sid: str,
                      specs: list[dict[str, Any]], priority: int) -> bool:
        """Journal one submission before it is acked.

        Idempotent: re-journaling an already-open key (a client retry of
        an unacked submission) appends nothing and returns ``False``.
        """
        if key in self.open_submissions:
            return False
        record = {"type": "submit", "key": key, "sid": sid,
                  "specs": specs, "priority": priority}
        # The open set must be mutated before _append (a checkpoint
        # triggered by the append folds it), but a failed append (ENOSPC,
        # I/O error) must roll it back: a key left open in memory with
        # nothing durable would dedupe the client's retry of the
        # never-acked submission, silently losing it across a crash.
        self.open_submissions[key] = record
        try:
            self._append(record)
        except Exception:
            self.open_submissions.pop(key, None)
            raise
        return True

    def record_done(self, key: str) -> bool:
        """Journal a submission's completion; ``False`` if it was not open."""
        record = self.open_submissions.pop(key, None)
        if record is None:
            return False
        try:
            self._append({"type": "done", "key": key})
        except Exception:
            self.open_submissions[key] = record
            raise
        return True

    def _append(self, record: dict[str, Any]) -> None:
        self._handle.write(encode_record(record))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.stats.appended += 1
        self.stats.since_checkpoint += 1
        if self.stats.appended == self.crash_after_append:
            # Simulated power cut: the record above is durable, nothing
            # after this line happens.  No cleanup, no atexit, no flush.
            os._exit(137)
        if self.stats.since_checkpoint >= self.checkpoint_every:
            self.checkpoint()

    # --------------------------------------------------------- compaction

    def checkpoint(self) -> None:
        """Fold the open set into ``checkpoint.json``, truncate the log.

        The two steps are individually atomic and replay is idempotent,
        so a crash between them replays the folded records onto the new
        checkpoint as no-ops.
        """
        document = {"open": {key: self.open_submissions[key]
                             for key in sorted(self.open_submissions)}}
        payload = (json.dumps(document, sort_keys=True, indent=2)
                   + "\n").encode("utf-8")
        atomic_write_bytes(self.checkpoint_path, payload)
        self._handle.close()
        atomic_write_bytes(self.journal_path, b"")
        self._handle = open(self.journal_path, "ab")
        self.stats.checkpoints += 1
        self.stats.since_checkpoint = 0

    # ------------------------------------------------------------- status

    def status(self) -> dict[str, Any]:
        """JSON-able snapshot for ``op: status``."""
        return {
            "enabled": True,
            "depth": self.depth,
            "appended": self.stats.appended,
            "replayed": self.stats.replayed,
            "skipped_tail": self.stats.skipped_tail,
            "checkpoints": self.stats.checkpoints,
            "since_checkpoint": self.stats.since_checkpoint,
        }
