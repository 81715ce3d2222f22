"""Fleet-crash verification: SIGKILL mid-campaign, restart, byte-identity.

The strongest claim the durability layer makes is BB's own claim,
transplanted to the service tier: *power loss at any instant loses no
acknowledged work and changes no bytes*.  This check proves one
deterministic instance of it end to end, with real processes:

1. compute the ground truth — the canonical campaign report of an
   uninterrupted serial run of the smoke device matrix;
2. launch a real ``repro fleet serve`` subprocess with a journal and a
   chaos plan that power-cuts the process (``os._exit(137)``, no
   cleanup) the moment a chosen journal append becomes durable — an odd
   offset, so the cut lands right after a submission is journaled but
   before it is acked or executed;
3. drive a chunked campaign against it with the retrying client; a
   watchdog thread restarts the service (without chaos) the moment the
   kill is observed, on the same port, journal and cache;
4. require that the stitched-together campaign report — part answered
   by the first process, part resumed from the journal, part resubmitted
   by the client's backoff path — is **byte-identical** to the serial
   ground truth, that the crash actually happened (exit 137), that the
   restarted service really resumed journaled work, and that the client
   really retried.

Everything is seeded and offset-addressed, so a failure replays exactly.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.canonical import canonical_json
from repro.fleet import campaign
from repro.fleet.client import RetryPolicy

#: Exit code ``os._exit(137)`` reports — the simulated power cut.
CRASH_EXIT_CODE = 137

#: Hard ceiling on how long we wait for the campaign + processes.
_DEADLINE_S = 300.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _subprocess_env() -> dict[str, str]:
    """The child must import the same ``repro`` tree we are running."""
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + extra if extra else "")
    return env


def _kill_group(process: subprocess.Popen) -> None:
    """A power cut takes the worker shards with it.

    ``os._exit`` kills only the service process; its fork-based shard
    processes outlive it holding the inherited listening socket, which
    no real power loss would allow.  Each service runs as its own
    session (``start_new_session=True``), so SIGKILLing the process
    group finishes the job the simulated power cut started.
    """
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _terminate(process: subprocess.Popen | None) -> None:
    if process is None:
        return
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
            process.kill()
            process.wait(timeout=10)
    _kill_group(process)


def _wait_port_free(port: int, deadline_s: float = 15.0) -> None:
    """Block until ``port`` can be bound again (orphan sockets gone)."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                sock.bind(("127.0.0.1", port))
                return
            except OSError:
                time.sleep(0.05)


def check_fleet_crash(smoke: bool = False) -> tuple[list[str], int, int]:
    """Run the crash/restart oracle; returns ``(violations, boots, checks)``.

    ``boots`` counts unique simulations (the serial ground truth; the
    service re-runs the same fingerprints); ``checks`` counts the
    byte-identity comparison plus the crash/resume/retry assertions.
    """
    violations: list[str] = []
    total_jobs = 120 if smoke else 360
    specs = campaign.build_specs(smoke=True, total_jobs=total_jobs)
    chunks = campaign.chunk_specs(specs, 1)
    # Journal appends strictly alternate submit/done for a serial
    # chunked client, so an odd offset always lands on a *submit*
    # append: the submission is durable, its ack never leaves, and the
    # restart must resume it.  Offset 2k+1 cuts mid-campaign.
    crash_offset = 2 * (len(chunks) // 2) + 1
    chaos = {"seed": 7, "crash_at_journal_offset": crash_offset}

    expected, unique_jobs = campaign.serial_campaign_bytes(specs)
    boots = unique_jobs
    checks = 0

    with tempfile.TemporaryDirectory(prefix="fleet-crash-") as root:
        journal_dir = os.path.join(root, "journal")
        cache_dir = os.path.join(root, "cache")
        port = _free_port()
        base_cmd = [sys.executable, "-m", "repro", "fleet", "serve",
                    "--host", "127.0.0.1", "--port", str(port),
                    "--min-workers", "1", "--max-workers", "1",
                    "--batch-size", "4",
                    "--journal", journal_dir, "--cache-dir", cache_dir]
        env = _subprocess_env()
        first = subprocess.Popen(base_cmd + ["--chaos", json.dumps(chaos)],
                                 env=env, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL,
                                 start_new_session=True)
        second: list[subprocess.Popen] = []

        def _restart_after_crash() -> None:
            first.wait()
            if first.returncode == CRASH_EXIT_CODE:
                # Same port, same journal, same cache — no chaos: the
                # operator's restart after a power cut.
                _kill_group(first)
                _wait_port_free(port)
                second.append(subprocess.Popen(
                    base_cmd, env=env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL, start_new_session=True))

        watchdog = threading.Thread(target=_restart_after_crash,
                                    daemon=True)
        watchdog.start()
        try:
            outcome = campaign.run_remote(
                "127.0.0.1", port, chunks,
                retry=RetryPolicy(retries=14, backoff_base=0.25,
                                  backoff_cap=2.0, seed=3),
                connect_timeout=10.0, read_timeout=max(60.0, _DEADLINE_S))
            actual = canonical_json(outcome.report())

            checks += 1
            if actual != expected:
                violations.append(
                    f"fleet-crash: resumed campaign report is not "
                    f"byte-identical to the uninterrupted serial run "
                    f"({len(outcome.payloads)} payloads, "
                    f"{len(outcome.errors)} errors)")
            checks += 1
            if first.returncode != CRASH_EXIT_CODE:
                violations.append(
                    f"fleet-crash: chaos never fired — first service "
                    f"exited {first.returncode} instead of "
                    f"{CRASH_EXIT_CODE} at journal append {crash_offset}")
            checks += 1
            journal = outcome.status.get("journal", {})
            if int(journal.get("resumed", 0)) < 1:
                violations.append(
                    "fleet-crash: the restarted service resumed no "
                    "journaled submissions — the write-ahead log never "
                    "did its job")
            checks += 1
            if outcome.attempts <= outcome.chunks:
                violations.append(
                    "fleet-crash: the client never retried — the crash "
                    "window missed every submission")
        except Exception as exc:  # noqa: BLE001 - report, don't crash CI
            violations.append(f"fleet-crash: campaign raised {exc!r}")
        finally:
            deadline = time.monotonic() + 15.0
            watchdog.join(timeout=max(0.0, deadline - time.monotonic()))
            _terminate(first)
            for process in second:
                _terminate(process)
    return violations, boots, checks
