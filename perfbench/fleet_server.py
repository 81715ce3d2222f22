"""The fleet-open service process: ``FleetService`` on an ephemeral port.

Started by :mod:`perfbench.fleet_open` as
``python3 perfbench/fleet_server.py --work DIR --max-workers N --trace 0|1``.
It prints one JSON line ``{"port": N}`` once it accepts connections and
serves until drained (``op: drain`` or SIGTERM).  Standard input is a
lifeline: when the benchmark process dies and the pipe closes, the
service drains, and exits hard if the drain outlives a deadline.  With
``--trace 1`` the
layer wrappers are installed before the service exists, so its shards
inherit them; SIGUSR1 makes the process write its spans to
``DIR/spans`` (the benchmark sends it right after the timed window).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Seconds a drain started by a closed lifeline may take before exit.
ORPHAN_DRAIN_S = 15.0


async def _watch_lifeline(service) -> None:
    """Drain when standard input reaches EOF (the benchmark is gone)."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    await reader.read()
    loop.call_later(ORPHAN_DRAIN_S, os._exit, 1)
    await service.drain()


async def _serve(work: Path, max_workers: int, recorder) -> None:
    from repro.fleet.resources import ResourcePolicy
    from repro.fleet.service import FleetService

    service = FleetService(
        port=0, policy=ResourcePolicy(min_workers=1, max_workers=max_workers),
        cache_dir=str(work / "cache"), journal_dir=str(work / "journal"))
    _host, port = await service.start()
    service.install_signal_handlers()
    if recorder is not None:
        asyncio.get_running_loop().add_signal_handler(signal.SIGUSR1,
                                                      recorder.spill)
    lifeline = asyncio.create_task(_watch_lifeline(service))
    print(json.dumps({"port": port}), flush=True)
    await service.serve_forever()
    lifeline.cancel()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--max-workers", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    recorder = None
    if args.trace:
        from perfbench.trace import Recorder, instrument

        recorder = Recorder(args.work / "spans")
        instrument(recorder)
    asyncio.run(_serve(args.work, args.max_workers, recorder))
    return 0


if __name__ == "__main__":
    sys.exit(main())
