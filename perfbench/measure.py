"""Small measurement helpers: percentiles and process-tree peak memory."""

from __future__ import annotations

import os
import statistics
from typing import Sequence


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive linear interpolation).

    Returns 0.0 for an empty sample, the value itself for one sample.
    """
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _parent_map() -> dict[int, int]:
    """pid -> ppid for every process visible in ``/proc``."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited between listdir and open
        # The command name may contain spaces/parens; fields resume after
        # the last ')'.  Field 4 (index 1 after the split) is the ppid.
        rest = stat[stat.rfind(b")") + 2:].split()
        parents[int(entry)] = int(rest[1])
    return parents


def _peak_rss_kib(pid: int) -> int | None:
    """``VmHWM`` (peak resident set) of one process, in KiB."""
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


class TreePeakRss:
    """Peak RSS of this process plus every descendant, sampled on demand.

    Each :meth:`sample` walks the live process tree and keeps, per pid,
    the largest ``VmHWM`` seen; :attr:`peak_mib` sums those per-process
    peaks.  A child that starts and exits between two samples is missed,
    so callers sample after every request and before shutting pools down.
    """

    def __init__(self) -> None:
        self.root_pid = os.getpid()
        self._peaks: dict[int, int] = {}

    def sample(self) -> None:
        parents = _parent_map()
        children: dict[int, list[int]] = {}
        for pid, ppid in parents.items():
            children.setdefault(ppid, []).append(pid)
        stack = [self.root_pid]
        while stack:
            pid = stack.pop()
            peak = _peak_rss_kib(pid)
            if peak is not None and peak > self._peaks.get(pid, 0):
                self._peaks[pid] = peak
            stack.extend(children.get(pid, ()))

    @property
    def processes(self) -> int:
        """Distinct processes observed so far."""
        return len(self._peaks)

    @property
    def peak_mib(self) -> float:
        return sum(self._peaks.values()) / 1024.0
