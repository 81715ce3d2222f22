"""Compiled fault injectors.

:class:`BootFaultInjector` turns a declarative :class:`FaultPlan` into the
concrete per-decision answers the simulation hooks ask for: "does this
storage request spike?", "does attempt 3 of ``netcfg.service`` crash?",
"how long does ``tuner.service`` really settle?".

Determinism is the whole point.  Every probabilistic answer is drawn from
``sha256(seed, stream-name, stable-key)`` — *never* from shared RNG state
— so the answer for (unit=``x``, attempt=2) is the same regardless of what
other draws happened first, what process asked, or how many workers a
sweep used.  The only per-run mutable state is the storage request
counter (request order inside one simulated boot is itself deterministic)
and the :class:`InjectedStats` tally.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING

from repro.canonical import unit_draw
from repro.faults.plan import FaultPlan

if TYPE_CHECKING:
    pass


@dataclass(slots=True)
class InjectedStats:
    """Tally of faults actually injected during one run.

    Attributes mirror the spec categories; ``deferred_retries`` and
    ``deferred_giveups`` are filled in by the manager's retry wrapper
    rather than the injector itself.
    """

    storage_spikes: int = 0
    storage_errors: int = 0
    storage_extra_ns: int = 0
    service_failures: int = 0
    service_hangs: int = 0
    module_failures: int = 0
    module_extra_ns: int = 0
    paths_delayed: int = 0
    paths_blocked: int = 0
    settle_extra_ns: int = 0
    deferred_failures: int = 0
    deferred_retries: int = 0
    deferred_giveups: int = 0

    def total_events(self) -> int:
        """Count of discrete injected events (latency totals excluded)."""
        return (self.storage_spikes + self.storage_errors
                + self.service_failures + self.service_hangs
                + self.module_failures + self.paths_delayed
                + self.paths_blocked + self.deferred_failures)

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view for reports and JSON export."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True, slots=True)
class ServiceDecision:
    """The injector's verdict for one start attempt of one unit."""

    fail: bool = False
    hang_ns: int = 0


class BootFaultInjector:
    """Answers the simulation's fault questions for one boot.

    Compile one per run (:meth:`FaultPlan.compile`): the storage request
    counter and stats tally are per-run state.
    """

    def __init__(self, plan: FaultPlan,
                 attempt_offsets: dict[str, int] | None = None):
        self.plan = plan
        self.stats = InjectedStats()
        self._storage_requests = 0
        # Start attempts already made in previous boots of a supervised
        # recovery run (see FaultPlan.compile): service decisions are
        # addressed by offset + attempt, so transient faults keep clearing
        # across reboots.
        self.attempt_offsets: dict[str, int] = dict(attempt_offsets or {})
        self.blocked_paths: frozenset[str] = frozenset(
            spec.path for spec in plan.paths if spec.missing)

    # ------------------------------------------------------------- drawing

    def _draw(self, stream: str, *key: object) -> float:
        """A uniform [0, 1) variate addressed by (seed, stream, key).

        sha256 of the textual key: stable across processes and Python
        hash randomization, and independent of draw order.
        """
        return unit_draw(repr((self.plan.seed, stream, key)))

    # ------------------------------------------------------------- storage

    def storage_extra_ns(self, nbytes: int, is_write: bool) -> int:
        """Extra channel-hold time for the next storage request."""
        index = self._storage_requests
        self._storage_requests += 1
        extra = 0
        for spec_index, spec in enumerate(self.plan.storage):
            if is_write and not spec.affect_writes:
                continue
            if (spec.spike_rate
                    and self._draw("storage-spike", spec_index, index)
                    < spec.spike_rate):
                extra += spec.spike_ns
                self.stats.storage_spikes += 1
            if (spec.error_rate
                    and self._draw("storage-error", spec_index, index)
                    < spec.error_rate):
                extra += spec.error_retry_ns
                self.stats.storage_errors += 1
        self.stats.storage_extra_ns += extra
        return extra

    # ------------------------------------------------------------ services

    def service_decision(self, unit: str, attempt: int) -> ServiceDecision:
        """Whether start ``attempt`` (1-based) of ``unit`` crashes or hangs."""
        fail = False
        hang_ns = 0
        attempt += self.attempt_offsets.get(unit, 0)
        for spec_index, spec in enumerate(self.plan.services):
            if not fnmatchcase(unit, spec.unit):
                continue
            if attempt <= spec.fail_attempts:
                fail = True
            elif (spec.fail_rate
                    and self._draw("service-fail", spec_index, unit, attempt)
                    < spec.fail_rate):
                fail = True
            if (spec.hang_ns
                    and self._draw("service-hang", spec_index, unit, attempt)
                    < spec.hang_rate):
                hang_ns = max(hang_ns, spec.hang_ns)
        if fail:
            self.stats.service_failures += 1
        if hang_ns:
            self.stats.service_hangs += 1
        return ServiceDecision(fail=fail, hang_ns=hang_ns)

    # ------------------------------------------------------------- modules

    def module_decision(self, module: str) -> tuple[bool, int]:
        """(load fails, extra load latency) for kernel module ``module``."""
        fail = False
        extra = 0
        for spec_index, spec in enumerate(self.plan.modules):
            if not fnmatchcase(module, spec.module):
                continue
            if (spec.fail_rate
                    and self._draw("module-fail", spec_index, module)
                    < spec.fail_rate):
                fail = True
            extra += spec.extra_latency_ns
        if fail:
            self.stats.module_failures += 1
        if extra and not fail:
            self.stats.module_extra_ns += extra
        return fail, extra

    # --------------------------------------------------------------- paths

    def late_paths(self) -> tuple[tuple[str, int], ...]:
        """(path, delay_ns) pairs to provide late, in spec order."""
        return tuple((spec.path, spec.delay_ns) for spec in self.plan.paths
                     if not spec.missing and spec.delay_ns > 0)

    def path_blocked(self, path: str) -> bool:
        """Whether every provide of ``path`` is suppressed this boot."""
        return path in self.blocked_paths

    # -------------------------------------------------------------- settle

    def settle_ns(self, unit: str, attempt: int, base_ns: int) -> int:
        """Effective hardware-settle time for ``unit`` this attempt."""
        if not base_ns:
            return base_ns
        effective = float(base_ns)
        touched = False
        for spec_index, spec in enumerate(self.plan.settles):
            if not fnmatchcase(unit, spec.unit):
                continue
            effective *= spec.multiplier
            if spec.jitter:
                # u in [-1, 1], addressed by (spec, unit, attempt).
                u = 2.0 * self._draw("settle", spec_index, unit, attempt) - 1.0
                effective *= 1.0 + spec.jitter * u
            touched = True
        if not touched:
            return base_ns
        result = max(0, int(effective))
        self.stats.settle_extra_ns += result - base_ns
        return result

    # ------------------------------------------------------------ deferred

    def deferred_fails(self, task: str, attempt: int) -> bool:
        """Whether ``attempt`` (1-based) of deferred task ``task`` fails."""
        for spec_index, spec in enumerate(self.plan.deferred):
            if not fnmatchcase(task, spec.task):
                continue
            if attempt <= spec.fail_attempts:
                self.stats.deferred_failures += 1
                return True
            if (spec.fail_rate
                    and self._draw("deferred-fail", spec_index, task, attempt)
                    < spec.fail_rate):
                self.stats.deferred_failures += 1
                return True
        return False
