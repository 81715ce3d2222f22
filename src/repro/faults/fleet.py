"""Deterministic service-layer chaos: seeded faults for the fleet tier.

:class:`~repro.faults.plan.FaultPlan` breaks the *simulated device*;
:class:`FleetFaultPlan` breaks the *service around it* — worker children
killed mid-campaign, client connections cut after N frames, the whole
process power-cut at an exact write-ahead-journal offset.  Same idiom as
the boot plans: the plan is pure validated data, ``compile()`` yields a
per-service-lifetime injector, and every probabilistic decision is a
pure function of ``(seed, decision point)`` — two services compiled from
the same plan fail identically, which is what lets the ``fleet-crash``
verify group assert byte-identical recovery instead of "usually works".

Fault surfaces:

* ``kill_worker_batches`` / ``kill_worker_rate`` — the shard child is
  ``os._exit``'d before the chosen dispatch, so the service sees the
  exact ``BrokenProcessPool`` a real mid-batch worker death produces and
  must requeue/quarantine.
* ``drop_connection_after_frames`` / ``drop_connection_rate`` — the
  server aborts the transport (RST, not FIN) before sending the chosen
  frame, exercising the client's timeout/backoff/resubmission path.
* ``crash_at_journal_offset`` — ``os._exit(137)`` the instant the N-th
  journal append is durable: the power cut the journal exists for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.canonical import unit_draw
from repro.errors import ConfigurationError


def _check_rate(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
        raise ConfigurationError(
            f"{name} must be a probability in [0, 1], got {value!r}")


def _check_offset(name: str, value: int | None) -> None:
    if value is None:
        return
    if not isinstance(value, int) or value < 1:
        raise ConfigurationError(
            f"{name} must be an int >= 1 or None, got {value!r}")


@dataclass(frozen=True, slots=True)
class FleetFaultPlan:
    """What goes wrong around the fleet service, as pure data.

    Attributes:
        seed: Master seed for every rate-based draw.
        kill_worker_batches: 1-based global dispatch indices whose shard
            child is killed before the batch runs (deterministic hits).
        kill_worker_rate: Per-dispatch probability of the same.
        drop_connection_after_frames: Abort the first connection that is
            about to send this many frames (fires once per service).
        drop_connection_rate: Per-frame probability of an abort.
        crash_at_journal_offset: Power-cut the service process right
            after this journal append becomes durable.
    """

    seed: int = 0
    kill_worker_batches: tuple[int, ...] = ()
    kill_worker_rate: float = 0.0
    drop_connection_after_frames: int | None = None
    drop_connection_rate: float = 0.0
    crash_at_journal_offset: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int):
            raise ConfigurationError(f"seed must be an int, "
                                     f"got {self.seed!r}")
        if (not isinstance(self.kill_worker_batches, tuple)
                or not all(isinstance(b, int) and b >= 1
                           for b in self.kill_worker_batches)):
            raise ConfigurationError(
                f"kill_worker_batches must be a tuple of ints >= 1, "
                f"got {self.kill_worker_batches!r}")
        _check_rate("kill_worker_rate", self.kill_worker_rate)
        _check_rate("drop_connection_rate", self.drop_connection_rate)
        _check_offset("drop_connection_after_frames",
                      self.drop_connection_after_frames)
        _check_offset("crash_at_journal_offset",
                      self.crash_at_journal_offset)

    @property
    def empty(self) -> bool:
        return (not self.kill_worker_batches
                and self.kill_worker_rate == 0.0
                and self.drop_connection_after_frames is None
                and self.drop_connection_rate == 0.0
                and self.crash_at_journal_offset is None)

    def compile(self) -> "FleetFaultInjector":
        """One injector per service lifetime (it holds fire-once state)."""
        return FleetFaultInjector(self)

    def describe(self) -> str:
        if self.empty:
            return "no service faults"
        parts = []
        if self.kill_worker_batches:
            parts.append(f"kill worker at dispatch "
                         f"{list(self.kill_worker_batches)}")
        if self.kill_worker_rate:
            parts.append(f"kill worker p={self.kill_worker_rate}")
        if self.drop_connection_after_frames is not None:
            parts.append(f"drop connection after "
                         f"{self.drop_connection_after_frames} frames")
        if self.drop_connection_rate:
            parts.append(f"drop connection p={self.drop_connection_rate}")
        if self.crash_at_journal_offset is not None:
            parts.append(f"crash at journal append "
                         f"{self.crash_at_journal_offset}")
        return f"seed={self.seed}: " + ", ".join(parts)

    # ------------------------------------------------------------ wire form

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "kill_worker_batches": list(self.kill_worker_batches),
            "kill_worker_rate": self.kill_worker_rate,
            "drop_connection_after_frames":
                self.drop_connection_after_frames,
            "drop_connection_rate": self.drop_connection_rate,
            "crash_at_journal_offset": self.crash_at_journal_offset,
        }

    @classmethod
    def from_dict(cls, document: dict[str, Any]) -> "FleetFaultPlan":
        """Build a plan from ``--chaos`` JSON; unknown keys are typos."""
        if not isinstance(document, dict):
            raise ConfigurationError(
                f"chaos plan must be a JSON object, got {document!r}")
        known = {"seed", "kill_worker_batches", "kill_worker_rate",
                 "drop_connection_after_frames", "drop_connection_rate",
                 "crash_at_journal_offset"}
        unknown = set(document) - known
        if unknown:
            raise ConfigurationError(
                f"unknown chaos plan keys: {sorted(unknown)}")
        batches = document.get("kill_worker_batches", ())
        if isinstance(batches, list):
            batches = tuple(batches)
        return cls(
            seed=document.get("seed", 0),
            kill_worker_batches=batches,
            kill_worker_rate=document.get("kill_worker_rate", 0.0),
            drop_connection_after_frames=document.get(
                "drop_connection_after_frames"),
            drop_connection_rate=document.get("drop_connection_rate", 0.0),
            crash_at_journal_offset=document.get("crash_at_journal_offset"),
        )


@dataclass(slots=True)
class FleetFaultInjector:
    """Compiled decision maker for one service lifetime.

    Attributes:
        plan: The immutable plan this injector draws from.
        worker_kills: Shard children killed so far.
        connection_drops: Transports aborted so far.
    """

    plan: FleetFaultPlan
    worker_kills: int = 0
    connection_drops: int = 0
    _dropped_once: bool = field(default=False, repr=False)

    def kill_worker(self, batch_index: int) -> bool:
        """Should the shard child die before global dispatch N (1-based)?"""
        plan = self.plan
        hit = batch_index in plan.kill_worker_batches
        if not hit and plan.kill_worker_rate > 0.0:
            hit = (unit_draw(f"{plan.seed}:kill-worker:{batch_index}")
                   < plan.kill_worker_rate)
        if hit:
            self.worker_kills += 1
        return hit

    def drop_connection(self, connection_index: int,
                        frame_index: int) -> bool:
        """Should the transport abort instead of sending this frame?

        ``drop_connection_after_frames`` fires exactly once per service
        (the first connection to reach the threshold), so a retrying
        client cannot be starved forever by a deterministic cut.
        """
        plan = self.plan
        hit = False
        after = plan.drop_connection_after_frames
        if after is not None and not self._dropped_once and frame_index >= after:
            self._dropped_once = True
            hit = True
        elif plan.drop_connection_rate > 0.0:
            hit = (unit_draw(f"{plan.seed}:drop-connection:"
                             f"{connection_index}:{frame_index}")
                   < plan.drop_connection_rate)
        if hit:
            self.connection_drops += 1
        return hit
