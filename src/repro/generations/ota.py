"""The OTA rollout engine: stage a generation across a fleet in waves.

A campaign updates a simulated device fleet from a *baseline* generation
to a *target* generation the way a consumer-electronics vendor does: in
rollout waves, with per-device update-failure injection, a health gate on
every trial boot, and automatic rollback of devices whose new slot fails.
Every trial boot is one declarative :class:`~repro.runner.jobs.SimJob`
built from the generation document, so a thousand identical TVs cost one
simulation — the fleet tier's dedup/cache does the rest.

The health gate has three verdicts, mirroring the tentpole's failure
modes:

``unit-failure``
    The trial boot degraded or wedged (the update shipped a broken unit
    set, or the flashed image is corrupt).
``boot-regression``
    The boot completed but took longer than ``regression_threshold x``
    the baseline's boot time as judged by the closed-form predictor
    (:func:`repro.analysis.predict.predict_job`) — the paper's whole
    value proposition is the boot time, so regressing it *is* a failure.
``healthy``
    Neither; the trial slot is confirmed known-good.

Rolled-back devices additionally run one supervised recovery job whose
ladder ends in the ``slot-rollback`` rung
(:data:`repro.recovery.RUNG_SLOT_ROLLBACK`), verifying that the recovery
layer independently reaches the same decision the campaign made.  The
rollback boot always executes through the local runner — in both the
serial and the fleet execution paths — so the two paths produce
byte-identical reports (the ``generation-identity`` verify group pins
this).
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.analysis.predict import predict_job
from repro.canonical import canonical_json, unit_draw
from repro.core.config import BBConfig
from repro.errors import AnalysisError, GenerationError
from repro.generations.slots import SlotState, check_slot_invariants
from repro.generations.store import DEFAULT_REF, Generation, GenerationStore
from repro.recovery import (RUNG_AS_CONFIGURED, RUNG_SLOT_ROLLBACK,
                            RecoveryPolicy)

#: Update-failure kinds a device can draw during staging.
FAULT_INTERRUPTED_FLASH = "interrupted-flash"
FAULT_CORRUPT_IMAGE = "corrupt-image"

#: Fault preset overlaid on trial boots of corrupt-image devices.
CORRUPT_IMAGE_PRESET = "broken-tuner"

#: Health verdicts (also the rollback reasons in wave reports).
VERDICT_HEALTHY = "healthy"
VERDICT_UNIT_FAILURE = "unit-failure"
VERDICT_REGRESSION = "boot-regression"
VERDICT_STAGE_FAILED = "stage-failed"


def device_ids(count: int) -> list[str]:
    """Stable fleet device names (``dev-000`` ...)."""
    return [f"dev-{index:03d}" for index in range(count)]


def partition_waves(devices: list[str], waves: int) -> list[list[str]]:
    """Contiguous, near-equal rollout waves (earlier waves no smaller)."""
    if waves < 1:
        raise GenerationError(f"waves must be >= 1, got {waves!r}")
    waves = min(waves, len(devices)) or 1
    base, extra = divmod(len(devices), waves)
    out: list[list[str]] = []
    start = 0
    for index in range(waves):
        size = base + (1 if index < extra else 0)
        out.append(devices[start:start + size])
        start += size
    return out


def draw_update_fault(seed: int, device: str, flash_rate: float,
                      corrupt_rate: float) -> str | None:
    """Deterministic per-device update-failure draw.

    The uniform variate comes from SHA-256 of ``seed:device`` — process-
    and path-independent, so serial and fleet rollouts inject identical
    failures.
    """
    if flash_rate == 0.0 and corrupt_rate == 0.0:
        return None
    uniform = unit_draw(f"{seed}:{device}")
    if uniform < flash_rate:
        return FAULT_INTERRUPTED_FLASH
    if uniform < flash_rate + corrupt_rate:
        return FAULT_CORRUPT_IMAGE
    return None


def reference_boot_ms(baseline: Generation) -> float:
    """The baseline's boot time in ms, from the closed-form predictor.

    Rounded to 3 decimals — the same rounding
    :func:`repro.fleet.protocol.summarize_result` applies to measured
    boots, so the regression comparison never trips on float formatting.
    """
    try:
        prediction = predict_job(baseline.boot_job())
    except AnalysisError as exc:
        raise GenerationError(
            f"baseline generation {baseline.label!r} is not predictable "
            f"({exc}); rollout needs a clean baseline") from exc
    return round(prediction.boot_complete_ns / 1e6, 3)


def judge_summary(summary: dict[str, Any], reference_ms: float,
                  threshold: float) -> str:
    """Health-gate one trial boot's streamed synopsis."""
    if summary.get("type") != "BootReport":
        return VERDICT_UNIT_FAILURE
    if summary.get("degraded"):
        return VERDICT_UNIT_FAILURE
    boot_ms = summary.get("boot_ms")
    if not isinstance(boot_ms, (int, float)):
        return VERDICT_UNIT_FAILURE
    if boot_ms > threshold * reference_ms:
        return VERDICT_REGRESSION
    return VERDICT_HEALTHY


def _corrupt_spec(target: Generation, update_seed: int) -> dict[str, Any]:
    """The trial boot of a device whose flash wrote garbage: the target
    image overlaid with a deterministic image-corruption fault."""
    spec = target.boot_spec(label=f"{target.label}+corrupt")
    spec["fault"] = {"preset": CORRUPT_IMAGE_PRESET, "seed": update_seed + 1}
    return spec


def rollback_policy(target: Generation, baseline: Generation,
                    reference_ms: float) -> RecoveryPolicy:
    """The supervised ladder a rolled-back device re-verifies with."""
    threshold_ns = int(round(
        target.regression_threshold * reference_ms * 1e6))
    return RecoveryPolicy(
        label=f"rollback:{target.label}",
        ladder=(RUNG_AS_CONFIGURED, RUNG_SLOT_ROLLBACK),
        base_bb=target.bb(),
        max_boot_ns=threshold_ns,
        fallback_workload=baseline.workload,
        fallback_bb=baseline.bb())


def _rollback_job(target: Generation, baseline: Generation,
                  reference_ms: float, corrupt: bool, update_seed: int):
    from repro.fleet.protocol import job_from_spec
    from repro.runner.jobs import SimJob

    if corrupt:
        plan_spec = _corrupt_spec(target, update_seed)
    else:
        plan_spec = target.boot_spec()
    trial_job, _ = job_from_spec(plan_spec)
    return SimJob.recover(
        trial_job.workload_factory,
        policy=rollback_policy(target, baseline, reference_ms),
        fault_plan=trial_job.fault_plan,
        label=f"rollback {target.label} -> {baseline.label}")


# ---------------------------------------------------------------- executors

class _SerialExecutor:
    """Trial boots through a local :class:`SweepRunner` (shared cache)."""

    def __init__(self, jobs: int = 1):
        from repro.runner.sweep import SweepRunner
        self._runner = SweepRunner(jobs=jobs)
        self._runner.__enter__()

    async def submit(self, specs: list[dict[str, Any]]
                     ) -> list[dict[str, Any]]:
        from repro.fleet.protocol import job_from_spec, summarize_result
        jobs = [job_from_spec(spec)[0] for spec in specs]
        results = self._runner.run(jobs)
        return [summarize_result(result) for result in results]

    async def close(self) -> None:
        self._runner.__exit__(None, None, None)


class _FleetExecutor:
    """Trial boots through an in-process fleet service over TCP."""

    def __init__(self, jobs: int = 1):
        self._jobs = jobs
        self._service = None
        self._client = None

    async def _ensure_started(self) -> None:
        if self._service is not None:
            return
        from repro.fleet.client import FleetClient
        from repro.fleet.resources import ResourcePolicy
        from repro.fleet.service import FleetService

        self._service = FleetService(
            port=0, policy=ResourcePolicy(min_workers=1,
                                          max_workers=self._jobs))
        host, port = await self._service.start()
        self._client = FleetClient(host, port)
        await self._client.connect()

    async def submit(self, specs: list[dict[str, Any]]
                     ) -> list[dict[str, Any]]:
        await self._ensure_started()
        outcome = await self._client.submit(specs)
        if outcome.errors:
            first = min(outcome.errors)
            raise GenerationError(
                f"fleet rollout job {first} failed: "
                f"{outcome.errors[first]}")
        return outcome.summaries

    async def close(self) -> None:
        if self._client is not None:
            await self._client.close()
        if self._service is not None:
            await self._service.stop()


# ----------------------------------------------------------------- rollout

def run_rollout(store: GenerationStore, target: str = DEFAULT_REF,
                baseline: str | None = None, *, devices: int = 12,
                waves: int = 3, update_seed: int = 0,
                flash_rate: float = 0.0, corrupt_rate: float = 0.0,
                halt_threshold: float = 0.5, jobs: int = 1,
                use_fleet: bool = False) -> dict[str, Any]:
    """Stage ``target`` across a fleet currently running ``baseline``.

    Args:
        store: The generation store holding both generations.
        target: Ref name or fingerprint (prefix) of the new generation.
        baseline: Ref/fingerprint of the fleet's current generation;
            defaults to the target's ``parent``.
        devices: Fleet size.
        waves: Rollout wave count (devices split contiguously).
        update_seed: Seed for the per-device update-failure draws.
        flash_rate / corrupt_rate: Probability a device's flash is
            interrupted (stays on baseline) / writes a corrupt image
            (trial boot fails).
        halt_threshold: Abort the campaign when a wave's rollback
            fraction reaches this (the vendor pulls the release).
        jobs: Worker count for the execution tier.
        use_fleet: Boot trials through the fleet TCP service instead of
            a local sweep runner.  The report is byte-identical either
            way.

    Returns:
        A JSON-able campaign report (deterministic: no wall-clock, no
        execution-path metadata).
    """
    target_fp = store.resolve(target)
    target_gen = store.get(target_fp)
    if baseline is not None:
        baseline_fp = store.resolve(baseline)
    elif target_gen.parent is not None:
        baseline_fp = target_gen.parent
    else:
        raise GenerationError(
            f"target generation {target_gen.label!r} has no parent; "
            f"name a baseline explicitly")
    baseline_gen = store.get(baseline_fp)
    if baseline_fp == target_fp:
        raise GenerationError("target and baseline are the same generation")

    reference_ms = reference_boot_ms(baseline_gen)
    threshold = target_gen.regression_threshold
    fleet = device_ids(devices)
    wave_plan = partition_waves(fleet, waves)

    async def _campaign() -> dict[str, Any]:
        executor = (_FleetExecutor(jobs=jobs) if use_fleet
                    else _SerialExecutor(jobs=jobs))
        try:
            return await _run_waves(executor)
        finally:
            await executor.close()

    async def _run_waves(executor) -> dict[str, Any]:
        states = {device: SlotState.provision(baseline_fp)
                  for device in fleet}
        recovery_cache: dict[str, Any] = {}
        wave_reports: list[dict[str, Any]] = []
        halted_after: int | None = None

        for wave_index, wave_devices in enumerate(wave_plan):
            if halted_after is not None:
                break
            plans: dict[str, bytes | None] = {}  # device -> spec key
            verdicts: dict[str, str] = {}
            specs: list[dict[str, Any]] = []
            keys: list[bytes] = []
            for device in wave_devices:
                update_fault = draw_update_fault(
                    update_seed, device, flash_rate, corrupt_rate)
                if update_fault == FAULT_INTERRUPTED_FLASH:
                    # The flash aborted: the standby slot keeps whatever
                    # it held and the device never reboots into the
                    # update.
                    verdicts[device] = VERDICT_STAGE_FAILED
                    plans[device] = None
                    continue
                state = states[device].stage(target_fp).activate()
                states[device] = state
                if update_fault == FAULT_CORRUPT_IMAGE:
                    spec = _corrupt_spec(target_gen, update_seed)
                else:
                    spec = target_gen.boot_spec()
                key = canonical_json(spec)
                if key not in keys:
                    keys.append(key)
                    specs.append(spec)
                plans[device] = key

            summaries = dict(zip(keys, await executor.submit(specs)))

            rollbacks = 0
            verified = 0
            reasons: dict[str, int] = {}
            for device in wave_devices:
                key = plans[device]
                if key is None:
                    reasons[VERDICT_STAGE_FAILED] = (
                        reasons.get(VERDICT_STAGE_FAILED, 0) + 1)
                    continue
                verdict = judge_summary(summaries[key], reference_ms,
                                        threshold)
                verdicts[device] = verdict
                reasons[verdict] = reasons.get(verdict, 0) + 1
                state = states[device]
                if verdict == VERDICT_HEALTHY:
                    states[device] = state.boot_ok()
                    continue
                # The simulator is deterministic, so every health retry
                # fails identically; burn the attempt budget on the slot
                # counter without re-simulating.
                for _ in range(target_gen.max_boot_attempts):
                    state = state.boot_fail()
                states[device] = state.rollback()
                rollbacks += 1
                corrupt = key == canonical_json(_corrupt_spec(target_gen,
                                                              update_seed))
                job = _rollback_job(target_gen, baseline_gen, reference_ms,
                                    corrupt, update_seed)
                fingerprint = job.fingerprint()
                if fingerprint not in recovery_cache:
                    from repro.runner.jobs import execute_job
                    recovery_cache[fingerprint] = execute_job(job)
                outcome = recovery_cache[fingerprint]
                if outcome.converged and outcome.rung == RUNG_SLOT_ROLLBACK:
                    verified += 1

            wave_reports.append({
                "wave": wave_index,
                "devices": list(wave_devices),
                "unique_boots": len(specs),
                "verdicts": dict(sorted(reasons.items())),
                "rollbacks": rollbacks,
                "rollbacks_verified": verified,
            })
            if wave_devices and rollbacks / len(wave_devices) >= halt_threshold:
                halted_after = wave_index

        stored = set(store.fingerprints())
        for device, state in states.items():
            check_slot_invariants(state, stored)

        healthy = sum(report["verdicts"].get(VERDICT_HEALTHY, 0)
                      for report in wave_reports)
        stage_failures = sum(report["verdicts"].get(VERDICT_STAGE_FAILED, 0)
                             for report in wave_reports)
        total_rollbacks = sum(report["rollbacks"] for report in wave_reports)
        updated = sum(1 for state in states.values()
                      if state.active_generation == target_fp)
        return {
            "target": target_fp,
            "target_label": target_gen.label,
            "baseline": baseline_fp,
            "baseline_label": baseline_gen.label,
            "reference_ms": reference_ms,
            "regression_threshold": threshold,
            "max_boot_attempts": target_gen.max_boot_attempts,
            "devices": len(fleet),
            "planned_waves": len(wave_plan),
            "waves": wave_reports,
            "halted_after": halted_after,
            "healthy": healthy,
            "rollbacks": total_rollbacks,
            "stage_failures": stage_failures,
            "devices_updated": updated,
            "device_states": {device: states[device].to_dict()
                              for device in fleet},
        }

    return asyncio.run(_campaign())


def render_rollout(report: dict[str, Any]) -> str:
    """Human-readable campaign report for the CLI."""
    from repro.analysis.report import format_table

    rows = [
        ("target", f"{report['target_label']} "
                   f"({report['target'][:12]})"),
        ("baseline", f"{report['baseline_label']} "
                     f"({report['baseline'][:12]})"),
        ("reference boot", f"{report['reference_ms']:.3f} ms"),
        ("regression gate", f"> {report['regression_threshold']:.2f}x "
                            f"reference"),
        ("fleet", f"{report['devices']} devices / "
                  f"{report['planned_waves']} waves"),
        ("updated", f"{report['devices_updated']}"),
        ("healthy", f"{report['healthy']}"),
        ("rollbacks", f"{report['rollbacks']}"),
        ("stage failures", f"{report['stage_failures']}"),
    ]
    out = ["OTA rollout campaign", format_table(["metric", "value"], rows)]
    for wave in report["waves"]:
        verdicts = ", ".join(f"{name}={count}" for name, count
                             in wave["verdicts"].items()) or "idle"
        out.append(f"  wave {wave['wave']}: {len(wave['devices'])} devices, "
                   f"{wave['unique_boots']} unique boot(s), {verdicts}, "
                   f"{wave['rollbacks_verified']}/{wave['rollbacks']} "
                   f"rollbacks verified by the recovery ladder")
    if report["halted_after"] is not None:
        out.append(f"  campaign HALTED after wave {report['halted_after']} "
                   f"(rollback fraction reached the halt threshold)")
    return "\n".join(out)


# ------------------------------------------------------------ demo fixtures

#: Features whose removal regresses tv boot ~24% (> the 1.10 gate) while
#: still completing: the demo "regressed" update.
_DEMO_REGRESSED_DROPS = ("preparser", "deferred_executor")


def demo_baseline() -> Generation:
    """The known-good generation the demo fleet ships with."""
    return Generation(label="gen-1", workload="tv",
                      features=tuple(BBConfig.full().enabled_features()),
                      notes="factory image")


def demo_target(kind: str, parent: str) -> Generation:
    """A demo update of the given kind, parented on the baseline.

    ``clean``
        Identical boot profile, new release notes: zero rollbacks.
    ``regressed``
        Drops the preparser and the deferred executor, regressing boot
        time past the gate: every updated device rolls back.
    ``broken``
        Ships a fault preset that breaks a boot-critical unit: every
        updated device rolls back at the unit-failure verdict.
    """
    base = demo_baseline()
    features = tuple(base.features)
    fault = None
    if kind == "regressed":
        features = tuple(name for name in features
                         if name not in _DEMO_REGRESSED_DROPS)
        notes = "update that regresses boot time"
    elif kind == "broken":
        fault = (CORRUPT_IMAGE_PRESET, 1)
        notes = "update that ships a broken unit"
    elif kind == "clean":
        notes = "maintenance update, no boot change"
    else:
        raise GenerationError(f"unknown demo target kind {kind!r}; "
                              f"expected clean, regressed or broken")
    return Generation(label="gen-2", workload=base.workload,
                      features=features, fault=fault, parent=parent,
                      notes=notes)


def demo_store(root, kind: str = "regressed") -> GenerationStore:
    """Initialize a demo store with baseline + target committed."""
    store = GenerationStore.init(root)
    head = store.commit(demo_baseline())
    store.commit(demo_target(kind, parent=head))
    return store
