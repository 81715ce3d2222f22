"""Boot-entry generations: versioned boot profiles, A/B slots, OTA.

The paper measures one image booting fast; a shipped device spends its
life being *updated*, and updates are when boot time regresses or boots
stop working entirely.  This package adds the missing release dimension:
:class:`Generation` (a content-fingerprinted boot profile),
:class:`GenerationStore` (a git-shaped on-disk history with fast-forward
commits and rollbacks), :class:`SlotState` (the per-device A/B slot
machine with its never-brick / never-lose-known-good invariants), and
:func:`run_rollout` (the OTA campaign engine with health gating and
regression-gated automatic rollback through the recovery ladder's
``slot-rollback`` rung).
"""

from repro.generations.ota import (CORRUPT_IMAGE_PRESET,
                                   FAULT_CORRUPT_IMAGE,
                                   FAULT_INTERRUPTED_FLASH,
                                   VERDICT_HEALTHY, VERDICT_REGRESSION,
                                   VERDICT_STAGE_FAILED,
                                   VERDICT_UNIT_FAILURE,
                                   demo_baseline,
                                   demo_store, demo_target, device_ids,
                                   draw_update_fault, judge_summary,
                                   partition_waves, reference_boot_ms,
                                   render_rollout, rollback_policy,
                                   run_rollout)
from repro.generations.slots import (SLOT_A, SLOT_B, SlotState,
                                     check_slot_invariants)
from repro.generations.store import (DEFAULT_REF, Generation,
                                     GenerationStore, diff_generations)

__all__ = [
    "CORRUPT_IMAGE_PRESET",
    "DEFAULT_REF",
    "FAULT_CORRUPT_IMAGE",
    "FAULT_INTERRUPTED_FLASH",
    "Generation",
    "GenerationStore",
    "SLOT_A",
    "SLOT_B",
    "SlotState",
    "VERDICT_HEALTHY",
    "VERDICT_REGRESSION",
    "VERDICT_STAGE_FAILED",
    "VERDICT_UNIT_FAILURE",
    "check_slot_invariants",
    "demo_baseline",
    "demo_store",
    "demo_target",
    "device_ids",
    "diff_generations",
    "draw_update_fault",
    "judge_summary",
    "partition_waves",
    "reference_boot_ms",
    "render_rollout",
    "rollback_policy",
    "run_rollout",
]
