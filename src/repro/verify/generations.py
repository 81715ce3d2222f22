"""Generation-identity verification: rollouts replay, stores round-trip.

Two oracles pin the OTA layer (:mod:`repro.generations`):

1. **Serial == fleet rollout.**  The same campaign staged through the
   async fleet service must produce a report byte-identical to the
   serial-runner path — the execution tier may dedup, cache, batch and
   stream however it likes, but the campaign's *decisions* (health
   verdicts, rollbacks, final slot states) may not move by a byte.  Run
   for both a regressing target (rollbacks fire) and a clean one (no
   false positives).
2. **Store round-trips.**  ``rollback(commit(g)) == g`` through the
   on-disk :class:`~repro.generations.GenerationStore`, and every loaded
   object re-fingerprints to its own content address.
"""

from __future__ import annotations

import tempfile

from repro.canonical import canonical_json
from repro.generations import (Generation, GenerationStore, demo_store,
                               run_rollout)


def check_generation_identity(smoke: bool = False
                              ) -> tuple[list[str], int, int]:
    """Run both oracles; returns ``(violations, boots, checks)``."""
    violations: list[str] = []
    boots = 0
    checks = 0
    devices = 6 if smoke else 12
    waves = 2 if smoke else 3

    # ------------------------------------------- serial vs fleet rollouts
    for kind in ("regressed", "clean"):
        with tempfile.TemporaryDirectory() as tmp:
            store = demo_store(tmp, kind)
            serial = run_rollout(store, devices=devices, waves=waves)
            fleet = run_rollout(store, devices=devices, waves=waves,
                                use_fleet=True, jobs=2)
            # Each path boots the unique trial once (plus the rollback
            # re-verification boots on the regressed target).
            boots += 2 * sum(wave["unique_boots"]
                             for wave in serial["waves"])
            checks += 1
            if canonical_json(serial) != canonical_json(fleet):
                violations.append(
                    f"generation-identity/{kind}: fleet rollout report "
                    f"differs from the serial replay")
            checks += 1
            if kind == "clean" and serial["rollbacks"] != 0:
                violations.append(
                    f"generation-identity/clean: {serial['rollbacks']} "
                    f"false-positive rollbacks on an unchanged boot "
                    f"profile")
            if kind == "regressed" and serial["rollbacks"] == 0:
                violations.append(
                    "generation-identity/regressed: planted regression "
                    "produced no rollbacks")

    # ------------------------------------------------- store round-trips
    with tempfile.TemporaryDirectory() as tmp:
        store = GenerationStore.init(tmp)
        head = None
        committed: list[tuple[str, Generation]] = []
        for index, features in enumerate((("preparser",),
                                          ("preparser", "rcu_booster"),
                                          ())):
            generation = Generation(label=f"rt-{index}", workload="tv",
                                    features=features, parent=head,
                                    notes=f"round-trip probe {index}")
            head = store.commit(generation)
            committed.append((head, generation))
        for fingerprint, generation in committed:
            checks += 1
            if store.get(fingerprint) != generation:
                violations.append(
                    f"generation-identity: object {fingerprint[:12]} "
                    f"loads unequal to what was committed")
        for fingerprint, generation in reversed(committed):
            popped = store.rollback()
            checks += 1
            if popped != generation:
                violations.append(
                    f"generation-identity: rollback(commit(g)) returned "
                    f"{popped.label!r}, expected {generation.label!r}")
        checks += 1
        if store.head() is not None:
            violations.append(
                f"generation-identity: ref still points at "
                f"{store.head()!r} after rolling back every commit")
    return violations, boots, checks
