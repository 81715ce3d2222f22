"""Versioned, content-addressed boot-entry generations.

A **Generation** is everything that decides how a device boots — the
workload preset, the BB feature set, the core count, an optional planted
fault, and the rollback policy knobs — captured as a small declarative
document, exactly the information a boom-boot entry or an OSTree deploy
pins on a real appliance.  Generations are content-addressed: the
fingerprint is the SHA-256 of the canonical JSON encoding, deliberately
*without* the code-version salt used by run-result caches, so a store
written yesterday still resolves after the simulator's code changes
(results re-run; boot *profiles* persist).

The :class:`GenerationStore` is the on-disk side: a ``git``-shaped layout
with immutable ``objects/<fingerprint>.json`` documents plus a
``refs.json`` head table.  Commits must fast-forward (the new
generation's ``parent`` names the current head), which gives every ref a
linear history that :meth:`GenerationStore.rollback` can walk backwards —
``store.rollback()`` immediately after ``store.commit(g)`` hands ``g``
back, the round-trip the ``generation-identity`` verify group pins.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Iterator

from repro.analysis.schema import validate_generation_dict
from repro.canonical import canonical_json
from repro.core.config import BBConfig
from repro.errors import GenerationError, SchemaError

#: Default ref name, mirroring the git convention.
DEFAULT_REF = "main"


@dataclass(frozen=True, slots=True)
class Generation:
    """One immutable boot profile.

    Attributes:
        label: Human-facing release name (``"gen-2"``, ``"2026.08"``).
        workload: Registry name of the device workload preset.
        features: Sorted, duplicate-free BB feature names to enable.
        cores: CPU core override (``None`` = workload default).
        fault: Optional planted defect as ``(preset, seed)`` — how update
            regressions enter the simulation (a generation whose unit set
            is broken ships a fault preset).
        max_boot_attempts: Health-check boots the A/B machinery allows
            the trial slot before declaring it failed.
        regression_threshold: Rollback fires when measured boot time
            exceeds ``threshold x`` the previous generation's predicted
            boot time.
        parent: Fingerprint of the generation this one updates
            (``None`` for a root).
        notes: Free-form release notes (fingerprinted like everything
            else: two releases differing only in notes are different
            generations).
    """

    label: str
    workload: str = "tv"
    features: tuple[str, ...] = ()
    cores: int | None = None
    fault: tuple[str, int] | None = None
    max_boot_attempts: int = 3
    regression_threshold: float = 1.10
    parent: str | None = None
    notes: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "features",
                           tuple(sorted(set(self.features))))
        if self.fault is not None:
            preset, seed = self.fault
            object.__setattr__(self, "fault", (str(preset), int(seed)))
        try:
            validate_generation_dict(self.to_dict(),
                                     where=f"generation {self.label!r}")
        except SchemaError as exc:
            raise GenerationError(str(exc)) from exc
        self._check_names()

    def _check_names(self) -> None:
        """Names must resolve now, not when a campaign is half-done."""
        from repro.faults import PRESETS
        from repro.workloads import WORKLOAD_FACTORIES

        if self.workload not in WORKLOAD_FACTORIES:
            raise GenerationError(
                f"generation {self.label!r}: unknown workload "
                f"{self.workload!r}; choose from "
                f"{', '.join(sorted(WORKLOAD_FACTORIES))}")
        known = {f.name for f in fields(BBConfig)}
        for feature in self.features:
            if feature not in known:
                raise GenerationError(
                    f"generation {self.label!r}: unknown BB feature "
                    f"{feature!r}")
        if self.fault is not None and self.fault[0] not in PRESETS:
            raise GenerationError(
                f"generation {self.label!r}: unknown fault preset "
                f"{self.fault[0]!r}; choose from {', '.join(sorted(PRESETS))}")

    # ------------------------------------------------------------ documents

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view (shape pinned by ``GENERATION_KEYS``)."""
        return {
            "label": self.label,
            "workload": self.workload,
            "features": list(self.features),
            "cores": self.cores,
            "fault": (None if self.fault is None
                      else {"preset": self.fault[0], "seed": self.fault[1]}),
            "max_boot_attempts": self.max_boot_attempts,
            "regression_threshold": self.regression_threshold,
            "parent": self.parent,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, document: Any) -> "Generation":
        """Parse and validate a stored/wire document."""
        try:
            validate_generation_dict(document)
        except SchemaError as exc:
            raise GenerationError(str(exc)) from exc
        fault = document["fault"]
        return cls(
            label=document["label"],
            workload=document["workload"],
            features=tuple(document["features"]),
            cores=document["cores"],
            fault=(None if fault is None
                   else (fault["preset"], fault["seed"])),
            max_boot_attempts=document["max_boot_attempts"],
            regression_threshold=document["regression_threshold"],
            parent=document["parent"],
            notes=document["notes"],
        )

    def canonical_bytes(self) -> bytes:
        """The canonical encoding that gets fingerprinted and stored."""
        return canonical_json(self.to_dict())

    def fingerprint(self) -> str:
        """Content address: SHA-256 of the canonical document bytes."""
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def with_parent(self, parent: str | None) -> "Generation":
        """Copy re-parented for a commit onto another head."""
        return replace(self, parent=parent)

    # ---------------------------------------------------------- simulation

    def bb(self) -> BBConfig:
        """The BB feature switchboard this generation boots under."""
        config = BBConfig.none()
        for feature in self.features:
            config = config.with_feature(feature, True)
        return config

    def fault_plan(self):
        """Compiled fault plan of the planted defect (``None`` if clean)."""
        if self.fault is None:
            return None
        from repro.faults import build_preset
        return build_preset(self.fault[0], seed=self.fault[1])

    def boot_spec(self, repeat: int = 1, label: str = "") -> dict[str, Any]:
        """This generation's boot as a declarative fleet wire spec."""
        spec: dict[str, Any] = {
            "kind": "boot",
            "workload": self.workload,
            "bb": list(self.features),
            "label": label or f"{self.label}@{self.fingerprint()[:12]}",
        }
        if self.cores is not None:
            spec["cores"] = self.cores
        if self.fault is not None:
            spec["fault"] = {"preset": self.fault[0], "seed": self.fault[1]}
        if repeat != 1:
            spec["repeat"] = repeat
        return spec

    def boot_job(self):
        """This generation's boot as a :class:`~repro.runner.jobs.SimJob`."""
        from repro.fleet.protocol import job_from_spec
        job, _ = job_from_spec(self.boot_spec())
        return job


class GenerationStore:
    """On-disk generation history: content-addressed objects + ref heads.

    Layout under ``root``::

        objects/<sha256>.json    immutable generation documents
        refs.json                {"main": "<sha256>", ...}

    Every read re-fingerprints the document, so silent corruption (or a
    hand-edited object file) surfaces as :class:`GenerationError` instead
    of a device booting an image it never agreed to.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def refs_path(self) -> Path:
        return self.root / "refs.json"

    @property
    def initialized(self) -> bool:
        return self.objects_dir.is_dir() and self.refs_path.is_file()

    @classmethod
    def init(cls, root: str | Path) -> "GenerationStore":
        """Create an empty store; refuses to clobber an existing one."""
        store = cls(root)
        if store.initialized:
            raise GenerationError(
                f"generation store already initialized at {store.root}")
        store.objects_dir.mkdir(parents=True, exist_ok=True)
        store._save_refs({})
        return store

    def _require_initialized(self) -> None:
        if not self.initialized:
            raise GenerationError(
                f"no generation store at {self.root} "
                f"(run 'repro generations init' first)")

    def _load_refs(self) -> dict[str, str]:
        self._require_initialized()
        try:
            refs = json.loads(self.refs_path.read_text(encoding="ascii"))
        except (ValueError, OSError) as exc:
            raise GenerationError(
                f"unreadable refs table {self.refs_path}: {exc}") from exc
        if not isinstance(refs, dict) or any(
                not isinstance(k, str) or not isinstance(v, str)
                for k, v in refs.items()):
            raise GenerationError(
                f"malformed refs table {self.refs_path}: {refs!r}")
        return refs

    def _save_refs(self, refs: dict[str, str]) -> None:
        # The refs table is the store's single mutable file: a torn
        # write here orphans every ref at once.  The journal's atomic
        # write (temp + fsync + rename + guarded directory fsync — the
        # guard matters on platforms where directories cannot be
        # opened) means a crash at any instant leaves either the old
        # complete table or the new complete table, never a prefix.
        from repro.fleet.journal import atomic_write_bytes

        payload = json.dumps(dict(sorted(refs.items())), indent=2,
                             sort_keys=True) + "\n"
        atomic_write_bytes(self.refs_path, payload.encode("ascii"))

    # -------------------------------------------------------------- objects

    def put(self, generation: Generation) -> str:
        """Store one generation; returns its fingerprint (idempotent)."""
        self._require_initialized()
        fingerprint = generation.fingerprint()
        path = self.objects_dir / f"{fingerprint}.json"
        if not path.exists():
            path.write_bytes(generation.canonical_bytes() + b"\n")
        return fingerprint

    def get(self, fingerprint: str) -> Generation:
        """Load one generation, verifying its content address."""
        self._require_initialized()
        path = self.objects_dir / f"{fingerprint}.json"
        if not path.is_file():
            raise GenerationError(f"unknown generation {fingerprint!r}")
        try:
            document = json.loads(path.read_bytes())
        except ValueError as exc:
            raise GenerationError(
                f"corrupt generation object {path.name}: {exc}") from exc
        generation = Generation.from_dict(document)
        actual = generation.fingerprint()
        if actual != fingerprint:
            raise GenerationError(
                f"generation object {path.name} is tampered: content "
                f"fingerprints to {actual[:12]}")
        return generation

    def fingerprints(self) -> list[str]:
        """Every stored object's fingerprint, sorted."""
        self._require_initialized()
        return sorted(path.stem for path in self.objects_dir.glob("*.json"))

    # ----------------------------------------------------------------- refs

    def refs(self) -> dict[str, str]:
        """The ref table (``name -> head fingerprint``), sorted."""
        return dict(sorted(self._load_refs().items()))

    def head(self, ref: str = DEFAULT_REF) -> str | None:
        """Current head fingerprint of ``ref`` (``None`` if unborn)."""
        return self._load_refs().get(ref)

    def resolve(self, name: str, ref: str = DEFAULT_REF) -> str:
        """Resolve a ref name or (unique) fingerprint prefix."""
        refs = self._load_refs()
        if name in refs:
            return refs[name]
        matches = [fp for fp in self.fingerprints() if fp.startswith(name)]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise GenerationError(
                f"ambiguous generation prefix {name!r} "
                f"({len(matches)} matches)")
        raise GenerationError(f"cannot resolve generation {name!r}")

    def commit(self, generation: Generation, ref: str = DEFAULT_REF) -> str:
        """Fast-forward ``ref`` onto ``generation``; returns the new head.

        The generation's ``parent`` must name the current head (or be
        ``None`` for an unborn ref) — there are no merges in an A/B boot
        history, only a line of releases.
        """
        refs = self._load_refs()
        head = refs.get(ref)
        if generation.parent != head:
            raise GenerationError(
                f"non-fast-forward commit on {ref!r}: parent is "
                f"{generation.parent!r}, head is {head!r} "
                f"(re-parent with Generation.with_parent)")
        if head is not None:
            head_generation = self.get(head)
            if generation.with_parent(head_generation.parent) \
                    == head_generation:
                raise GenerationError(
                    f"empty commit on {ref!r}: {generation.label!r} is "
                    f"identical to the current head")
        fingerprint = self.put(generation)
        refs[ref] = fingerprint
        self._save_refs(refs)
        return fingerprint

    def rollback(self, ref: str = DEFAULT_REF) -> Generation:
        """Pop ``ref`` back to its parent; returns the popped generation.

        The popped object stays in ``objects/`` (content-addressed stores
        never lose history), so ``rollback(commit(g)) == g`` round-trips.
        """
        refs = self._load_refs()
        head = refs.get(ref)
        if head is None:
            raise GenerationError(f"ref {ref!r} has no generations "
                                  f"to roll back")
        generation = self.get(head)
        if generation.parent is None:
            del refs[ref]
        else:
            refs[ref] = generation.parent
        self._save_refs(refs)
        return generation

    def log(self, ref: str = DEFAULT_REF) -> Iterator[Generation]:
        """Walk ``ref`` head -> root, yielding each generation."""
        fingerprint = self.head(ref)
        seen: set[str] = set()
        while fingerprint is not None:
            if fingerprint in seen:
                raise GenerationError(
                    f"generation history of {ref!r} contains a cycle "
                    f"at {fingerprint[:12]}")
            seen.add(fingerprint)
            generation = self.get(fingerprint)
            yield generation
            fingerprint = generation.parent


def diff_generations(old: Generation, new: Generation) -> dict[str, Any]:
    """Field-by-field delta (``field -> {"old": ..., "new": ...}``)."""
    old_doc, new_doc = old.to_dict(), new.to_dict()
    return {key: {"old": old_doc[key], "new": new_doc[key]}
            for key in sorted(old_doc)
            if old_doc[key] != new_doc[key]}
