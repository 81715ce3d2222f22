"""The canonical encodings every fingerprint, comparison and draw uses.

Byte identity is this project's correctness oracle: a cached result, a
branched suffix, a fleet payload and a serial replay must all encode to
the same bytes.  Each encoding lives here once, so every caller compares
through the same function:

* :func:`canonical_repr` — the process-independent text that job and
  fault-plan fingerprints hash,
* :func:`canonical_bytes` — the pickle-based encoding of simulation
  results used for every identity comparison,
* :func:`canonical_json` — sorted-key compact JSON for documents that are
  hashed, stored or compared (generations, journal records, wire frames,
  OTA and campaign reports),
* :func:`unit_draw` — the seeded uniform variate behind every
  probabilistic fault, jitter and backoff decision.

Stdlib only: nothing here may depend on the simulator, because the
simulator's own fingerprints depend on it.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import pickle
from typing import Any


def canonical_repr(obj: Any) -> str:
    """A process-independent textual encoding of ``obj``.

    ``repr`` alone is not stable for sets of enum members (iteration order
    follows identity hashes, which change per process), so containers are
    sorted and enums/callables are encoded by name.
    """
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__qualname__}.{obj.name}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        inner = ",".join(
            f"{f.name}={canonical_repr(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj))
        return f"{type(obj).__qualname__}({inner})"
    if isinstance(obj, (frozenset, set)):
        return "{" + ",".join(sorted(canonical_repr(x) for x in obj)) + "}"
    if isinstance(obj, dict):
        items = sorted((canonical_repr(k), canonical_repr(v))
                       for k, v in obj.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(canonical_repr(x) for x in obj) + ")"
    if callable(obj):
        return f"{obj.__module__}:{obj.__qualname__}"
    return repr(obj)


def canonical_bytes(value: Any) -> bytes:
    """Canonical byte encoding of a result, for identity comparisons.

    ``pickle.dumps`` alone is *not* canonical for values containing sets:
    a frozenset's iteration order depends on its insertion history, so an
    otherwise equal report that crossed a process boundary (fork pipe,
    worker pool, disk cache) can re-pickle with its set elements permuted.
    This helper rewrites sets as sorted tuples (recursively, through
    dataclasses and containers) before pickling, making equal values
    encode to equal bytes regardless of how many round-trips they took.
    Dict order is preserved — it reflects deterministic event order and
    *should* participate in the comparison.
    """
    return pickle.dumps(_canonical(value), protocol=pickle.HIGHEST_PROTOCOL)


def _canonical(value: Any) -> Any:
    if isinstance(value, (set, frozenset)):
        return ("__set__", tuple(sorted((_canonical(v) for v in value),
                                        key=repr)))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__qualname__,
                tuple((f.name, _canonical(getattr(value, f.name)))
                      for f in dataclasses.fields(value)))
    if isinstance(value, dict):
        return ("__dict__", tuple((_canonical(k), _canonical(v))
                                  for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_canonical(v) for v in value))
    return value


def canonical_json(document: Any) -> bytes:
    """Sorted-key, whitespace-free, ASCII-only JSON of ``document``."""
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")).encode("ascii")


def unit_draw(key: str) -> float:
    """A uniform [0, 1) variate that is a pure function of ``key``.

    The first 8 bytes of ``sha256(key)``: stable across processes and
    Python hash randomization, and independent of draw order.  Callers
    address a decision by building ``key`` from their seed and the
    decision point.
    """
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64
