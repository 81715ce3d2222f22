"""Tests for the pairwise benchmark comparison script's statistics."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load():
    path = REPO_ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(name, values):
    return [{"correct": True, "metrics": {name: {"value": v, "unit": "1/s"}}}
            for v in values]


DECLARED = [{"name": "cells_per_s", "unit": "1/s", "better": "higher"}]


def test_quartiles_inclusive():
    bench_pairs = _load()
    assert bench_pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_claim_needs_nine_tenths_of_wins_and_a_gap_beyond_the_spread():
    bench_pairs = _load()
    parent = _runs("cells_per_s", [20, 21, 22, 23, 24, 20, 21, 22, 23, 24])
    faster = _runs("cells_per_s", [30, 31, 32, 33, 34, 30, 31, 32, 33, 19])
    lines = bench_pairs.compare(parent, faster, DECLARED)
    assert "9/10  yes" in lines[-1]
    # Eight wins of ten are not enough, however large the gap.
    two_losses = _runs("cells_per_s", [30, 31, 32, 33, 34, 30, 31, 32, 1, 1])
    assert "8/10  no" in bench_pairs.compare(parent, two_losses, DECLARED)[-1]
    # Every pair won, but by less than the parent's quartile spread.
    marginal = _runs("cells_per_s", [v + 0.5 for v in
                                     (20, 21, 22, 23, 24, 20, 21, 22, 23, 24)])
    assert "10/10  no" in bench_pairs.compare(parent, marginal, DECLARED)[-1]


def test_lower_is_better_metrics_count_drops_as_wins():
    bench_pairs = _load()
    declared = [{"name": "latency_p50_ms", "unit": "ms", "better": "lower"}]
    parent = _runs("latency_p50_ms", [10.0] * 10)
    change = _runs("latency_p50_ms", [5.0] * 10)
    assert "10/10  yes" in bench_pairs.compare(parent, change, declared)[-1]
