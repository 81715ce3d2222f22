"""The repository benchmark, one workload per invocation.

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 10 --trace 0

Run from the repository root.  Inputs are generated from ``--seed``;
the timed region lasts at least ``--seconds`` (whole rounds for the batch
workloads, the whole arrival schedule for fleet-open); every output is
checked.  Human-readable lines come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` adds a traced pass and reports the
per-layer metrics, and writes a Chrome trace under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold-sweep", "fault-matrix", "design-space", "fleet-open")


def _declared() -> dict:
    """``BENCHMARK.json``: the metric names and units this run must print."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and readable lines."""
    from perfbench import batch, fleet_open
    from perfbench.harness import WORK_ROOT, median
    from perfbench.measure import TreePeakRss

    rss = TreePeakRss()
    try:
        if workload == "fleet-open":
            outcome = fleet_open.run(seed, seconds, trace, smoke, rss)
        else:
            outcome = batch.run(workload, seed, seconds, trace, smoke, rss)
    finally:
        for path in WORK_ROOT.glob(f"*-{os.getpid()}"):
            shutil.rmtree(path, ignore_errors=True)

    declared = _declared()
    section = "per_layer" if trace else "end_to_end"
    values = dict(outcome.layer) if trace else dict(
        outcome.metrics, setup_s=median(outcome.setup_s))
    names = [entry["name"] for entry in declared[section]]
    if sorted(values) != sorted(names):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(names))} disagree with "
            f"BENCHMARK.json {section}")
    metrics = {entry["name"]: {"value": float(values[entry["name"]]),
                               "unit": entry["unit"]}
               for entry in declared[section]}

    lines = [f"perfbench {workload} seed={seed} "
             f"{'traced' if trace else 'untraced'}: "
             f"attempted={outcome.attempted} failed={outcome.failed} "
             f"error_frac={outcome.failed / max(1, outcome.attempted):.4f} "
             f"digest={outcome.digest[:16]}"]
    for name, metric in metrics.items():
        count = outcome.samples.get(name)
        suffix = f"  (n={count})" if count is not None and not trace else ""
        lines.append(f"  {name:36s} {metric['value']:14.6g} "
                     f"{metric['unit']}{suffix}")
    for key, value in outcome.info.items():
        lines.append(f"  # {key}: {value}")
    result = {"correct": outcome.failed == 0,
              "attempted": outcome.attempted,
              "failed": outcome.failed,
              "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (see perfbench/README.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run "
              f"from a full checkout", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT / 'BENCHMARK.json'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    result, lines = measure(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.smoke)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
