"""Compare a revision against the working tree with alternating benchmark pairs.

    python scripts/bench_pairs.py REV WORKLOAD N [--seed K]

Checks ``REV`` out into a temporary ``git worktree`` and runs ``N`` pairs of
``perfbench/run.py --workload WORKLOAD`` (untraced, for ``BENCHMARK.json``'s
``run_seconds``): one on ``REV``, one on this checkout's working tree,
alternating which side runs first.  Both sides of pair ``i`` use seed
``K + i``.  For every end-to-end metric in
``BENCHMARK.json`` it prints each side's median and quartiles and the
fraction of pairs the working tree wins (ties count for neither side),
then whether a gain may be claimed: the working tree wins at least 9/10
of the pairs and the medians differ by more than the distance between
the quartiles of ``REV``'s runs.  Nothing under ``perfbench/`` is
modified; the worktree is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Minimum share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``; its final JSON line."""
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    if completed.returncode != 0:
        raise SystemExit(f"benchmark failed in {tree} (seed {seed}):\n"
                         f"{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def compare(parent: list[dict], change: list[dict],
            declared: list[dict]) -> list[str]:
    """Report lines for every declared end-to-end metric."""
    lines = [f"{'metric':16s} {'side':7s} {'q1':>11s} {'median':>11s} "
             f"{'q3':>11s}  wins  claim"]
    for entry in declared:
        name = entry["name"]
        higher = entry["better"] == "higher"
        old = [run["metrics"][name]["value"] for run in parent]
        new = [run["metrics"][name]["value"] for run in change]
        wins = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
        old_q = quartiles(old)
        new_q = quartiles(new)
        gain = new_q[1] - old_q[1] if higher else old_q[1] - new_q[1]
        claim = (wins >= WIN_SHARE * len(old)
                 and gain > old_q[2] - old_q[0])
        for side, (q1, median, q3) in (("parent", old_q), ("change", new_q)):
            lines.append(f"{name:16s} {side:7s} {q1:11.5g} {median:11.5g} "
                         f"{q3:11.5g}")
        lines.append(f"{'':16s} {'':7s} {'':35s}  {wins}/{len(old)}  "
                     f"{'yes' if claim else 'no'}  ({entry['unit']}, "
                     f"{entry['better']} is better)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Alternating parent/working-tree benchmark pairs.")
    parser.add_argument("rev", help="revision to compare against")
    parser.add_argument("workload")
    parser.add_argument("pairs", type=int)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        tree = Path(scratch) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet",
                        str(tree), args.rev], cwd=ROOT, check=True)
        try:
            parent: list[dict] = []
            change: list[dict] = []
            for index in range(args.pairs):
                seed = args.seed + index
                sides = [(tree, parent), (ROOT, change)]
                if index % 2:
                    sides.reverse()
                for side_tree, runs in sides:
                    runs.append(run_once(side_tree, args.workload, seed,
                                         seconds))
                print(f"pair {index + 1}/{args.pairs} seed={seed} "
                      f"correct={parent[-1]['correct']}/"
                      f"{change[-1]['correct']}", flush=True)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(tree)], cwd=ROOT, check=False)
    print(f"{args.workload}: {args.rev} vs working tree, {args.pairs} pairs "
          f"at {seconds:g} s")
    for line in compare(parent, change, declared["end_to_end"]):
        print(line)
    return 0 if all(run["correct"] for run in parent + change) else 1


if __name__ == "__main__":
    sys.exit(main())
