"""The repository benchmark: four seeded workloads, end to end and per layer.

Run it from the repository root as ``python3 perfbench/run.py --workload
NAME --seed N --seconds S --trace 0|1``.  ``perfbench/README.md`` explains
the workloads, the metrics and how to read the output; ``BENCHMARK.json``
at the repository root declares them.
"""
