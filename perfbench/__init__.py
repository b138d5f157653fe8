"""Benchmark of the ``relaxed_polar`` package: workloads, checks and tracing.

Run from the repository root::

    python3 perfbench/run.py --workload closed_form_mix --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the baseline.
"""
