"""Benchmark for the nystream streaming sketch.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints its metrics; ``perfbench/spread.py`` runs
several seeds and summarises the run-to-run spread.  Metric definitions,
bounds and the per-layer prediction map live in ``perfbench/metrics.json``.
"""
