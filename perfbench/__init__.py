"""Benchmark of the auxmix package: workloads, tracing and the runner in ``run.py``."""
