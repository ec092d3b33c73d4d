"""The repo's performance benchmark: six workloads, measured from outside.

Run ``PYTHONPATH=src python -m benchmarks.perf --seed 42`` from the repo
root (see ``README.md`` in this directory for the workloads, the metrics
and what a later change may claim from them).  Nothing here is imported by
``src/``; every layer is timed by calling its public functions from these
files, and the traced run wraps them at class level and restores them.
"""
