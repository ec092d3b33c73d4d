"""Benchmark harness: experiment scenarios, paper-style rows, and the
parallel ``grctl bench`` runner with its BENCH.json result format.

The package namespace is empty on purpose: ``scenarios`` pulls in the
kernel and numpy, and ``results``/``runner`` must import fast inside
worker processes, so import each submodule explicitly where it is needed.
"""
