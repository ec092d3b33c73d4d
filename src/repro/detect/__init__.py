"""Streaming statistics and drift detection.

Guardrail rules are expressed over aggregates ("average page-fault latency
over every 10 seconds", "accuracy over a window", "inputs in distribution").
This package provides the constant-memory streaming estimators those
aggregates are built from: moving averages, EWMA, Welford summaries, P²
streaming quantiles, fixed-bin histograms, rate counters, and
distribution-drift metrics (KS, PSI) against training references.
"""

from repro.detect.drift import ks_statistic, population_stability_index
from repro.detect.histogram import Histogram
from repro.detect.quantiles import P2Quantile
from repro.detect.reference import ReferenceDistribution
from repro.detect.streaming import Ewma, MovingAverage, RateCounter

__all__ = [
    "ks_statistic",
    "population_stability_index",
    "Histogram",
    "P2Quantile",
    "ReferenceDistribution",
    "Ewma",
    "MovingAverage",
    "RateCounter",
]
