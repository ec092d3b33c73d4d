"""Labelled guardrail-quality evaluation (``grctl eval``).

The paper's pitch is that lightweight guardrails make learned OS policies
safe to deploy; this package measures whether *our* guardrails actually
earn that trust.  A versioned labelled dataset (``eval/dataset.jsonl``)
pins down episodes — single-host property probes and staged fleet
rollouts — each with an expected verdict (``trip`` / ``allow`` /
``inconclusive``).  The :class:`~repro.eval.runner.EvalRunner` executes
them through the existing sim/fleet machinery, scores precision/recall/F1
and per-gate-axis false-trip rates with Wilson intervals, and
:mod:`repro.eval.calibrate` sweeps :class:`~repro.fleet.rollout.GateConfig`
thresholds over the recorded measurements to justify (and reproduce) the
committed gate defaults.
"""

from repro.eval.calibrate import calibrate, compare_configs
from repro.eval.dataset import DatasetError, check_dataset, load_dataset
from repro.eval.results import (
    compare_to_baseline,
    load_document,
)
from repro.eval.runner import run_eval
from repro.eval.stats import (
    paired_permutation_pvalue,
    precision_recall_f1,
    wilson_interval,
)

__all__ = [
    "DatasetError",
    "calibrate",
    "check_dataset",
    "compare_configs",
    "compare_to_baseline",
    "load_dataset",
    "load_document",
    "paired_permutation_pvalue",
    "precision_recall_f1",
    "run_eval",
    "wilson_interval",
]
