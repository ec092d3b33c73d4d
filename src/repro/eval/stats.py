"""Statistics for guardrail-quality scoring.

Three tools, all exact/deterministic:

- :func:`wilson_interval` — the score interval for a binomial proportion.
  Eval sample sizes are small (a dozen clean rollout seeds), where the
  familiar normal approximation is badly anti-conservative; Wilson behaves
  at n=1 and at p-hat of 0 or 1.
- :func:`paired_permutation_pvalue` — a seeded sign-flip permutation test
  for paired per-episode outcomes (config A vs config B on the same
  episodes).  No distributional assumptions, and a fixed seed makes the
  p-value reproducible byte-for-byte.
- :func:`precision_recall_f1` — confusion-count arithmetic with the usual
  zero-denominator conventions.
"""

import math
import random


#: Normal quantile of the two-sided 95% interval.
Z = 1.96


def wilson_interval(successes, n):
    """95% Wilson score interval for ``successes``/``n``; returns
    ``(lo, hi)``.

    ``n=0`` returns the vacuous ``(0.0, 1.0)`` — no data constrains
    nothing — rather than raising, so callers can annotate empty cells.
    """
    if n < 0:
        raise ValueError("n must be >= 0, got {}".format(n))
    if not 0 <= successes <= n:
        raise ValueError(
            "successes must be in [0, n], got {}/{}".format(successes, n))
    if n == 0:
        return (0.0, 1.0)
    p = successes / n
    z2 = Z * Z
    denominator = 1.0 + z2 / n
    centre = (p + z2 / (2.0 * n)) / denominator
    spread = (Z / denominator) * math.sqrt(
        p * (1.0 - p) / n + z2 / (4.0 * n * n))
    return (max(0.0, centre - spread), min(1.0, centre + spread))


def paired_permutation_pvalue(scores_a, scores_b, seed=0, rounds=10_000):
    """Two-sided paired permutation test on per-episode score pairs.

    ``scores_a``/``scores_b`` are equal-length sequences (e.g. 0/1
    correctness of two gate configs on the same episodes).  Under the
    null the pair labels are exchangeable, so each pair's difference has
    its sign flipped with probability 1/2; the p-value is the fraction of
    sign assignments whose |mean difference| is at least the observed
    one.  With every difference zero the configs are indistinguishable
    and the p-value is 1.0.  The RNG is seeded, so reruns match exactly.
    """
    if len(scores_a) != len(scores_b):
        raise ValueError("paired samples must have equal length, got {}/{}"
                         .format(len(scores_a), len(scores_b)))
    diffs = [a - b for a, b in zip(scores_a, scores_b)]
    if not any(diffs):
        return 1.0
    observed = abs(sum(diffs) / len(diffs))
    rng = random.Random(seed)
    at_least = 0
    for _ in range(rounds):
        total = 0.0
        for diff in diffs:
            total += diff if rng.random() < 0.5 else -diff
        if abs(total / len(diffs)) >= observed - 1e-12:
            at_least += 1
    # +1/+1 smoothing: the identity permutation always ties the observed
    # statistic, so the p-value can never be reported as 0.
    return (at_least + 1) / (rounds + 1)


def precision_recall_f1(tp, fp, fn):
    """Precision/recall/F1 from confusion counts (0.0 on empty cells)."""
    if min(tp, fp, fn) < 0:
        raise ValueError("confusion counts must be >= 0")
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    if precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return {"precision": precision, "recall": recall, "f1": f1}


__all__ = ["paired_permutation_pvalue", "precision_recall_f1",
           "wilson_interval"]
