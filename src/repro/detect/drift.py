"""Distribution drift metrics over histograms.

The paper's P1 property says model output should be used only while inputs
stay in-distribution, checked by "tracking statistical properties of the
input features (range, quartiles, etc.) and periodically ensuring they match
training data".  These functions implement those checks over
:class:`repro.detect.histogram.Histogram` pairs.
"""

import math


def population_stability_index(reference, live):
    """PSI between a reference histogram and a live histogram.

    PSI < 0.1 is conventionally "no shift", 0.1-0.25 "moderate", > 0.25
    "major shift".
    """
    _require_compatible(reference, live)
    psi = 0.0
    for p_ref, p_live in zip(reference.proportions(), live.proportions()):
        psi += (p_live - p_ref) * math.log(p_live / p_ref)
    return psi


def ks_statistic(reference, live):
    """Kolmogorov–Smirnov statistic (max CDF gap) between two histograms."""
    _require_compatible(reference, live)
    return max(abs(a - b) for a, b in zip(reference.cdf(), live.cdf()))


def _require_compatible(reference, live):
    if not reference.compatible_with(live):
        raise ValueError(
            "histograms are not comparable: [{}, {}]x{} vs [{}, {}]x{}".format(
                reference.lo, reference.hi, reference.bins,
                live.lo, live.hi, live.bins,
            )
        )
