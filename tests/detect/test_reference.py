"""Reference (training) distributions."""

import numpy as np
import pytest

from repro.detect.drift import population_stability_index
from repro.detect.reference import ReferenceDistribution


def test_from_samples_pads_range():
    ref = ReferenceDistribution.from_samples("f", [0, 50, 100, 75], margin=0.1)
    assert ref.lo == pytest.approx(-10)
    assert ref.hi == pytest.approx(110)


def test_too_few_samples_raises():
    with pytest.raises(ValueError, match="at least 4"):
        ReferenceDistribution.from_samples("f", [1, 2, 3])


def test_constant_samples_get_nonzero_span():
    ref = ReferenceDistribution.from_samples("f", [5.0, 5.0, 5.0, 5.0])
    assert ref.lo < 5.0 < ref.hi


def test_zero_constant_samples():
    ref = ReferenceDistribution.from_samples("f", [0.0] * 10)
    assert ref.lo < ref.hi


def test_live_histogram_compatible_and_usable():
    rng = np.random.default_rng(0)
    samples = rng.normal(10, 2, 1000)
    ref = ReferenceDistribution.from_samples("f", samples)
    live = ref.new_live_histogram()
    assert ref.histogram.compatible_with(live)
    live.update_many(rng.normal(10, 2, 1000))
    assert population_stability_index(ref.histogram, live) < 0.1


def test_repr_mentions_name():
    ref = ReferenceDistribution.from_samples("lat", [1, 2, 3, 4])
    assert "lat" in repr(ref)
