"""Reference (training-time) distribution of a model feature.

Built once from the training set, a :class:`ReferenceDistribution` is what a
P1 in-distribution guardrail compares live inputs against.  It stores the
range and a histogram of each feature, and can manufacture an empty live
histogram with matching bins.
"""

from repro.detect.histogram import Histogram


class ReferenceDistribution:
    """Summary of one feature's training distribution."""

    def __init__(self, name, lo, hi, histogram):
        self.name = name
        self.lo = lo
        self.hi = hi
        self.histogram = histogram

    @classmethod
    def from_samples(cls, name, samples, bins=32, margin=0.05):
        """Summarize training ``samples``, padding the range by ``margin``.

        The pad keeps benign values just past the observed extremes from
        registering as out-of-range.
        """
        values = sorted(float(v) for v in samples)
        if len(values) < 4:
            raise ValueError(
                "need at least 4 samples to build a reference for {!r}, got {}"
                .format(name, len(values))
            )
        lo, hi = values[0], values[-1]
        span = hi - lo
        if span == 0:
            span = abs(hi) if hi != 0 else 1.0
        lo -= span * margin
        hi += span * margin
        histogram = Histogram(lo, hi, bins)
        histogram.update_many(values)
        return cls(name, lo, hi, histogram)

    def new_live_histogram(self):
        """An empty histogram with identical binning, for live samples."""
        return Histogram(self.histogram.lo, self.histogram.hi, self.histogram.bins)

    def __repr__(self):
        return "ReferenceDistribution({!r}, [{:.3g}, {:.3g}])".format(
            self.name, self.lo, self.hi
        )
