"""Fixed-bin histogram for distribution comparisons.

Used by the in-distribution property (P1): the training pipeline records a
reference histogram of each input feature; at run time the monitor feeds the
live feature values into a matching histogram and compares the two with PSI
or the KS statistic.
"""

import math
import operator


class Histogram:
    """Counts over ``bins`` equal-width bins spanning ``[lo, hi]``.

    Values outside the range land in dedicated underflow/overflow bins so
    out-of-range mass is visible rather than silently clipped.
    """

    def __init__(self, lo, hi, bins):
        if not lo < hi:
            raise ValueError("need lo < hi, got [{}, {}]".format(lo, hi))
        if bins < 1:
            raise ValueError("bins must be >= 1, got {}".format(bins))
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins = bins
        self._width = (self.hi - self.lo) / bins
        self.counts = [0] * bins
        self.underflow = 0
        self.overflow = 0
        self.total = 0

    def update(self, value):
        self.total += 1
        if value < self.lo:
            self.underflow += 1
        elif value >= self.hi:
            self.overflow += 1
        else:
            index = int((value - self.lo) / self._width)
            # Guard the hi-edge float case.
            if index == self.bins:
                index -= 1
            self.counts[index] += 1

    def update_many(self, values):
        for value in values:
            self.update(value)

    def proportions(self, floor=1e-6):
        """Per-bin fractions including under/overflow, floored away from 0.

        The floor keeps PSI finite when a bin is empty on one side.
        """
        denominator = max(self.total, 1)
        raw = [self.underflow] + self.counts + [self.overflow]
        return [max(c / denominator, floor) for c in raw]

    def cdf(self):
        """Cumulative fractions at each bin edge (underflow first)."""
        denominator = max(self.total, 1)
        out = []
        acc = 0
        for c in [self.underflow] + self.counts + [self.overflow]:
            acc += c
            out.append(acc / denominator)
        return out

    def out_of_range_fraction(self):
        if self.total == 0:
            return 0.0
        return (self.underflow + self.overflow) / self.total

    def quantile(self, q):
        """Approximate ``q`` quantile (0 <= q <= 1) from the bin counts.

        Linear interpolation inside the containing bin; mass in the
        underflow/overflow bins maps to the range edges (the histogram does
        not know how far out it lies).  NaN when empty.  Error is bounded by
        one bin width, which is what makes merged fleet-wide quantiles
        trustworthy: counts merge exactly, so the merged estimate equals the
        single-histogram estimate of the concatenated stream.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1], got {}".format(q))
        if self.total == 0:
            return math.nan
        target = q * self.total
        if target <= self.underflow:
            return self.lo
        acc = self.underflow
        for index, count in enumerate(self.counts):
            if count and acc + count >= target:
                frac = (target - acc) / count
                return self.lo + self._width * (index + frac)
            acc += count
        return self.hi

    def merge(self, other):
        """Fold ``other``'s counts into this histogram (exact).

        Both histograms must share bounds and bin count; mismatched sketches
        raise ``ValueError`` rather than silently blending incomparable
        distributions.  Returns ``self`` for chaining.
        """
        if not self.compatible_with(other):
            raise ValueError(
                "cannot merge incompatible histograms: "
                "[{}, {}]x{} vs [{}, {}]x{}".format(
                    self.lo, self.hi, self.bins,
                    getattr(other, "lo", "?"), getattr(other, "hi", "?"),
                    getattr(other, "bins", "?")))
        self.counts[:] = map(operator.add, self.counts, other.counts)
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.total += other.total
        return self

    def to_json(self):
        """Exact state dump; counts are integers so the round trip is exact."""
        return {"lo": self.lo, "hi": self.hi, "bins": self.bins,
                "counts": list(self.counts), "underflow": self.underflow,
                "overflow": self.overflow}

    @classmethod
    def from_json(cls, data):
        histogram = cls(data["lo"], data["hi"], data["bins"])
        counts = list(map(int, data["counts"]))
        if len(counts) != histogram.bins:
            raise ValueError(
                "histogram state has {} counts for {} bins".format(
                    len(counts), histogram.bins))
        histogram.counts = counts
        histogram.underflow = int(data["underflow"])
        histogram.overflow = int(data["overflow"])
        histogram.total = (sum(counts) + histogram.underflow
                           + histogram.overflow)
        return histogram

    def compatible_with(self, other):
        return (
            isinstance(other, Histogram)
            and math.isclose(self.lo, other.lo)
            and math.isclose(self.hi, other.hi)
            and self.bins == other.bins
        )

    def reset(self):
        self.counts = [0] * self.bins
        self.underflow = 0
        self.overflow = 0
        self.total = 0
