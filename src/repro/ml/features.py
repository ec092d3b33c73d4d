"""Feature normalization fit at train time, reapplied at inference.

Also the natural place to expose training-distribution summaries: the P1
in-distribution guardrail compares live inputs against
:class:`~repro.detect.reference.ReferenceDistribution` objects built from
the same samples the normalizer was fit on.
"""

from repro.detect.reference import ReferenceDistribution
from repro.ml.mlp import as_float_rows


class Normalizer:
    """Per-feature standardization: ``(x - mean) / std``."""

    def __init__(self):
        self.mean = None
        self.std = None
        self.feature_count = None

    def fit(self, x):
        x = as_float_rows(x)
        self.mean = x.mean(axis=0)
        std = x.std(axis=0)
        std[std == 0] = 1.0
        self.std = std
        self.feature_count = x.shape[1]
        return self

    @property
    def fitted(self):
        return self.mean is not None

    def transform(self, x):
        if not self.fitted:
            raise RuntimeError("normalizer is not fitted")
        x = as_float_rows(x)
        if x.shape[1] != self.feature_count:
            raise ValueError(
                "expected {} features, got {}".format(self.feature_count, x.shape[1])
            )
        return (x - self.mean) / self.std

    def fit_transform(self, x):
        return self.fit(x).transform(x)

    def references(self, x, names=None, bins=32):
        """Build a P1 reference distribution per feature from samples ``x``."""
        x = as_float_rows(x)
        if names is None:
            names = ["feature_{}".format(i) for i in range(x.shape[1])]
        if len(names) != x.shape[1]:
            raise ValueError(
                "{} names for {} features".format(len(names), x.shape[1])
            )
        return [
            ReferenceDistribution.from_samples(name, x[:, i], bins=bins)
            for i, name in enumerate(names)
        ]
