"""Feature normalization fit at train time, reapplied at inference."""

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
