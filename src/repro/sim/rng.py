"""Named, independently seeded random streams.

Every stochastic component (device latency, trace generation, policy
exploration) draws from its own named stream so that adding a new component
never perturbs the draws of existing ones — the classic trick for keeping
discrete-event simulations comparable across configurations.
"""

import numpy as np


class RngStreams:
    """A family of :class:`numpy.random.Generator` objects keyed by name."""

    def __init__(self, seed=0):
        self._seed = int(seed)
        self._streams = {}

    def get(self, name):
        """Return the generator for ``name``, creating it deterministically."""
        if name not in self._streams:
            child = np.random.default_rng([self._seed, _stable_hash(name)])
            self._streams[name] = child
        return self._streams[name]


def _stable_hash(name):
    """A process-independent 63-bit hash of a string (``hash()`` is salted)."""
    h = 1469598103934665603  # FNV-1a offset basis
    for byte in name.encode("utf-8"):
        h ^= byte
        h = (h * 1099511628211) & 0x7FFFFFFFFFFFFFFF
    return h
