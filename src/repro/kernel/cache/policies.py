"""Eviction policies.

An eviction policy is a callable ``policy(cache_view) -> key`` choosing the
victim.  ``cache_view`` exposes the resident keys and their last access
time but not the future — policies that need learned predictions wrap a
model around these observables.
"""


def random_evict(rng):
    """Evict a uniformly random key — the paper's P4 comparison floor."""

    def policy(view):
        keys = sorted(view.keys(), key=str)
        return keys[int(rng.integers(len(keys)))]

    return policy
