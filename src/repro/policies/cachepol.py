"""Learned cache eviction (P4 substrate).

An online-learned reuse-distance predictor: per key, an EWMA of observed
inter-access gaps.  Eviction picks the key with the largest predicted time
until next access (learned LRU-K flavor).  On loopy/skewed workloads it
beats LRU and random; on scan-heavy workloads its history is useless and it
can do *worse* than random — the P4 quality failure the paper's cache
example names.
"""


class LearnedReusePolicy:
    """Evicts the key with the largest predicted next-access distance."""

    #: Smoothing of the per-key gap EWMA.
    ALPHA = 0.3

    def __init__(self, clock, default_gap=1_000_000_000):
        self._clock = clock
        # Predicted gap for a key never seen twice: pessimistic, so one-hit
        # wonders get evicted first.
        self.default_gap = default_gap
        self._gap_ewma = {}
        self._last_seen = {}
        self.observations = 0

    def observe(self, key):
        """Online training signal: call on every cache access."""
        now = self._clock()
        last = self._last_seen.get(key)
        if last is not None:
            gap = now - last
            previous = self._gap_ewma.get(key)
            self._gap_ewma[key] = (
                gap if previous is None
                else self.ALPHA * gap + (1 - self.ALPHA) * previous
            )
            self.observations += 1
        self._last_seen[key] = now

    def predicted_next_access(self, key, last_access):
        """Predicted absolute time of the key's next access."""
        gap = self._gap_ewma.get(key, self.default_gap)
        return last_access + gap

    def __call__(self, view):
        return max(
            view.keys(),
            key=lambda k: (self.predicted_next_access(k, view.last_access(k)), str(k)),
        )


#: Implementation name of the learned cache policy (a REPLACE source).
POLICY_NAME = "cache.learned"


def attach_learned_cache_policy(kernel, cache):
    """Install a :class:`LearnedReusePolicy` on ``cache`` and activate it.

    Wires the online-training observation into the cache's access hook and
    registers the policy as implementation :data:`POLICY_NAME` (the REPLACE
    target / source).  Returns the policy.
    """
    policy = LearnedReusePolicy(lambda: kernel.engine.now)

    def on_access(hook, now, payload):
        policy.observe(payload["key"])

    cache.access_hook.attach(on_access, name=POLICY_NAME + ".trainer")
    kernel.functions.register_implementation(POLICY_NAME, policy)
    kernel.functions.replace(cache.EVICT_SLOT, POLICY_NAME)
    return policy
