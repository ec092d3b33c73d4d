"""Two-tier memory with a swappable placement policy.

Pages live in a fast tier (DRAM) or a slow tier (CXL/NVM).  Every access
pays the tier's latency; the ``mm.tier_placement`` policy slot is consulted
on each slow-tier access and decides whether to migrate the page up
(evicting the fast tier's coldest page when full).  The background section
of the paper cites exactly this task (Kleio, IDT, Sibyl) as learned-policy
territory, with the caveat that such engines "may perform poorly if the
workload is write-intensive and has random access patterns" — the quality
failure a P4 guardrail watches.

Published keys: ``mm.tier_hit_rate`` (fraction of recent accesses served
from the fast tier).
"""

import collections

from repro.detect.streaming import RateCounter
from repro.sim.units import SECOND


def never_migrate():
    """Baseline placement: static — pages stay where they first landed."""

    def policy(page, context):
        return False

    return policy


def promote_on_second_access():
    """Simple heuristic: promote on the second slow-tier touch."""
    counts = collections.Counter()

    def policy(page, context):
        counts[page] += 1
        return counts[page] >= 2

    return policy


class TieredMemory:
    PLACEMENT_SLOT = "mm.tier_placement"
    BASELINE_NAME = "mm.promote_on_second_access"
    FAST_LATENCY_NS = 100
    SLOW_LATENCY_NS = 900
    MIGRATION_COST_NS = 2_000
    #: Window of ``mm.tier_hit_rate``.
    HIT_WINDOW = 1 * SECOND

    def __init__(self, kernel, fast_capacity):
        if fast_capacity <= 0:
            raise ValueError("fast_capacity must be positive")
        self.kernel = kernel
        self.fast_capacity = fast_capacity
        self._fast = collections.OrderedDict()  # page -> None, LRU order
        self.access_hook = kernel.hooks.declare("mm.tier_access")
        self.accesses = 0
        self.fast_hits = 0
        self.migrations = 0
        self._hits = RateCounter(self.HIT_WINDOW)
        baseline = promote_on_second_access()
        if self.PLACEMENT_SLOT not in kernel.functions:
            kernel.functions.register(self.PLACEMENT_SLOT, baseline)
            kernel.functions.register_implementation(self.BASELINE_NAME, baseline)
            kernel.functions.register_implementation("mm.never_migrate",
                                                     never_migrate())

    def access(self, page, is_write=False):
        """Touch ``page``; returns the access latency in ns."""
        self.accesses += 1
        now = self.kernel.engine.now
        hit = page in self._fast
        latency = self.FAST_LATENCY_NS if hit else self.SLOW_LATENCY_NS
        if hit:
            self.fast_hits += 1
            self._fast.move_to_end(page)
        else:
            policy = self.kernel.functions.slot(self.PLACEMENT_SLOT)
            context = {
                "is_write": is_write,
                "fast_used": len(self._fast),
                "fast_capacity": self.fast_capacity,
                "now": now,
                "serial": self.accesses,
            }
            if policy(page, context):
                self._promote(page)
                latency += self.MIGRATION_COST_NS
        self._hits.observe(now, hit)
        self.kernel.store.save("mm.tier_hit_rate", self._hits.rate(now))
        self.kernel.metrics.record("mm.tier_access_ns", latency)
        self.access_hook.fire(page=page, hit=hit, is_write=is_write,
                              latency_ns=latency, serial=self.accesses)
        return latency

    def _promote(self, page):
        while len(self._fast) >= self.fast_capacity:
            self._fast.popitem(last=False)  # evict the coldest
        self._fast[page] = None
        self.migrations += 1
