"""Page-fault path with a huge-page promotion decision.

The paper motivates guardrails with CBMM's observation that the kernel "may
spend up to 500 ms allocating a huge page".  Here every fault consults the
``mm.promote_hugepage`` policy slot; promoting under fragmentation pays a
compaction stall that grows with fragmentation, while promoting under low
fragmentation is cheap and speeds up later accesses.

Published keys:

- ``mm.page_fault_latency_ms`` — per-fault latency samples, plus the
  derived ``mm.page_fault_latency_ms.avg`` (the §2 example property:
  "average page fault latency over every 10 seconds below 2 ms").
- ``mm.fragmentation`` — the current fragmentation level in [0, 1].

The ``mm.page_fault`` hook fires per fault.
"""


def never_promote():
    """Baseline promotion policy: always use base pages."""

    def policy(fault_context):
        return False

    return policy


class PageFaultHandler:
    PROMOTE_SLOT = "mm.promote_hugepage"
    BASELINE_NAME = "mm.never_promote"
    BASE_FAULT_US = 3.0
    HUGEPAGE_BONUS_US = 1.5
    COMPACTION_MS_AT_FULL_FRAG = 400.0
    #: Faults averaged into ``mm.page_fault_latency_ms``.
    AVG_WINDOW = 128

    def __init__(self, kernel):
        self.kernel = kernel
        self.fragmentation = 0.0
        self.fault_hook = kernel.hooks.declare("mm.page_fault")
        self.fault_count = 0
        self.promotion_count = 0
        self.stalled_promotions = 0
        self._rng = kernel.engine.rng.get("mm.fault")
        baseline = never_promote()
        if self.PROMOTE_SLOT not in kernel.functions:
            kernel.functions.register(self.PROMOTE_SLOT, baseline)
            kernel.functions.register_implementation(self.BASELINE_NAME, baseline)
        kernel.store.derive_moving_average("mm.page_fault_latency_ms",
                                           window=self.AVG_WINDOW)
        kernel.store.save("mm.fragmentation", self.fragmentation)

    def set_fragmentation(self, level):
        """External fragmentation in [0, 1]; workloads shift this over time."""
        if not 0.0 <= level <= 1.0:
            raise ValueError("fragmentation must be in [0, 1], got {}".format(level))
        self.fragmentation = level
        self.kernel.store.save("mm.fragmentation", self.fragmentation)

    def fault(self, address=0, process="main"):
        """Handle one page fault; returns the simulated latency in ms."""
        self.fault_count += 1
        policy = self.kernel.functions.slot(self.PROMOTE_SLOT)
        context = {
            "address": address,
            "process": process,
            "fragmentation": self.fragmentation,
            "recent_faults": self.fault_count,
        }
        promote = bool(policy(context))
        latency_us = self._rng.lognormal(0.0, 0.3) * self.BASE_FAULT_US
        if promote:
            self.promotion_count += 1
            # Compaction stall scales superlinearly with fragmentation: with
            # a defragmented buddy allocator promotion is nearly free, under
            # heavy fragmentation it reaches the CBMM-reported hundreds of ms.
            stall_ms = self.COMPACTION_MS_AT_FULL_FRAG * (self.fragmentation ** 2)
            stall_ms *= self._rng.uniform(0.5, 1.5)
            if stall_ms > 1.0:
                self.stalled_promotions += 1
            latency_us += stall_ms * 1000.0
        else:
            # Base pages fault more often later; charge a small deferred cost.
            latency_us += self.HUGEPAGE_BONUS_US

        latency_ms = latency_us / 1000.0
        self.kernel.store.save("mm.page_fault_latency_ms", latency_ms)
        self.kernel.metrics.record("mm.page_fault_latency_ms", latency_ms)
        self.fault_hook.fire(
            process=process,
            promote=promote,
            latency_ms=latency_ms,
            fragmentation=self.fragmentation,
        )
        return latency_ms
