"""Learned file readahead (background: the KML readahead work).

Per file stream, predicts the next access run length from the recent run
lengths (online EWMA) and prefetches that many pages; the baseline
prefetches a fixed window.  The interesting guardrail angle is P5: each
prefetch decision has a cost (wasted I/O for unused pages) and a gain
(avoided misses) — the policy's ``net_benefit`` must stay positive.

The module is self-contained: :class:`ReadaheadSimulator` replays an access
stream of sequential runs and random jumps, charging misses and wasted
prefetches.
"""


class FixedReadahead:
    """Baseline: always prefetch ``window`` pages ahead."""

    def __init__(self, window=8):
        self.window = window

    def predict_run(self, stream_state):
        return self.window


class LearnedReadahead:
    """EWMA of this stream's recent sequential run lengths, starting from
    the fixed baseline's window."""

    ALPHA = 0.4

    def __init__(self, max_window=128):
        self.estimate = 8.0
        self.max_window = max_window

    def observe_run(self, run_length):
        self.estimate = self.ALPHA * run_length + (1 - self.ALPHA) * self.estimate

    def predict_run(self, stream_state):
        return max(1, min(int(round(self.estimate)), self.max_window))


class ReadaheadSimulator:
    """Replays sequential runs; scores prefetch decisions.

    Cost model (in simulated microseconds): a miss (page not prefetched)
    costs :attr:`MISS_US`; a wasted prefetched page costs ``waste_us``; a
    prefetch decision itself costs ``decision_us`` (inference).
    """

    MISS_US = 100.0

    def __init__(self, policy, waste_us=5.0, decision_us=1.0):
        self.policy = policy
        self.waste_us = waste_us
        self.decision_us = decision_us
        self.misses = 0
        self.prefetched_used = 0
        self.prefetched_wasted = 0
        self.decisions = 0
        self.total_cost_us = 0.0

    def replay(self, runs):
        """``runs`` is an iterable of sequential-run lengths (pages)."""
        for run_length in runs:
            window = self.policy.predict_run(None)
            self.decisions += 1
            self.total_cost_us += self.decision_us
            used = min(window, run_length)
            wasted = max(window - run_length, 0)
            missed = max(run_length - window, 0)
            self.prefetched_used += used
            self.prefetched_wasted += wasted
            self.misses += missed
            self.total_cost_us += missed * self.MISS_US + wasted * self.waste_us
            if hasattr(self.policy, "observe_run"):
                self.policy.observe_run(run_length)
        return self.total_cost_us
