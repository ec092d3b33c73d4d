"""SSD device model with GC-induced tail latency.

Flash devices serve most I/O fast but stall during garbage collection.
LinnOS's premise is that the onset of these slow episodes is *learnable*
from recent device behavior.  Each device's service mode follows a hidden
two-state process (FAST / SLOW) that evolves in wall-clock time — GC runs
for a duration whether or not I/O arrives, so a policy that steers around a
GC-ing device genuinely avoids its slow services (this is what makes the
learned policy profitable at all):

- **pre-drift profile** — rare, long GC episodes in long fast stretches.
  A slow completion means "GC in progress, more slowness imminent", so the
  trained mapping "avoid devices with slow recent history" wins big.
- **post-drift profile** — GC storms: short episodes with short gaps (think
  sudden write pressure).  A slow completion now mostly means the burst is
  already over, while a clean history means the next burst is due — the
  learned mapping inverts, and prediction-guided traffic *herds* onto
  about-to-stall replicas, performing worse than round-robin.

Latencies are lognormal around the mode's median.  The device models FIFO
queueing; reported request latency = queue wait + service.
"""

import collections
import math

from repro.sim.units import us


class DeviceProfile:
    """Service-time regime of one device.

    ``fast_duration_ns`` / ``slow_duration_ns`` are the *mean* dwell times
    of the hidden state (exponentially distributed).
    """

    def __init__(self, name, fast_median_us=80.0, fast_sigma=0.25,
                 slow_median_us=2000.0, slow_sigma=0.35,
                 fast_duration_ns=300_000_000, slow_duration_ns=30_000_000,
                 dwell_jitter=None):
        if fast_duration_ns <= 0 or slow_duration_ns <= 0:
            raise ValueError("state durations must be positive")
        if dwell_jitter is not None and not 0.0 <= dwell_jitter < 1.0:
            raise ValueError("dwell_jitter must be in [0, 1)")
        self.name = name
        self.fast_median_us = fast_median_us
        self.fast_sigma = fast_sigma
        self.slow_median_us = slow_median_us
        self.slow_sigma = slow_sigma
        self.fast_duration_ns = fast_duration_ns
        self.slow_duration_ns = slow_duration_ns
        # None -> exponential dwell times (memoryless episodes);
        # a float j -> uniform in [mean*(1-j), mean*(1+j)] (cyclical GC).
        self.dwell_jitter = dwell_jitter

    @classmethod
    def pre_drift(cls):
        """Training regime: ~30 ms GC episodes every ~300 ms (9% slow)."""
        return cls("pre_drift",
                   fast_duration_ns=300_000_000, slow_duration_ns=30_000_000)

    @classmethod
    def post_drift(cls):
        """Shifted regime: cyclical GC micro-bursts (write-pressure storms).

        ~2.5 ms bursts every ~6 ms, nearly periodic.  By the time a slow
        completion is observed the burst is over, so "slow recent history"
        now marks the *safest* replica, while a clean history means the next
        burst is due — the pre-drift mapping is inverted.
        """
        return cls("post_drift",
                   fast_duration_ns=5_000_000, slow_duration_ns=3_000_000,
                   dwell_jitter=0.15)

    def stationary_slow_fraction(self):
        total = self.fast_duration_ns + self.slow_duration_ns
        return self.slow_duration_ns / total

    def __repr__(self):
        return "DeviceProfile({!r})".format(self.name)


SLOW_STATE = "slow"
FAST_STATE = "fast"


class SsdDevice:
    """One replica: FIFO queue + hidden time-driven service process."""

    def __init__(self, engine, rng, name, profile=None, history_length=8,
                 slow_threshold_us=500.0, history_ttl=50_000_000):
        self.engine = engine
        self.rng = rng
        self.name = name
        self.profile = profile if profile is not None else DeviceProfile.pre_drift()
        self.slow_threshold_us = slow_threshold_us
        # History older than this (ns) is uninformative: a device nobody has
        # submitted to recently has likely finished its GC episode.  Without
        # the TTL, a policy steering away from slow-looking devices would
        # freeze their history and starve them forever.
        self.history_ttl = history_ttl
        self._queue = collections.deque()
        self._busy = False
        self._state = FAST_STATE
        self._state_event = None
        self.history = collections.deque(maxlen=history_length)  # service latencies (us)
        self.last_completion_time = None
        self.last_slow_completion_time = None
        self.served_count = 0
        self.slow_served_count = 0
        self._schedule_transition()

    # -- hidden state process ------------------------------------------------

    @property
    def state(self):
        """The hidden mode — visible to tests, not to policies."""
        return self._state

    def _schedule_transition(self):
        if self._state == FAST_STATE:
            mean = self.profile.fast_duration_ns
        else:
            mean = self.profile.slow_duration_ns
        jitter = self.profile.dwell_jitter
        if jitter is None:
            dwell = self.rng.exponential(mean)
        else:
            dwell = mean * (1.0 + jitter * (2.0 * self.rng.random() - 1.0))
        self._state_event = self.engine.schedule(max(int(dwell), 1), self._flip_state)

    def _flip_state(self):
        self._state = SLOW_STATE if self._state == FAST_STATE else FAST_STATE
        self._schedule_transition()

    def set_profile(self, profile):
        """Switch service regime mid-run (domain-shift injection)."""
        self.profile = profile
        if self._state_event is not None:
            self._state_event.cancel()
        self._schedule_transition()

    # -- observable features ---------------------------------------------------

    @property
    def queue_depth(self):
        """Requests waiting or in service — visible to the submit path."""
        return len(self._queue) + (1 if self._busy else 0)

    def _history_fresh(self):
        if self.last_completion_time is None:
            return False
        return self.engine.now - self.last_completion_time <= self.history_ttl

    def recent_slow_fraction(self, window=4):
        """Fraction of the last ``window`` completions that were slow.

        Stale history (no completion within ``history_ttl``) reads as 0.0 —
        see the constructor comment.
        """
        if not self.history or not self._history_fresh():
            return 0.0
        recent = list(self.history)[-window:]
        return sum(1 for lat in recent if lat > self.slow_threshold_us) / len(recent)

    def last_latency_us(self):
        if not self.history or not self._history_fresh():
            return 0.0
        return self.history[-1]

    # Normalization scale for the time-since-slow feature (50 ms).
    TIME_SINCE_SLOW_SCALE = 50_000_000

    def time_since_slow(self):
        """Time since the last *observed* slow completion, in [0, 1].

        1.0 means "no slow completion within the scale (or ever)".  Under
        near-periodic GC this feature carries the cycle phase — which is why
        a model retrained after a regime change can recover (the history
        fractions alone cannot express 'a burst is due').
        """
        if self.last_slow_completion_time is None:
            return 1.0
        elapsed = self.engine.now - self.last_slow_completion_time
        return min(elapsed / self.TIME_SINCE_SLOW_SCALE, 1.0)

    def features(self):
        """The LinnOS-style feature vector for this device.

        Latency-history features plus the slow-recency clock.  (LinnOS also
        feeds queue length; we leave it out because a queue-aware model
        implicitly load-balances, which masks the prediction-quality failure
        mode §5 studies.  The depth is still observable via
        :attr:`queue_depth` for policies that want it.)
        """
        # One freshness test and one pass over the history for all three
        # latency features (this runs once per replica per submit).
        if not self.history or not self._history_fresh():
            return [0.0, 0.0, 0.0, self.time_since_slow()]
        threshold = self.slow_threshold_us
        slow = [latency > threshold for latency in self.history][-8:]
        recent = slow[-4:]
        return [sum(recent) / len(recent), sum(slow) / len(slow),
                1.0 if slow[-1] else 0.0, self.time_since_slow()]

    # -- service --------------------------------------------------------------

    def enqueue(self, request, on_complete):
        """Queue a request; ``on_complete(request, service_latency_us)`` fires
        when the device finishes it."""
        self._queue.append((request, on_complete))
        if not self._busy:
            self._start_next()

    def _start_next(self):
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        request, on_complete = self._queue.popleft()
        service_us = self._sample_service_us()
        self.engine.schedule(us(service_us), self._complete, request, on_complete,
                             service_us)

    def _sample_service_us(self):
        if self._state == SLOW_STATE:
            median, sigma = self.profile.slow_median_us, self.profile.slow_sigma
        else:
            median, sigma = self.profile.fast_median_us, self.profile.fast_sigma
        return float(self.rng.lognormal(math.log(median), sigma))

    def _complete(self, request, on_complete, service_us):
        now = self.engine.now
        self.served_count += 1
        if service_us > self.slow_threshold_us:
            self.slow_served_count += 1
            self.last_slow_completion_time = now
        self.history.append(service_us)
        self.last_completion_time = now
        on_complete(request, service_us)
        self._start_next()

    def __repr__(self):
        return "SsdDevice({!r}, depth={}, served={})".format(
            self.name, self.queue_depth, self.served_count
        )
