"""Mergeable cross-host statistics: the fleet digest schema.

Hosts never ship raw samples.  Each round every host emits one
:class:`HostDigest` — flat counters (violations, actions, completed I/Os)
plus bounded metric *sketches* (a fixed-bin latency histogram, a Welford
summary and a P² tail estimator).  Counters add; sketches ``merge()``
(exact for the histogram, tolerance-bounded for Welford/P²); so the
control plane folds any set of digests — across hosts, across rounds,
across cohorts — into one :class:`FleetDigest` and checks fleet-wide
properties centrally.  False submits travel as the ``false_submits`` /
``model_submits`` counters alone: no per-event log.

Digest cost is what makes fleet scale work: one digest is a few hundred
bytes of counters plus ``O(bins)`` histogram state, independent of how
many I/Os the round served.
"""

import json
import math

from repro.detect.histogram import Histogram
from repro.detect.quantiles import P2Quantile
from repro.detect.streaming import SummaryDigest
from repro.sim.units import SECOND

#: Latency histogram bounds, microseconds.  Wide enough that post-drift GC
#: tails land in real bins, not just overflow; 50 bins keeps the per-digest
#: payload ~400 bytes.
LATENCY_LO_US = 0.0
LATENCY_HI_US = 5000.0
LATENCY_BINS = 50

#: The tail quantile every digest tracks with a P² sketch.
TAIL_Q = 0.95


def latency_histogram():
    """A fresh latency sketch with the fleet-standard bounds."""
    return Histogram(LATENCY_LO_US, LATENCY_HI_US, LATENCY_BINS)


class HostDigest:
    """One host's state digest for one round.

    ``violations``/``actions``/``checks`` are per-round deltas of the
    host's guardrail-manager totals; the sketches cover only the round's
    samples, so digests from different rounds merge without double
    counting.
    """

    __slots__ = ("host_id", "round_index", "time_ns", "version",
                 "checks", "violations", "actions", "inconclusive",
                 "completed_ios", "false_submits", "model_submits",
                 "latency", "latency_summary", "latency_tail")

    def __init__(self, host_id, round_index, time_ns, version):
        self.host_id = host_id
        self.round_index = round_index
        self.time_ns = time_ns
        self.version = version
        self.checks = 0
        self.violations = 0
        self.actions = 0
        self.inconclusive = 0
        self.completed_ios = 0
        self.false_submits = 0
        self.model_submits = 0
        self.latency = latency_histogram()
        self.latency_summary = SummaryDigest()
        self.latency_tail = P2Quantile(TAIL_Q)

    def observe_io(self, time_ns, latency_us, false_submit, predicted_fast):
        """Fold one completed I/O into the round's sketches.

        ``time_ns`` is the completion hook's timestamp; no sketch keeps
        per-event times, so it is not recorded.
        """
        self.completed_ios += 1
        self.latency.update(latency_us)
        self.latency_summary.update(latency_us)
        self.latency_tail.update(latency_us)
        if predicted_fast:
            self.model_submits += 1
            if false_submit:
                self.false_submits += 1

    def to_dict(self):
        """JSON-friendly, deterministic summary (sketch *values*, not state)."""
        return {
            "host_id": self.host_id,
            "round": self.round_index,
            "time_s": self.time_ns / SECOND,
            "version": self.version,
            "checks": self.checks,
            "violations": self.violations,
            "actions": self.actions,
            "inconclusive": self.inconclusive,
            "completed_ios": self.completed_ios,
            "false_submits": self.false_submits,
            "model_submits": self.model_submits,
            "latency": self.latency_summary.to_dict(),
            "latency_p95_us": none_if_nan(self.latency.quantile(TAIL_Q)),
        }

    #: Flat counter columns shared by :meth:`to_row` and the results store.
    COUNTER_FIELDS = ("checks", "violations", "actions", "inconclusive",
                      "completed_ios", "false_submits", "model_submits")

    def merge_round(self, other):
        """Fold a *later round of the same host* into this digest.

        Counters add and sketches merge exactly like the cross-host
        :meth:`FleetDigest.merge_host` path; the result summarizes the
        host over both rounds.  Used by the results store's downsampling
        to fold expired raw rounds into time buckets.  Returns ``self``.
        """
        if other.host_id != self.host_id:
            raise ValueError(
                "cannot fold host {} into host {}'s digest".format(
                    other.host_id, self.host_id))
        for field in self.COUNTER_FIELDS:
            setattr(self, field, getattr(self, field) + getattr(other, field))
        self.latency.merge(other.latency)
        self.latency_summary.merge(other.latency_summary)
        self.latency_tail.merge(other.latency_tail)
        if other.time_ns > self.time_ns:
            self.time_ns = other.time_ns
        self.round_index = min(self.round_index, other.round_index)
        self.version = other.version
        return self

    def to_row(self):
        """Exact, store-shaped serialization: flat columns + sketch state.

        The contract is *identity*: ``from_row(to_row(d))`` reconstructs a
        digest whose every counter and every sketch bit equals ``d``'s, so
        digests merged after a trip through the results store produce the
        same fleet aggregates — byte-identical once serialized — as the
        live digests would have.  Counters land in their own columns (the
        store indexes and sums them in SQL); sketch internals travel as one
        JSON text blob.
        """
        sketches = {
            "latency": self.latency.to_json(),
            "summary": self.latency_summary.to_json(),
            "tail": self.latency_tail.to_json(),
        }
        row = {
            "host_id": self.host_id,
            "round_index": self.round_index,
            "time_ns": self.time_ns,
            "version": self.version,
            "sketches": json.dumps(sketches, sort_keys=True),
        }
        for field in self.COUNTER_FIELDS:
            row[field] = getattr(self, field)
        return row

    @classmethod
    def from_row(cls, row, round_index=None):
        """Inverse of :meth:`to_row`; exact by construction.

        ``round_index`` stands in for the row's own on rows that have none
        (a results-store bucket row reports its first round).  Every slot
        is filled straight from the row: no default sketches are built
        only to be replaced.
        """
        sketches = json.loads(row["sketches"])
        digest = cls.__new__(cls)
        digest.host_id = row["host_id"]
        digest.round_index = (row["round_index"] if round_index is None
                              else round_index)
        digest.time_ns = row["time_ns"]
        digest.version = row["version"]
        for field in cls.COUNTER_FIELDS:
            setattr(digest, field, row[field])
        digest.latency = Histogram.from_json(sketches["latency"])
        digest.latency_summary = SummaryDigest.from_json(sketches["summary"])
        digest.latency_tail = P2Quantile.from_json(sketches["tail"])
        return digest


class FleetDigest:
    """The merge of any set of host digests.

    Tracks which (host, round) cells were folded in so rate denominators
    (host-seconds) stay correct whether digests arrive per host, per round,
    or already partially merged.
    """

    def __init__(self, round_ns=1 * SECOND):
        self.round_ns = round_ns
        self.hosts = set()
        self.host_rounds = 0
        self.checks = 0
        self.violations = 0
        self.actions = 0
        self.inconclusive = 0
        self.completed_ios = 0
        self.false_submits = 0
        self.model_submits = 0
        self.latency = latency_histogram()
        self.latency_summary = SummaryDigest()
        self.latency_tail = P2Quantile(TAIL_Q)
        self.last_time_ns = 0

    def merge_host(self, digest, rounds=1):
        """Fold one :class:`HostDigest` in; returns ``self``.

        ``rounds`` is the number of lockstep rounds the digest summarizes —
        1 for a live per-round digest, more for a downsampled time bucket —
        so host-second rate denominators stay correct either way.
        """
        self.hosts.add(digest.host_id)
        self.host_rounds += rounds
        self.checks += digest.checks
        self.violations += digest.violations
        self.actions += digest.actions
        self.inconclusive += digest.inconclusive
        self.completed_ios += digest.completed_ios
        self.false_submits += digest.false_submits
        self.model_submits += digest.model_submits
        self.latency.merge(digest.latency)
        self.latency_summary.merge(digest.latency_summary)
        self.latency_tail.merge(digest.latency_tail)
        if digest.time_ns > self.last_time_ns:
            self.last_time_ns = digest.time_ns
        return self

    def merge(self, other):
        """Fold another :class:`FleetDigest` in; returns ``self``."""
        if other.round_ns != self.round_ns:
            raise ValueError(
                "cannot merge FleetDigest(round_ns={}) with round_ns={}"
                .format(self.round_ns, other.round_ns))
        self.hosts |= other.hosts
        self.host_rounds += other.host_rounds
        self.checks += other.checks
        self.violations += other.violations
        self.actions += other.actions
        self.inconclusive += other.inconclusive
        self.completed_ios += other.completed_ios
        self.false_submits += other.false_submits
        self.model_submits += other.model_submits
        self.latency.merge(other.latency)
        self.latency_summary.merge(other.latency_summary)
        self.latency_tail.merge(other.latency_tail)
        if other.last_time_ns > self.last_time_ns:
            self.last_time_ns = other.last_time_ns
        return self

    # -- fleet-wide properties --------------------------------------------

    def host_seconds(self):
        return self.host_rounds * (self.round_ns / SECOND)

    def violation_rate(self):
        """Guardrail violations per host-second (0.0 when empty)."""
        denominator = self.host_seconds()
        if denominator <= 0:
            return 0.0
        return self.violations / denominator

    def inconclusive_rate(self):
        """Inconclusive checks per host-second (0.0 when empty).

        NaN/missing signals read as inconclusive rather than violating, so
        this is the "guardrail has gone blind" health axis.
        """
        denominator = self.host_seconds()
        if denominator <= 0:
            return 0.0
        return self.inconclusive / denominator

    def p95_us(self):
        """Fleet-wide 95th-percentile latency from the merged histogram."""
        return self.latency.quantile(TAIL_Q)

    def mean_latency_us(self):
        return self.latency_summary.mean

    def false_submit_fraction(self):
        if self.model_submits == 0:
            return 0.0
        return self.false_submits / self.model_submits

    def to_dict(self):
        return {
            "hosts": len(self.hosts),
            "host_rounds": self.host_rounds,
            "checks": self.checks,
            "violations": self.violations,
            "actions": self.actions,
            "inconclusive": self.inconclusive,
            "completed_ios": self.completed_ios,
            "false_submits": self.false_submits,
            "model_submits": self.model_submits,
            "violation_rate": self.violation_rate(),
            "inconclusive_rate": self.inconclusive_rate(),
            "false_submit_fraction": self.false_submit_fraction(),
            "latency": self.latency_summary.to_dict(),
            "latency_p95_us": none_if_nan(self.p95_us()),
            "latency_p95_p2_us": none_if_nan(self.latency_tail.value),
        }


def none_if_nan(value):
    """JSON-safe sketch readout: an empty sketch's NaN becomes ``None``."""
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


__all__ = [
    "FleetDigest",
    "HostDigest",
    "LATENCY_BINS",
    "LATENCY_HI_US",
    "LATENCY_LO_US",
    "TAIL_Q",
    "latency_histogram",
    "none_if_nan",
]
