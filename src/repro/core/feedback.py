"""Guardrail feedback-loop (oscillation) detection (§6).

"Deploying multiple guardrails in the kernel — each monitoring a different
property — can create feedback loops, where preventing one violation
triggers another, causing the system to oscillate between violation
states."

The :class:`FeedbackDetector` watches action notes from the violation
reporter and flags two oscillation signatures:

- **key flapping** — the same feature-store key SAVEd with alternating
  values by guardrail actions (e.g. ``ml_enabled`` toggling);
- **action ping-pong** — two guardrails interleaving action dispatches
  within a window, each apparently undoing the other.

Detection is passive; ``dampen`` applies the standard mitigation of
disabling the younger guardrail of an oscillating pair so an operator can
break the loop without a reboot.
"""

import collections


class OscillationReport:
    def __init__(self, kind, subjects, count, window):
        self.kind = kind          # 'key-flapping' | 'action-ping-pong'
        self.subjects = subjects  # (key,) or (guardrail_a, guardrail_b)
        self.count = count        # alternations observed in the window
        self.window = window

    def __repr__(self):
        return "OscillationReport({}, {}, count={})".format(
            self.kind, self.subjects, self.count
        )


class FeedbackDetector:
    """Scans reporter notes for oscillation signatures."""

    #: Alternations within the window before a signature is reported.
    MIN_ALTERNATIONS = 4

    def __init__(self, host, window):
        self.host = host
        self.window = window

    def scan(self):
        """Analyze all notes so far; returns a list of reports."""
        notes = self.host.reporter.notes
        now = self.host.engine.now
        cutoff = now - self.window
        recent = [n for n in notes if n["time"] >= cutoff]
        reports = []
        reports.extend(self._scan_key_flapping(recent))
        reports.extend(self._scan_ping_pong(recent))
        return reports

    def _scan_key_flapping(self, notes):
        # SAVE notes record "key = value"; flapping = the same key written
        # with a value different from its previous write, repeatedly.
        writes = collections.defaultdict(list)  # key -> [(time, value, guardrail)]
        for note in notes:
            if note["kind"] != "SAVE":
                continue
            key, _, value = note["detail"].partition(" = ")
            writes[key].append((note["time"], value, note["guardrail"]))
        reports = []
        for key, events in writes.items():
            alternations = sum(
                1 for (_, prev, _), (_, cur, _) in zip(events, events[1:])
                if prev != cur
            )
            if alternations >= self.MIN_ALTERNATIONS:
                guardrails = tuple(sorted({g for _, _, g in events}))
                reports.append(OscillationReport(
                    "key-flapping", (key,) + guardrails, alternations, self.window
                ))
        return reports

    def _scan_ping_pong(self, notes):
        # Interleaved non-REPORT actions from two guardrails: A B A B ...
        actions = [
            (n["time"], n["guardrail"]) for n in notes if n["kind"] != "REPORT"
        ]
        transitions = collections.Counter()
        for (_, a), (_, b) in zip(actions, actions[1:]):
            if a != b:
                transitions[tuple(sorted((a, b)))] += 1
        reports = []
        for pair, count in transitions.items():
            if count >= self.MIN_ALTERNATIONS:
                reports.append(OscillationReport(
                    "action-ping-pong", pair, count, self.window
                ))
        return reports

    def dampen(self, manager, report):
        """Break the loop: disarm the most recently loaded involved guardrail."""
        involved = [name for name in report.subjects if name in manager]
        if not involved:
            return None
        # monitors() preserves load order; the last-loaded one is the victim.
        ordered = [m.name for m in manager.monitors() if m.name in involved]
        victim = ordered[-1]
        manager.disable(victim)
        self.host.reporter.note("DAMPEN", victim, self.host.engine.now,
                                detail="disabled to break {}".format(report.kind))
        return victim
