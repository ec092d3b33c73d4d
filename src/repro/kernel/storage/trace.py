"""Synthetic storage workloads and drift injection.

Production traces are not available offline; these generators produce the
behaviors that matter for the paper's experiments — steady open-loop load,
rate phases (bursts), and a mid-run device-regime change (domain shift).
"""

from repro.sim.units import SECOND


class PoissonWorkload:
    """Open-loop Poisson arrivals of reads against a volume.

    ``phases`` is a list of ``(duration_ns, ios_per_second)`` tuples; the
    workload walks through them once and stops.  A single-phase workload is
    just ``[(duration, rate)]``.
    """

    def __init__(self, kernel, volume, phases, rng_name="workload",
                 write_fraction=0.0):
        if not phases:
            raise ValueError("need at least one phase")
        for duration, rate in phases:
            if duration <= 0 or rate <= 0:
                raise ValueError(
                    "bad phase (duration={}, rate={})".format(duration, rate)
                )
        self.kernel = kernel
        self.volume = volume
        self.phases = list(phases)
        self.write_fraction = write_fraction
        self.rng = kernel.engine.rng.get(rng_name)
        self.submitted = 0
        self._phase_index = 0
        self._phase_end = None
        self.done = False

    def start(self):
        """Begin issuing I/O at the current virtual time."""
        now = self.kernel.engine.now
        self._phase_end = now + self.phases[0][0]
        self._schedule_next()
        return self

    def _schedule_next(self):
        gap_s = self.rng.exponential(1.0 / self.phases[self._phase_index][1])
        self.kernel.engine.schedule(max(int(gap_s * SECOND), 1), self._issue)

    def _issue(self):
        now = self.kernel.engine.now
        while now >= self._phase_end:
            self._phase_index += 1
            if self._phase_index >= len(self.phases):
                self.done = True
                return
            self._phase_end += self.phases[self._phase_index][0]
        self.volume.submit(is_write=self.rng.random() < self.write_fraction)
        self.submitted += 1
        self._schedule_next()


class ReplayWorkload:
    """Replays an explicit list of submit times (deterministic traces).

    ``arrivals`` is an iterable of absolute virtual times (ns), optionally
    ``(time, is_write)`` pairs.  Useful for regression tests and for
    replaying externally generated traces without Poisson randomness.
    """

    def __init__(self, kernel, volume, arrivals):
        self.kernel = kernel
        self.volume = volume
        self.submitted = 0
        self._arrivals = []
        for entry in arrivals:
            if isinstance(entry, tuple):
                time, is_write = entry
            else:
                time, is_write = entry, False
            self._arrivals.append((int(time), bool(is_write)))
        self._arrivals.sort(key=lambda e: e[0])

    def start(self):
        for time, is_write in self._arrivals:
            self.kernel.engine.schedule_at(time, self._issue, is_write)
        return self

    def _issue(self, is_write):
        self.volume.submit(is_write=is_write)
        self.submitted += 1


def schedule_profile_change(kernel, devices, profile, at_time):
    """Switch every device in ``devices`` to ``profile`` at ``at_time``.

    This is the Figure 2 drift injection: the device regime changes mid-run,
    invalidating the learned policy's training distribution.
    """

    def change():
        for device in devices:
            device.set_profile(profile)
        kernel.metrics.record("storage.profile_change", 1.0)

    return kernel.engine.schedule_at(at_time, change)
