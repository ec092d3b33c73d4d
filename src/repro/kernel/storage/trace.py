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

    def __init__(self, kernel, volume, phases):
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
        self.rng = kernel.engine.rng.get("workload")
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
        # Nothing reads it, but this per-I/O draw (the "write coin") keeps
        # the arrival stream, and so the fig2 contract, as recorded.
        self.rng.random()
        self.volume.submit()
        self.submitted += 1
        self._schedule_next()


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
