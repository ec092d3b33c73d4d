"""The simulated kernel: a monitor host plus subsystems.

:class:`Kernel` extends :class:`~repro.core.host.MonitorHost` with a metric
recorder and a subsystem registry.  Subsystems are attached lazily so a test
that only needs storage does not pay for a scheduler.
"""

from repro.core.host import MonitorHost, RetrainQueue
from repro.core.registry import GuardrailManager
from repro.sim.engine import Engine
from repro.sim.metrics import MetricRecorder


class Kernel(MonitorHost):
    """A bootable simulated kernel.

    Typical setup::

        kernel = Kernel(seed=42)
        volume = kernel.attach("storage", ReplicatedVolume(kernel, devices))
        kernel.guardrails.load(spec_text)
        kernel.run(until=10 * SECOND)
    """

    def __init__(self, seed=0, retrain_min_interval=0):
        engine = Engine(seed=seed)
        super().__init__(
            engine=engine,
            retrain_queue=RetrainQueue(min_interval=retrain_min_interval),
        )
        self.metrics = MetricRecorder(engine)
        self.guardrails = GuardrailManager(self)
        self._subsystems = {}

    def attach(self, name, subsystem):
        """Register a subsystem under ``name``; returns the subsystem."""
        if name in self._subsystems:
            raise ValueError("subsystem {!r} already attached".format(name))
        self._subsystems[name] = subsystem
        return subsystem

    def run(self, until=None):
        """Advance the simulation (delegates to the engine)."""
        self.engine.run(until=until)

    @property
    def now(self):
        return self.engine.now
