"""Discrete-event simulation substrate.

The paper's guardrail monitors run inside a real kernel (eBPF / kernel
modules).  This package provides the substitute substrate: a deterministic
discrete-event engine with a virtual nanosecond clock, kprobe-like function
hooks, seeded RNG streams, and a metric recorder.  Every simulated kernel
subsystem (storage, memory, scheduler, cache, network) is built on top of it.
"""

from repro.sim.engine import Engine, Event, SimulationError
from repro.sim.hooks import HookPoint, HookRegistry, Probe
from repro.sim.metrics import MetricRecorder, TimeSeries
from repro.sim.rng import RngStreams
from repro.sim.units import MICROSECOND, MILLISECOND, NANOSECOND, SECOND

__all__ = [
    "Engine",
    "Event",
    "SimulationError",
    "HookPoint",
    "HookRegistry",
    "Probe",
    "MetricRecorder",
    "TimeSeries",
    "RngStreams",
    "NANOSECOND",
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
]
