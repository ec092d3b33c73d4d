"""Workload generation and drift injection."""

import pytest

from repro.kernel.storage.ssd import DeviceProfile, SsdDevice
from repro.kernel.storage.trace import PoissonWorkload, schedule_profile_change
from repro.kernel.storage.volume import ReplicatedVolume
from repro.sim.units import SECOND


def make(kernel):
    devices = [
        SsdDevice(kernel.engine, kernel.engine.rng.get("d"), "d",
                  DeviceProfile.pre_drift())
    ]
    return ReplicatedVolume(kernel, devices), devices


def test_phase_validation(kernel):
    volume, _ = make(kernel)
    with pytest.raises(ValueError):
        PoissonWorkload(kernel, volume, [])
    with pytest.raises(ValueError):
        PoissonWorkload(kernel, volume, [(0, 100)])
    with pytest.raises(ValueError):
        PoissonWorkload(kernel, volume, [(SECOND, 0)])


def test_rate_approximately_respected(kernel):
    volume, _ = make(kernel)
    workload = PoissonWorkload(kernel, volume, [(5 * SECOND, 1000)]).start()
    kernel.run(until=5 * SECOND)
    assert workload.submitted == pytest.approx(5000, rel=0.1)


def test_phases_change_rate(kernel):
    volume, _ = make(kernel)
    workload = PoissonWorkload(
        kernel, volume, [(2 * SECOND, 200), (2 * SECOND, 2000)]
    ).start()
    kernel.run(until=2 * SECOND)
    first_phase = workload.submitted
    kernel.run(until=4 * SECOND)
    second_phase = workload.submitted - first_phase
    assert first_phase == pytest.approx(400, rel=0.25)
    assert second_phase == pytest.approx(4000, rel=0.15)


def test_workload_stops_after_phases(kernel):
    volume, _ = make(kernel)
    workload = PoissonWorkload(kernel, volume, [(1 * SECOND, 500)]).start()
    kernel.run(until=10 * SECOND)
    total = workload.submitted
    assert workload.done
    kernel.run(until=20 * SECOND)
    assert workload.submitted == total


def test_schedule_profile_change_applies_at_time(kernel):
    volume, devices = make(kernel)
    schedule_profile_change(kernel, devices, DeviceProfile.post_drift(),
                            2 * SECOND)
    kernel.run(until=1 * SECOND)
    assert devices[0].profile.name == "pre_drift"
    kernel.run(until=3 * SECOND)
    assert devices[0].profile.name == "post_drift"
    assert len(kernel.metrics.series("storage.profile_change")) == 1


def test_workloads_deterministic_per_seed():
    from repro.kernel import Kernel

    def run(seed):
        kernel = Kernel(seed=seed)
        volume, _ = make(kernel)
        workload = PoissonWorkload(kernel, volume, [(SECOND, 800)]).start()
        kernel.run(until=SECOND)
        return workload.submitted

    assert run(5) == run(5)
