"""Per-I/O call budget of the storage device path.

Every simulated I/O of a fleet host runs arrival -> pick -> submit ->
device queue -> DES events -> completion -> ingest -> hook -> digest fold.
The guardrails the paper puts on a kernel's hot path are only as cheap as
this substrate, so its Python call count per completed I/O is pinned: a
change that puts calls back on the path fails here.
"""

import sys

from repro.fleet.scenario import fleet_versions
from repro.fleet.worker import HostSpec, SimulatedHost
from repro.sim.units import SECOND

#: ``call`` + ``c_call`` profile events per completed I/O.  About 38 on
#: CPython 3.11 with numpy's Generator methods invisible to the profiler;
#: the headroom covers other interpreter and numpy builds (the three
#: per-I/O Generator draws may show up as C calls).  The path cost ~75
#: before it was trimmed.
CALLS_PER_IO_BUDGET = 42


def test_device_path_stays_within_its_call_budget():
    version, _ = fleet_versions()
    host = SimulatedHost(HostSpec(0, seed=7), version, SECOND,
                         total_rounds=4)
    host.step(SECOND)  # first calls: lazy imports, first guardrail check
    completed_before = host.volume.completed
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        host.step(4 * SECOND)
    finally:
        sys.setprofile(None)
    ios = host.volume.completed - completed_before
    assert ios > 1000
    per_io = calls / ios
    assert per_io <= CALLS_PER_IO_BUDGET, (
        "{:.1f} calls per completed I/O, budget {}".format(
            per_io, CALLS_PER_IO_BUDGET))
