"""Replicated flash storage: the LinnOS substrate (§5 / Figure 2).

- :class:`~repro.kernel.storage.ssd.SsdDevice` — a flash device with a
  bimodal service process (fast path vs GC-induced slow episodes) driven by
  a hidden two-state Markov chain;
- :class:`~repro.kernel.storage.volume.ReplicatedVolume` — a flash-RAID-like
  volume: every read can be served by any replica, and the submit path picks
  a replica through a swappable policy slot (the learned LinnOS policy or a
  round-robin fallback);
- :mod:`~repro.kernel.storage.trace` — open-loop synthetic workloads with
  phases and mid-run device-behavior drift.
"""

from repro.kernel.storage.batch import CompletionIngest
from repro.kernel.storage.ssd import DeviceProfile, SsdDevice
from repro.kernel.storage.trace import PoissonWorkload, schedule_profile_change
from repro.kernel.storage.volume import IoRequest, PickDecision, ReplicatedVolume

__all__ = [
    "CompletionIngest",
    "DeviceProfile",
    "SsdDevice",
    "PoissonWorkload",
    "schedule_profile_change",
    "IoRequest",
    "PickDecision",
    "ReplicatedVolume",
]
