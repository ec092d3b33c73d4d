"""Continuous-operation fleet service: store, loop, queries, dashboard.

``repro.fleet`` runs one rollout and prints one report.  This package is
what you run when the fleet never stops: a service loop that streams
every lockstep round's host digests into an append-only sqlite store
(``grctl serve``), typed queries answerable while the run is still in
flight (``grctl query``), and a terminal/HTML fleet-health dashboard
rendered from those queries alone (``grctl dash``).

The store's contract is exactness: host digests round-trip bit-for-bit
(:meth:`~repro.fleet.aggregate.HostDigest.to_row`/``from_row``), so a
rollout report regenerated from the store is byte-identical to the live
``grctl fleet --json`` report for the same seed.  Retention folds old raw
rounds into time buckets, keeping disk bounded for arbitrarily long soaks
while coarse history stays queryable.
"""

from repro.service.loop import (
    ServiceError,
    StoreObserver,
    resume,
    serve_rollout,
    serve_soak,
)
from repro.service.store import (
    ResultsStore,
    RetentionPolicy,
    SCHEMA_VERSION,
    StoreError,
)

__all__ = [
    "ResultsStore",
    "RetentionPolicy",
    "SCHEMA_VERSION",
    "ServiceError",
    "StoreError",
    "StoreObserver",
    "resume",
    "serve_rollout",
    "serve_soak",
]
