"""Cache substrate (P4: decision quality).

A fixed-capacity key cache whose eviction decision goes through the
``cache.evict`` function slot, plus shadow caches that replay the same
access stream through baseline policies.  The paper's P4 example property —
"decisions of the model must yield better hit rates than randomly selecting
elements" — is checked by comparing the live hit rate against the shadow
baseline's, both published to the feature store.
"""

from repro.kernel.cache.cache import KvCache, ShadowCache
from repro.kernel.cache.policies import random_evict

__all__ = ["KvCache", "ShadowCache", "random_evict"]
