"""Tiered KV-store subsystem: prefix caching + compression selection.

Models the storage tier production disaggregated-serving systems
interpose on the prefill → decode KV path (Mooncake/DADI-style pooled
put/get): a three-tier cache hierarchy (GPU HBM → host DRAM → pooled
store) with per-tier bandwidths, open eviction policies, and a
service-aware per-request compression-selection layer.

* :mod:`repro.kvstore.spec` — the ``KVStoreSpec`` grammar
  (``tiered?dram_gb=8.0+ttl?seconds=120.0``) and the open
  :func:`~repro.kvstore.spec.register_eviction` /
  :func:`~repro.kvstore.spec.register_kvstore_family` registries;
* :mod:`repro.kvstore.store` — the runtime
  :class:`~repro.kvstore.store.TieredKVStore` (token-granular prefix
  lookup, promotion, capacity-driven demotion/eviction, per-tier
  counters);
* :mod:`repro.kvstore.selection` — the
  :class:`~repro.kvstore.selection.CompressionSelectionPolicy` registry
  (``static``, ``slo_tier``, ``congestion``) making the per-request
  :class:`~repro.methods.spec.MethodSpec` a runtime decision.
"""

from .selection import (
    CompressionSelectionPolicy,
    SelectionSpec,
    canonical_selection,
    parse_selection,
    register_selection,
    selection_policies,
    selection_spec,
    split_selection_list,
)
from .spec import (
    DEFAULT_EVICTION,
    DEFAULT_STORE,
    EvictionPolicy,
    EvictionSpec,
    KVStoreSpec,
    canonical_kvstore,
    eviction_policies,
    get_eviction_policy,
    get_kvstore_family,
    has_kvstore_families,
    kvstore_families,
    kvstore_spec,
    parse_kvstore,
    register_eviction,
    split_kvstore_list,
)
from .store import CacheEntry, CacheHit, TierDef, TieredKVStore, TierState

__all__ = [
    # spec
    "EvictionPolicy",
    "EvictionSpec",
    "KVStoreSpec",
    "register_eviction",
    "get_eviction_policy",
    "get_kvstore_family",
    "eviction_policies",
    "kvstore_families",
    "has_kvstore_families",
    "kvstore_spec",
    "parse_kvstore",
    "canonical_kvstore",
    "split_kvstore_list",
    "DEFAULT_STORE",
    "DEFAULT_EVICTION",
    # store
    "TierDef",
    "TierState",
    "CacheEntry",
    "CacheHit",
    "TieredKVStore",
    # selection
    "CompressionSelectionPolicy",
    "SelectionSpec",
    "register_selection",
    "selection_policies",
    "selection_spec",
    "parse_selection",
    "canonical_selection",
    "split_selection_list",
]
