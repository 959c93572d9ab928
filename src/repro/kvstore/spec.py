"""Declarative KV-store definitions: tiers, eviction, and the grammar.

A :class:`KVStoreSpec` describes one KV cache hierarchy — a **store
family** (capacities and per-tier bandwidths) paired with an **eviction
family** (which entry leaves a full tier) — in the same open-registry,
``family?k=v`` style as methods, arrivals and schedulers::

    tiered                                   # all defaults, lru eviction
    tiered?dram_gb=8.0,pool_gb=64.0          # smaller DRAM/pool tiers
    lfu                                      # default tiers, lfu eviction
    tiered?pool_gb=64.0+ttl?seconds=120.0    # both, ?k=v attaches to each

Like the scheduler grammar, each ``+``-part's role is inferred from its
family name (store vs. eviction; names are unique across both
registries), so either part may stand alone.  Specs are frozen,
JSON-friendly, and canonicalize params-only-explicit + sorted — what
you write is what serializes, keys and slugs.

Eviction is an *open* registry: subclass :class:`EvictionPolicy`,
decorate with :func:`register_eviction`, and the family is usable from
``--kvstore``, scenarios and sweep axes (see
``examples/kvstore_tiers.py``).  Store families are open the same way
(:func:`register_kvstore_family`); the built-in ``tiered`` family is
the three-tier GPU HBM → host DRAM → pooled-store hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..spec import Family, FamilySpec, Param, Registry, all_known, \
    parse_pair, split_spec_list

__all__ = [
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
]

#: Defaults when a part is omitted from the grammar.
DEFAULT_STORE = "tiered"
DEFAULT_EVICTION = "lru"


class EvictionPolicy(Family):
    """Decides which cache entry leaves a full tier.

    Subclasses set :attr:`name`, :attr:`description` and :attr:`params`
    and are registered with :func:`register_eviction`.  Instances are
    created per store (they receive resolved parameters as ``p``) and
    see :class:`~repro.kvstore.store.CacheEntry` objects: each carries
    ``last_access_s``, ``n_hits``, ``created_s``, ``nbytes`` and a
    monotone insertion ``seq`` for deterministic tie-breaking.
    """

    def victim(self, entries, now: float):
        """The entry to push out of a full tier (``entries`` is a
        non-empty sequence of that tier's :class:`CacheEntry`)."""
        raise NotImplementedError

    def expired(self, entry, now: float) -> bool:
        """Whether ``entry`` should be dropped regardless of capacity
        (TTL-style policies override; default: never)."""
        return False


class KVStoreFamily(Family):
    """One cache-hierarchy shape: parameters plus a store constructor.

    Subclasses set :attr:`params` (capacities in GB, bandwidths in
    GB/s — floats, so every parameter is sweepable via
    ``kvstore.<param>`` axes) and implement :meth:`build`, returning a
    runtime store exposing the :class:`~repro.kvstore.store
    .TieredKVStore` interface (``lookup``/``put``/``occupancy``/
    ``stats``).
    """

    def build(self, eviction: EvictionPolicy, **params: float):
        """A fresh store instance (stores hold per-run state)."""
        raise NotImplementedError


#: Store and eviction names share one namespace, so a bare name in the
#: pair grammar resolves to its role.
STORES = Registry("kvstore family", "register_kvstore_family",
                  base=KVStoreFamily, instances=True)
EVICTIONS = Registry("eviction policy", "register_eviction",
                     base=EvictionPolicy, shares=STORES)
register_eviction = EVICTIONS.register
register_kvstore_family = STORES.register
get_eviction_policy = EVICTIONS.get
get_kvstore_family = STORES.get
eviction_policies = EVICTIONS.families
kvstore_families = STORES.families


class EvictionSpec(FamilySpec):
    """One declarative eviction reference (``ttl?seconds=120.0``)."""

    registry = EVICTIONS


@dataclass(frozen=True)
class KVStoreSpec(FamilySpec):
    """A store family + parameters, paired with an eviction spec.

    ``eviction=None`` keeps the default (``lru``) and canonicalizes /
    serializes without it, so what you write is what you get.
    """

    kind: str = DEFAULT_STORE
    params: tuple[tuple[str, float], ...] = ()
    eviction: EvictionSpec | None = None

    registry = STORES

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.eviction is not None \
                and not isinstance(self.eviction, EvictionSpec):
            raise ValueError(
                f"eviction must be an EvictionSpec or None, got "
                f"{type(self.eviction).__name__}"
            )

    @classmethod
    def of(cls, kind: str = DEFAULT_STORE, eviction=None,
           **params) -> "KVStoreSpec":
        if isinstance(eviction, str):
            eviction = EvictionSpec.parse(eviction)
        return cls(kind, tuple(params.items()), eviction)

    @classmethod
    def parse(cls, text: str) -> "KVStoreSpec":
        """Parse ``store[?k=v,…][+eviction[?k=v,…]]``; each part's role
        is inferred from its family name, either part may stand
        alone."""
        found = parse_pair(
            text, "kvstore",
            "store[?k=v,…][+eviction[?k=v,…]] (either part may stand "
            "alone)", "kvstore family", "kvstore",
            {"store families": KVStoreSpec,
             "eviction policies": EvictionSpec})
        store = found.get("store families") or cls()
        return cls(store.kind, store.params, found.get("eviction policies"))

    @classmethod
    def known(cls, text: str) -> bool:
        return all_known(text, STORES, EVICTIONS)

    def build(self):
        """A fresh runtime store (with a fresh eviction policy)."""
        eviction = (self.eviction or EvictionSpec(DEFAULT_EVICTION)).build()
        return self.family().build(eviction, **self.resolved_params())

    def canonical(self) -> str:
        """Compact string form, e.g. ``tiered?dram_gb=8.0+lfu``."""
        head = super().canonical()
        if self.eviction is None:
            return head
        return f"{head}+{self.eviction.canonical()}"


parse_kvstore = KVStoreSpec.parse
kvstore_spec = KVStoreSpec.from_ref
canonical_kvstore = KVStoreSpec.canonicalize
has_kvstore_families = KVStoreSpec.known
split_kvstore_list = split_spec_list


# -- built-in eviction policies -----------------------------------------------

@register_eviction
class LRUEviction(EvictionPolicy):
    name = "lru"
    description = "evict the least-recently-used entry (ties: oldest)"

    def victim(self, entries, now):
        return min(entries, key=lambda e: (e.last_access_s, e.seq))


@register_eviction
class LFUEviction(EvictionPolicy):
    name = "lfu"
    description = "evict the least-frequently-hit entry (ties: LRU)"

    def victim(self, entries, now):
        return min(entries, key=lambda e: (e.n_hits, e.last_access_s, e.seq))


@register_eviction
class TTLEviction(EvictionPolicy):
    name = "ttl"
    description = ("drop entries idle longer than ``seconds`` (session "
                   "lifetime); capacity pressure falls back to LRU")
    params = {
        "seconds": Param(300.0, "idle time before an entry expires"),
    }

    @classmethod
    def validate(cls, *, seconds):
        if seconds <= 0:
            raise ValueError(f"ttl seconds must be positive, got {seconds}")

    def expired(self, entry, now):
        return now - entry.last_access_s > self.p["seconds"]

    def victim(self, entries, now):
        return min(entries, key=lambda e: (e.last_access_s, e.seq))


# -- built-in store family ----------------------------------------------------

@register_kvstore_family
class TieredStoreFamily(KVStoreFamily):
    """GPU HBM → host DRAM → pooled store, Mooncake/DADI-style.

    Capacities are gigabytes (a tier with capacity 0 is absent);
    bandwidths are gigabytes per second.  The defaults sketch a slice
    of HBM set aside for prefix KV, PCIe-limited host DRAM staging, and
    a 100-GbE pooled store.
    """

    name = "tiered"
    description = ("three-tier prefix cache: GPU HBM, host DRAM, pooled "
                   "store (capacities GB, bandwidths GB/s)")
    params = {
        "hbm_gb": Param(4.0, "GPU HBM set aside for cached KV, GB"),
        "dram_gb": Param(32.0, "host DRAM tier capacity, GB"),
        "pool_gb": Param(256.0, "pooled-store tier capacity, GB"),
        "hbm_read": Param(1500.0, "HBM tier read bandwidth, GB/s"),
        "hbm_write": Param(1500.0, "HBM tier write bandwidth, GB/s"),
        "dram_read": Param(20.0, "DRAM tier read bandwidth, GB/s"),
        "dram_write": Param(20.0, "DRAM tier write bandwidth, GB/s"),
        "pool_read": Param(8.0, "pooled-store read bandwidth, GB/s"),
        "pool_write": Param(8.0, "pooled-store write bandwidth, GB/s"),
    }

    def validate(self, **p) -> None:
        for name in ("hbm_gb", "dram_gb", "pool_gb"):
            if p[name] < 0:
                raise ValueError(
                    f"tier capacity {name} must be >= 0, got {p[name]}"
                )
        if p["hbm_gb"] + p["dram_gb"] + p["pool_gb"] <= 0:
            raise ValueError("at least one tier needs capacity > 0")
        for name in ("hbm_read", "hbm_write", "dram_read", "dram_write",
                     "pool_read", "pool_write"):
            if p[name] <= 0:
                raise ValueError(
                    f"tier bandwidth {name} must be positive, got {p[name]}"
                )

    def build(self, eviction, **p):
        from .store import TierDef, TieredKVStore

        tiers = [
            TierDef("hbm", p["hbm_gb"] * 1e9, p["hbm_read"], p["hbm_write"]),
            TierDef("dram", p["dram_gb"] * 1e9, p["dram_read"],
                    p["dram_write"]),
            TierDef("pool", p["pool_gb"] * 1e9, p["pool_read"],
                    p["pool_write"]),
        ]
        return TieredKVStore([t for t in tiers if t.capacity_bytes > 0],
                             eviction)
