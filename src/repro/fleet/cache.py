"""Aggregate client-cache model for the fleet engine.

The exact simulator builds a full protocol stack per client; the fleet
keeps *only* the cache state — per client, the same bounded
:class:`~repro.cache.KeyedCache` stores the per-node stacks use, with
the same policies (client DNS: expired-first, stale entries dropped;
client CoAP: expired-first, stale entries kept for ETag revalidation)
and the same per-name TTL/occupancy behaviour. Every client's counters
pool into one shared :class:`~repro.cache.CacheStats` per location, so
the ``CacheStats`` vocabulary (hits/misses/stale/validations/
evictions) is reproduced exactly for the simulated sample and in
expectation for the scaled fleet.

A client's ``(dns, coap)`` pair materialises when the engine first has
something to store that a later query of that client can read. Until
then its caches are empty, and an empty cache can only miss — so a
lookup counts its miss on the pooled counters without any cache being
built, and an empty cache cannot evict, so a store nobody will read is
dropped without a counter noticing. A run where every client asks once
holds no cache state at all; every counter is what it would be with
every cache built on the client's first query.

Per-client counts are dense arrays indexed by the client number, sized
to the clients the walk can reach (``min(clients, queries)`` of the
sample): how often each client has asked (``array('I')``) and, under
churn, when it last asked (``array('d')``).

Client churn is applied here: with churn rate λ, a client alive since
its last query survives the gap ``dt`` with probability ``exp(-λ·dt)``
(exponential lifetimes); a replaced client restarts with cold caches.
The survival draws come from the model's own RNG so churn never
perturbs the arrival/name streams.
"""

from __future__ import annotations

import math
import random
from array import array
from typing import Dict, List, Optional, Tuple

from repro.cache import CacheStats, EvictionPolicy, KeyedCache
from repro.scenarios.scenario import CachingSpec


#: One client's ``(dns, coap)`` caches; ``None`` where a location is off.
CachePair = Tuple[Optional[KeyedCache], Optional[KeyedCache]]


class FleetCacheModel:
    """Per-client cache pairs with pooled per-location statistics."""

    def __init__(
        self,
        caching: CachingSpec,
        clients: int,
        coap_based: bool,
        coap_active: bool = True,
        churn: float = 0.0,
        model_rng: Optional[random.Random] = None,
    ) -> None:
        self._dns_enabled = caching.client_dns
        # Mirrors the exact stack: a client CoAP cache only exists when
        # the transport has a CoAP layer for it to live in — and may
        # exist without ever being *consulted* (`coap_active=False`),
        # like the per-node stack's cache under plain OSCORE, whose
        # protected requests are not CoAP-cacheable. An existing-but-
        # inactive cache still pools (all-zero) counters, keeping the
        # Report's key set identical to the exact simulator's.
        self._coap_enabled = caching.client_coap and coap_based
        self._coap_consulted = self._coap_enabled and coap_active
        self._dns_capacity = caching.client_dns_capacity
        self._coap_capacity = caching.client_coap_capacity
        self._churn = churn
        self._model_rng = model_rng if model_rng is not None else random.Random(0)
        self._pairs: Dict[int, CachePair] = {}
        # Clients are 0 .. clients - 1: one slot each, zero-filled.
        self._asked = array("I", [0]) * clients
        self._last_seen = (
            array("d", [0.0]) * clients if churn > 0.0 else None
        )
        #: Pooled counters, keyed with the exact runner's location labels.
        self.stats: Dict[str, CacheStats] = {}
        #: The counters of the locations queries look up and store into:
        #: what a query of a client without caches misses on.
        self.consulted: List[CacheStats] = []
        if self._dns_enabled:
            self.stats["client-dns"] = CacheStats()
            self.consulted.append(self.stats["client-dns"])
        if self._coap_enabled:
            self.stats["client-coap"] = CacheStats()
            if self._coap_consulted:
                self.consulted.append(self.stats["client-coap"])

    @property
    def active_clients(self) -> int:
        """Clients that issued at least one query."""
        return len(self._asked) - self._asked.count(0)

    def touch(self, client: int, now: float) -> int:
        """Count *client*'s query at *now* and apply the churn model
        to the time since its previous one; returns how many queries
        the client has now issued."""
        asked = self._asked[client] + 1
        self._asked[client] = asked
        last_seen = self._last_seen
        if last_seen is None:
            return asked
        last = last_seen[client]
        last_seen[client] = now
        if asked == 1:
            return asked
        gap = now - last
        if gap > 0.0 and (
            self._model_rng.random() >= math.exp(-self._churn * gap)
        ):
            # The original client left the fleet; its replacement
            # starts cold.
            for cache in self._pairs.get(client, ()):
                if cache is not None:
                    cache.clear()
        return asked

    # -- per-client access --------------------------------------------------

    def caches(self, client: int) -> Optional[CachePair]:
        """*client*'s ``(dns, coap)`` caches (``None`` in the place of
        a location that is off or never consulted) — or ``None`` while
        nothing has been stored for the client, in which case each
        consulted location has counted the miss its empty cache would
        have.
        """
        pair = self._pairs.get(client)
        if pair is None:
            for stats in self.consulted:
                stats.misses += 1
        return pair

    def materialise(self, client: int) -> CachePair:
        """Build *client*'s (empty) caches, ahead of its first store."""
        pair = self._pairs[client] = (
            KeyedCache(
                self._dns_capacity,
                policy=EvictionPolicy.EXPIRED_FIRST,
                keep_stale=False,
                stats=self.stats["client-dns"],
            ) if self._dns_enabled else None,
            KeyedCache(
                self._coap_capacity,
                policy=EvictionPolicy.EXPIRED_FIRST,
                keep_stale=True,
                stats=self.stats["client-coap"],
            ) if self._coap_consulted else None,
        )
        return pair

    # -- scaling -----------------------------------------------------------

    def scaled_stats(self, scale: float) -> Dict[str, Dict[str, int]]:
        """Per-location counters blown up to fleet totals.

        Counters scale linearly (each sampled client stands for
        ``scale`` fleet clients); a Report derives the ratios from the
        scaled counters with the exact ``CacheStats`` definitions, so
        they match the unscaled ratios up to rounding.
        """
        scaled: Dict[str, Dict[str, int]] = {}
        for location, stats in self.stats.items():
            scaled[location] = {
                key: int(round(value * scale))
                for key, value in stats.as_dict().items()
            }
        return scaled
