"""Aggregate client-cache model for the fleet engine.

The exact simulator builds a full protocol stack per client; the fleet
keeps *only* the cache state — per active client, the same bounded
:class:`~repro.cache.KeyedCache` stores the per-node stacks use, with
the same policies (client DNS: expired-first, stale entries dropped;
client CoAP: expired-first, stale entries kept for ETag revalidation)
and the same per-name TTL/occupancy behaviour. Every client's counters
pool into one shared :class:`~repro.cache.CacheStats` per location, so
the ``CacheStats`` vocabulary (hits/misses/stale/validations/
evictions) is reproduced exactly for the simulated sample and in
expectation for the scaled fleet.

Caches materialise lazily on a client's first query: a million-client
run with fifty queries holds fifty clients' worth of cache state, and a
sampled run at most the sample cap's worth.

Client churn is applied here: with churn rate λ, a client alive since
its last query survives the gap ``dt`` with probability ``exp(-λ·dt)``
(exponential lifetimes); a replaced client restarts with cold caches.
The survival draws come from the model's own RNG so churn never
perturbs the arrival/name streams.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional

from repro.cache import CacheStats, EvictionPolicy, KeyedCache
from repro.scenarios.scenario import CachingSpec


class FleetCacheModel:
    """Per-client cache columns with pooled per-location statistics."""

    def __init__(
        self,
        caching: CachingSpec,
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
        self._dns: Dict[int, KeyedCache] = {}
        self._coap: Dict[int, KeyedCache] = {}
        self._last_seen: Dict[int, float] = {}
        #: Pooled counters, keyed with the exact runner's location labels.
        self.stats: Dict[str, CacheStats] = {}
        if self._dns_enabled:
            self.stats["client-dns"] = CacheStats()
        if self._coap_enabled:
            self.stats["client-coap"] = CacheStats()

    @property
    def active_clients(self) -> int:
        """Clients whose cache state has materialised."""
        return len(self._last_seen)

    def touch(self, client: int, now: float) -> None:
        """Account for client lifetime between queries (churn model)."""
        last = self._last_seen.get(client)
        self._last_seen[client] = now
        if last is None or self._churn <= 0.0:
            return
        gap = max(0.0, now - last)
        if gap == 0.0:
            return
        if self._model_rng.random() >= math.exp(-self._churn * gap):
            # The original client left the fleet; its replacement
            # starts cold.
            cache = self._dns.get(client)
            if cache is not None:
                cache.clear()
            cache = self._coap.get(client)
            if cache is not None:
                cache.clear()

    # -- per-location access ----------------------------------------------

    def dns(self, client: int) -> Optional[KeyedCache]:
        if not self._dns_enabled:
            return None
        cache = self._dns.get(client)
        if cache is None:
            cache = self._dns[client] = KeyedCache(
                self._dns_capacity,
                policy=EvictionPolicy.EXPIRED_FIRST,
                keep_stale=False,
                stats=self.stats["client-dns"],
            )
        return cache

    def coap(self, client: int) -> Optional[KeyedCache]:
        if not self._coap_consulted:
            return None
        cache = self._coap.get(client)
        if cache is None:
            cache = self._coap[client] = KeyedCache(
                self._coap_capacity,
                policy=EvictionPolicy.EXPIRED_FIRST,
                keep_stale=True,
                stats=self.stats["client-coap"],
            )
        return cache

    # -- scaling -----------------------------------------------------------

    def scaled_stats(self, scale: float) -> Dict[str, Dict[str, float]]:
        """Per-location counters blown up to fleet totals.

        Counters scale linearly (each sampled client stands for
        ``scale`` fleet clients); the derived ratios are recomputed
        from the scaled counters with the exact ``CacheStats``
        definitions, so they match the unscaled ratios up to rounding.
        """
        scaled: Dict[str, Dict[str, float]] = {}
        for location, stats in self.stats.items():
            counters = CacheStats(**{
                key: int(round(value * scale))
                for key, value in stats.as_dict().items()
            })
            scaled[location] = dict(
                counters.as_dict(),
                hit_ratio=counters.hit_ratio,
                stale_ratio=counters.stale_ratio,
                validation_ratio=counters.validation_ratio,
            )
        return scaled
