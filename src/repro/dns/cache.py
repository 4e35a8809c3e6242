"""TTL-aware DNS cache, as deployed on clients and the recursive resolver.

Mirrors RIOT's ``CONFIG_DNS_CACHE_SIZE`` bounded cache (Table 6 sets it
to 8 on clients): fixed capacity with TTL aging on lookup so returned
records carry the *remaining* TTL, the behaviour that makes the paper's
DoH-like ETags unstable.

This module is a thin adapter over :mod:`repro.cache`: it contributes
the DNS cache key ``(name, type, class)`` and the TTL semantics
(zero-TTL responses uncacheable, expired entries dropped — DNS has no
revalidation); storage, aging, eviction, and statistics are the shared
:class:`~repro.cache.KeyedCache`. Eviction is expired-first with an LRU
fallback, so a dead entry never costs a live one its slot.
"""

from __future__ import annotations

from typing import Optional

from repro.cache import CacheEntry as _BaseEntry
from repro.cache import CacheStats, EvictionPolicy, KeyedCache, LookupState

from .message import Message, Question


class CacheEntry(_BaseEntry):
    """A cached response viewed with DNS vocabulary."""

    @property
    def response(self) -> Message:
        return self.value

    def aged_response(self, now: float) -> Message:
        """The response with TTLs decremented by the elapsed cache time."""
        elapsed = int(now - self.stored_at)
        return self.response.adjust_ttls(-elapsed)


class DNSCache:
    """A bounded DNS response cache keyed by (name, type, class).

    Parameters
    ----------
    capacity:
        Maximum number of entries (RIOT uses a similarly bounded
        table); when full, an expired entry is evicted if one exists,
        otherwise the least recently used.
    """

    def __init__(self, capacity: int = 8) -> None:
        self._store = KeyedCache(
            capacity,
            policy=EvictionPolicy.EXPIRED_FIRST,
            keep_stale=False,
            entry_factory=CacheEntry,
        )

    @property
    def stats(self) -> CacheStats:
        return self._store.stats

    def store(self, question: Question, response: Message, now: float) -> None:
        """Insert *response* for *question*; zero-TTL responses are not cached."""
        ttl = response.min_ttl()
        if ttl is None or ttl <= 0:
            return
        self._store.store(question.cache_key(), response, ttl, now)

    def lookup(self, question: Question, now: float) -> Optional[Message]:
        """Return the aged cached response, or ``None`` on miss/expiry."""
        entry, state = self._store.lookup(question.cache_key(), now)
        if state is not LookupState.HIT:
            return None
        return entry.aged_response(now)
