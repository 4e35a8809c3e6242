"""The generic keyed store every cache location shares.

:class:`KeyedCache` owns storage, aging, eviction, and statistics; the
domain modules keep what is genuinely theirs — cache-*key* computation
and TTL/Max-Age semantics (:mod:`repro.dns.cache`,
:mod:`repro.coap.cache`, :mod:`repro.oscore.cacheable` are thin
adapters). Two behaviours distinguish cache locations in the paper:

* **keep_stale** — CoAP caches retain expired entries so their ETag can
  revalidate upstream (RFC 7252 §5.6, the Figure 3 mechanism); DNS
  caches drop entries at TTL expiry (no revalidation in DNS).
* **eviction policy** — LRU, FIFO, or expired-first (prefer an already
  expired victim, found in O(log n) via the expiry heap, before
  displacing a live LRU entry).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Hashable, Optional, Tuple

from .expiry import ExpiryIndex
from .stats import CacheStats


class EvictionPolicy(enum.Enum):
    """Victim selection when a full cache stores a new key.

    * ``LRU`` — evict the least recently used entry (lookup hits
      refresh recency);
    * ``FIFO`` — evict in insertion order (hits do not reorder);
    * ``EXPIRED_FIRST`` — evict an already-expired entry when one
      exists (O(log n) via the expiry index), falling back to LRU.
      This is what every deployed location wants: a dead entry never
      costs a live one its slot.
    """

    LRU = "lru"
    FIFO = "fifo"
    EXPIRED_FIRST = "expired-first"


class LookupState(enum.Enum):
    """What a lookup found."""

    HIT = "hit"          # fresh entry
    STALE = "stale"      # expired entry retained for revalidation
    MISS = "miss"        # nothing usable


class CacheEntry:
    """One stored value with its freshness bookkeeping.

    ``lifetime`` is the freshness duration in seconds (a DNS TTL or a
    CoAP Max-Age); the entry is fresh strictly before
    ``stored_at + lifetime``.
    """

    __slots__ = ("value", "stored_at", "lifetime")

    def __init__(self, value, stored_at: float, lifetime: float) -> None:
        self.value = value
        self.stored_at = stored_at
        self.lifetime = lifetime

    @property
    def expires_at(self) -> float:
        return self.stored_at + self.lifetime

    def age(self, now: float) -> float:
        return now - self.stored_at

    def remaining(self, now: float) -> int:
        """Whole seconds of freshness left (0 when stale)."""
        return max(0, int(self.lifetime - self.age(now)))


class KeyedCache:
    """Bounded keyed store with TTL aging and pluggable eviction.

    Parameters
    ----------
    capacity:
        Maximum number of entries (>= 1).
    policy:
        Victim selection when full (default expired-first).
    keep_stale:
        When true, expired entries survive lookup as ``STALE`` results
        for upstream revalidation; when false they are dropped and the
        lookup is a ``MISS`` (DNS semantics).
    stats:
        Optionally share a :class:`CacheStats` instance (e.g. to pool
        several shards into one counter set).
    entry_factory:
        :class:`CacheEntry` subclass to instantiate on ``store`` —
        domain adapters use this to expose domain-named views
        (``response``/``ttl``/``max_age``) over the shared fields.
    """

    def __init__(
        self,
        capacity: int,
        policy: EvictionPolicy = EvictionPolicy.EXPIRED_FIRST,
        keep_stale: bool = False,
        stats: Optional[CacheStats] = None,
        entry_factory: type = CacheEntry,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._policy = policy
        self._keep_stale = keep_stale
        self._entry_factory = entry_factory
        self._entries: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()
        self._expiry = ExpiryIndex(self._current_expiry)
        # Decided once: only FIFO leaves recency untouched on hits.
        self._refresh_recency = policy is not EvictionPolicy.FIFO
        self.stats = stats if stats is not None else CacheStats()

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def peek(self, key: Hashable) -> Optional[CacheEntry]:
        """The raw entry for *key* — no stats, no recency update."""
        return self._entries.get(key)

    def _current_expiry(self, key: Hashable) -> Optional[float]:
        entry = self._entries.get(key)
        return None if entry is None else entry.expires_at

    # -- lookups ----------------------------------------------------------

    def lookup(
        self, key: Hashable, now: float
    ) -> Tuple[Optional[CacheEntry], LookupState]:
        """Return ``(entry, state)`` for *key* at time *now*.

        ``HIT`` returns the fresh entry; ``STALE`` (only with
        ``keep_stale``) returns the expired entry for revalidation;
        ``MISS`` returns ``None``.
        """
        entries = self._entries
        entry = entries.get(key)
        if entry is None:
            # Short-circuit: a miss is one dict probe and a counter —
            # no recency churn and no expiry-index work.
            self.stats.misses += 1
            return None, LookupState.MISS
        if now < entry.stored_at + entry.lifetime:
            if self._refresh_recency:
                entries.move_to_end(key)
            self.stats.hits += 1
            return entry, LookupState.HIT
        if self._keep_stale:
            if self._refresh_recency:
                entries.move_to_end(key)
            self.stats.stale_hits += 1
            return entry, LookupState.STALE
        del entries[key]
        self.stats.misses += 1
        return None, LookupState.MISS

    # -- updates ----------------------------------------------------------

    def store(self, key: Hashable, value, lifetime: float, now: float) -> CacheEntry:
        """Insert or overwrite *key*; evicts per policy when full."""
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self._capacity:
            self._evict_one(now)
        entry = self._entry_factory(value, now, lifetime)
        self._entries[key] = entry
        self._expiry.push(entry.expires_at, key)
        self._expiry.compact_if_needed(len(self._entries))
        return entry

    def _evict_one(self, now: float) -> None:
        if self._policy is EvictionPolicy.EXPIRED_FIRST:
            key = self._expiry.pop_expired(now)
            if key is not None:
                # An already-dead entry makes room for free.
                del self._entries[key]
                return
        self._entries.popitem(last=False)
        self.stats.evictions += 1

    def refresh(
        self,
        key: Hashable,
        now: float,
        lifetime: float,
        value=None,
    ) -> Optional[CacheEntry]:
        """Revalidation hook: revive *key* with a new lifetime.

        Counts a successful validation and restamps the entry (and its
        value, when given). Returns ``None`` when *key* is not stored —
        the caller decides whether that is a failure.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        entry.stored_at = now
        entry.lifetime = lifetime
        if value is not None:
            entry.value = value
        self._expiry.push(entry.expires_at, key)
        self._expiry.compact_if_needed(len(self._entries))
        self.stats.validations += 1
        return entry

    def note_validation_failure(self) -> None:
        """Revalidation hook: the upstream validator did not match."""
        self.stats.validation_failures += 1

    def expire(self, now: float) -> int:
        """Drop every stale entry in O(k log n); returns the count."""
        removed = 0
        while True:
            key = self._expiry.pop_expired(now)
            if key is None:
                break
            del self._entries[key]
            removed += 1
        return removed

    def clear(self) -> None:
        self._entries.clear()
        self._expiry.clear()
