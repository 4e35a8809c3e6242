"""CoAP response cache with freshness and validation (RFC 7252 §5.6).

This single implementation backs all three cache locations the paper
evaluates (Section 6.1): the client CoAP cache, and the forward proxy
cache. Its key properties drive the paper's results:

* **Cache key** — method, the cache-relevant options (Uri-Path/Query
  etc., excluding NoCacheKey options), and for FETCH the request payload
  (RFC 8132 §2). This is why DoC zeroes the DNS ID: equal queries must
  serialise to equal payloads to share an entry.
* **Freshness** — governed by Max-Age (default 60 s), decremented when a
  cached response is served, exactly the Max-Age aging in Figure 3.
* **Validation** — stale entries are kept; their ETag is offered on
  re-requests, and a 2.03 Valid refreshes the entry without re-sending
  the payload (the EOL-TTLs win in Figure 3, step 4).

The module is a thin adapter over :mod:`repro.cache`: it owns the CoAP
cache-key computation and the Max-Age/ETag semantics; storage, aging,
eviction (expired-first with LRU fallback), and the unified
:class:`~repro.cache.CacheStats` are the shared
:class:`~repro.cache.KeyedCache`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cache import CacheEntry as _BaseEntry
from repro.cache import CacheStats, EvictionPolicy, KeyedCache, LookupState

from .codes import CACHEABLE_METHODS, Code
from .message import CoapMessage
from .options import OptionNumber

__all__ = [
    "CacheStats",
    "CoapCache",
    "CoapCacheEntry",
    "DEFAULT_MAX_AGE",
    "cache_key_for",
]

#: RFC 7252 §5.10.5: default Max-Age when the option is absent.
DEFAULT_MAX_AGE = 60

CacheKey = Tuple[int, Tuple[Tuple[int, bytes], ...], bytes]


def cache_key_for(request: CoapMessage) -> Optional[CacheKey]:
    """Compute the cache key for *request*, or None if uncacheable.

    POST is not cacheable (Table 5); GET keys on the options only;
    FETCH additionally keys on the payload (its Content-Format is part
    of the options already).
    """
    if request.code not in CACHEABLE_METHODS:
        return None
    relevant = tuple(
        (number, value)
        for number, value in sorted(request.options)
        if not _excluded_from_cache_key(number)
    )
    payload = request.payload if request.code == Code.FETCH else b""
    return (int(request.code), relevant, payload)


def _excluded_from_cache_key(number: int) -> bool:
    # NoCacheKey options plus hop-by-hop/transfer options.
    if (number & 0x1E) == 0x1C:
        return True
    return number in (
        OptionNumber.BLOCK1,
        OptionNumber.BLOCK2,
        OptionNumber.ETAG,
        OptionNumber.ECHO,
    )


class CoapCacheEntry(_BaseEntry):
    """A cached response viewed with CoAP vocabulary."""

    @property
    def response(self) -> CoapMessage:
        return self.value

    @property
    def etag(self) -> Optional[bytes]:
        return self.response.etag


class CoapCache:
    """Bounded CoAP response cache (client- or proxy-side).

    Parameters
    ----------
    capacity:
        Maximum entries; RIOT's ``CONFIG_NANOCOAP_CACHE_ENTRIES`` is 8
        on clients and 50 on the proxy (Table 6).
    """

    def __init__(self, capacity: int = 8) -> None:
        self._store = KeyedCache(
            capacity,
            policy=EvictionPolicy.EXPIRED_FIRST,
            keep_stale=True,
            entry_factory=CoapCacheEntry,
        )
        self.stats = self._store.stats

    # -- lookups ----------------------------------------------------------

    def lookup(
        self, request: CoapMessage, now: float
    ) -> Tuple[Optional[CoapMessage], Optional[CoapCacheEntry]]:
        """Serve *request* from cache if possible.

        Returns ``(response, entry)``:

        * fresh hit — an aged copy of the response (Max-Age reduced by
          the elapsed time) and the entry;
        * stale hit — ``(None, entry)``; the caller should revalidate
          with the entry's ETag;
        * miss — ``(None, None)``.
        """
        key = cache_key_for(request)
        if key is None:
            return None, None
        entry, state = self._store.lookup(key, now)
        if state is LookupState.HIT:
            aged = entry.response.replace_uint_option(
                OptionNumber.MAX_AGE, entry.remaining(now)
            )
            return aged, entry
        if state is LookupState.STALE:
            return None, entry
        return None, None

    # -- updates ----------------------------------------------------------

    def store(
        self, request: CoapMessage, response: CoapMessage, now: float
    ) -> bool:
        """Cache *response* for *request* if cacheable; returns success."""
        key = cache_key_for(request)
        if key is None or not response.code.is_success:
            return False
        if response.code == Code.VALID:
            return self.refresh(request, response, now) is not None
        max_age = response.max_age
        if max_age is None:
            max_age = DEFAULT_MAX_AGE
        self._store.store(key, response, max_age, now)
        return True

    def refresh(
        self, request: CoapMessage, valid_response: CoapMessage, now: float
    ) -> Optional[CoapMessage]:
        """Apply a 2.03 Valid to the stale entry for *request*.

        Returns the revived full response (with the refreshed Max-Age)
        or ``None`` when no matching entry exists or the ETag differs —
        the failure mode the DoH-like scheme hits in Figure 3 step 4.
        """
        key = cache_key_for(request)
        if key is None:
            return None
        entry = self._store.peek(key)
        if entry is None:
            return None
        new_etag = valid_response.etag
        if new_etag is not None and entry.etag != new_etag:
            self._store.note_validation_failure()
            return None
        max_age = valid_response.max_age
        if max_age is None:
            max_age = DEFAULT_MAX_AGE
        refreshed = entry.response.replace_uint_option(
            OptionNumber.MAX_AGE, max_age
        )
        self._store.refresh(key, now, max_age, value=refreshed)
        return refreshed
