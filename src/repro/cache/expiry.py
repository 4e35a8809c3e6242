"""Expiry index: find the next entry to die in O(log n).

The seed implementations scanned every entry on ``expire()`` and, when
full, evicted a *live* LRU entry even while expired ones sat in the
table. A lazy min-heap over ``(expires_at, key)`` fixes both: bulk
expiry pops only what is actually stale, and capacity eviction can ask
"is anything already dead?" before touching a live entry.

Laziness: entries are never removed from the heap on overwrite or
delete; a heap record is *current* only if the store still maps the key
to the same expiry time. Stale heap records are skipped on pop and the
heap is compacted once they dominate, keeping amortised costs
logarithmic.
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable, List, Optional, Tuple

#: Compact when the heap holds this many times more records than the
#: store has entries (bounds memory and amortises the rebuild).
_COMPACT_FACTOR = 4


class ExpiryIndex:
    """A lazy min-heap of ``(expires_at, key)`` records.

    Parameters
    ----------
    current_expiry:
        Callback mapping a key to its live expiry time, or ``None``
        when the key is no longer stored. This is how the heap decides
        whether a record is current without write-through bookkeeping.
    """

    def __init__(
        self, current_expiry: Callable[[Hashable], Optional[float]]
    ) -> None:
        self._heap: List[Tuple[float, int, Hashable]] = []
        self._counter = 0
        self._current_expiry = current_expiry

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, expires_at: float, key: Hashable) -> None:
        """Record that *key* now expires at *expires_at*."""
        self._counter += 1
        heapq.heappush(self._heap, (expires_at, self._counter, key))

    def _skim(self) -> Optional[Tuple[float, Hashable]]:
        """Drop dead records off the top; return the current minimum."""
        while self._heap:
            expires_at, _, key = self._heap[0]
            if self._current_expiry(key) == expires_at:
                return expires_at, key
            heapq.heappop(self._heap)
        return None

    def pop_expired(self, now: float) -> Optional[Hashable]:
        """Remove and return one expired key (its heap record only —
        the caller removes it from the store)."""
        top = self._skim()
        if top is None or top[0] > now:
            return None
        heapq.heappop(self._heap)
        return top[1]

    def compact_if_needed(self, live_entries: int) -> None:
        """Rebuild the heap when dead records dominate it."""
        if len(self._heap) <= max(8, live_entries * _COMPACT_FACTOR):
            return
        current = []
        seen = set()
        # Keep the newest record per key (later counter wins).
        for expires_at, counter, key in sorted(
            self._heap, key=lambda rec: -rec[1]
        ):
            if key in seen:
                continue
            if self._current_expiry(key) == expires_at:
                seen.add(key)
                current.append((expires_at, counter, key))
        heapq.heapify(current)
        self._heap = current

    def clear(self) -> None:
        self._heap.clear()
        self._counter = 0
