"""Unit tests for the unified caching subsystem (``repro.cache``)."""

import pytest

from repro.cache import (
    CacheEntry,
    CacheStats,
    EvictionPolicy,
    ExpiryIndex,
    KeyedCache,
    LookupState,
)


class TestCacheEntry:
    def test_freshness_window(self):
        entry = CacheEntry("value", stored_at=10.0, lifetime=5.0)
        assert entry.expires_at == 15.0
        assert entry.remaining(14.0) == 1

    def test_remaining_clamps_at_zero(self):
        entry = CacheEntry("value", stored_at=0.0, lifetime=5.0)
        assert entry.remaining(1.5) == 3
        assert entry.remaining(100.0) == 0


class TestKeyedCacheBasics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            KeyedCache(0)

    def test_miss_then_hit(self):
        cache = KeyedCache(4)
        entry, state = cache.lookup("k", now=0.0)
        assert entry is None and state is LookupState.MISS
        cache.store("k", "v", lifetime=10.0, now=0.0)
        entry, state = cache.lookup("k", now=5.0)
        assert state is LookupState.HIT and entry.value == "v"
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_expired_dropped_without_keep_stale(self):
        cache = KeyedCache(4, keep_stale=False)
        cache.store("k", "v", lifetime=5.0, now=0.0)
        entry, state = cache.lookup("k", now=6.0)
        assert entry is None and state is LookupState.MISS
        assert len(cache) == 0
        assert cache.stats.misses == 1

    def test_expired_kept_with_keep_stale(self):
        cache = KeyedCache(4, keep_stale=True)
        cache.store("k", "v", lifetime=5.0, now=0.0)
        entry, state = cache.lookup("k", now=6.0)
        assert state is LookupState.STALE and entry.value == "v"
        assert len(cache) == 1
        assert cache.stats.stale_hits == 1

    def test_overwrite_replaces(self):
        cache = KeyedCache(2)
        cache.store("k", "old", lifetime=10.0, now=0.0)
        cache.store("k", "new", lifetime=10.0, now=1.0)
        assert len(cache) == 1
        entry, _ = cache.lookup("k", now=2.0)
        assert entry.value == "new"

    def test_refresh_revives_and_counts_validation(self):
        cache = KeyedCache(2, keep_stale=True)
        cache.store("k", "v", lifetime=5.0, now=0.0)
        cache.lookup("k", now=6.0)  # stale
        entry = cache.refresh("k", now=6.0, lifetime=8.0, value="v2")
        assert entry.value == "v2"
        _, state = cache.lookup("k", now=10.0)
        assert state is LookupState.HIT
        assert cache.stats.validations == 1

    def test_refresh_unknown_key(self):
        cache = KeyedCache(2)
        assert cache.refresh("missing", now=0.0, lifetime=5.0) is None
        assert cache.stats.validations == 0

    def test_validation_failure_hook(self):
        cache = KeyedCache(2)
        cache.note_validation_failure()
        assert cache.stats.validation_failures == 1


class TestEvictionPolicies:
    def _filled(self, policy, keep_stale=False):
        cache = KeyedCache(2, policy=policy, keep_stale=keep_stale)
        cache.store("a", 1, lifetime=100.0, now=0.0)
        cache.store("b", 2, lifetime=100.0, now=1.0)
        return cache

    def test_lru_evicts_least_recently_used(self):
        cache = self._filled(EvictionPolicy.LRU)
        cache.lookup("a", now=2.0)  # refresh a's recency
        cache.store("c", 3, lifetime=100.0, now=3.0)
        assert cache.peek("a") and cache.peek("c") and cache.peek("b") is None
        assert cache.stats.evictions == 1

    def test_fifo_ignores_recency(self):
        cache = self._filled(EvictionPolicy.FIFO)
        cache.lookup("a", now=2.0)  # does not protect a under FIFO
        cache.store("c", 3, lifetime=100.0, now=3.0)
        assert cache.peek("b") and cache.peek("c") and cache.peek("a") is None

    def test_expired_first_prefers_dead_entry(self):
        cache = KeyedCache(2, policy=EvictionPolicy.EXPIRED_FIRST)
        cache.store("short", 1, lifetime=1.0, now=0.0)
        cache.store("long", 2, lifetime=100.0, now=0.5)
        cache.lookup("long", now=2.0)  # most recent; short is expired
        cache.store("new", 3, lifetime=100.0, now=3.0)
        assert cache.peek("long") and cache.peek("new") and cache.peek("short") is None
        # Removing a dead entry is not an eviction.
        assert cache.stats.evictions == 0

    def test_expired_first_falls_back_to_lru(self):
        cache = self._filled(EvictionPolicy.EXPIRED_FIRST)
        cache.lookup("a", now=2.0)
        cache.store("c", 3, lifetime=100.0, now=3.0)
        assert cache.peek("a") and cache.peek("c") and cache.peek("b") is None
        assert cache.stats.evictions == 1


class TestBulkExpiry:
    def test_expire_removes_only_stale(self):
        cache = KeyedCache(8)
        for index in range(4):
            cache.store(index, index, lifetime=float(index + 1), now=0.0)
        assert cache.expire(now=2.5) == 2   # lifetimes 1 and 2
        assert len(cache) == 2
        assert cache.expire(now=2.5) == 0

    def test_expire_after_refresh_respects_new_lifetime(self):
        cache = KeyedCache(4, keep_stale=True)
        cache.store("k", "v", lifetime=2.0, now=0.0)
        cache.refresh("k", now=1.0, lifetime=10.0)
        assert cache.expire(now=5.0) == 0
        assert cache.expire(now=12.0) == 1

    def test_expire_many_is_cheap_on_fresh_cache(self):
        # The O(log n) claim in spirit: expire() on an all-fresh cache
        # does constant work (one heap peek), not a full scan. Hard to
        # time reliably; assert the heap survives repeated no-op calls.
        cache = KeyedCache(1000)
        for index in range(1000):
            cache.store(index, index, lifetime=1000.0, now=0.0)
        for _ in range(100):
            assert cache.expire(now=1.0) == 0
        assert len(cache) == 1000


class TestExpiryIndex:
    def test_lazy_invalidation(self):
        live = {}
        index = ExpiryIndex(live.get)
        live["a"] = 5.0
        index.push(5.0, "a")
        index.push(9.0, "a")   # superseded record
        live["a"] = 9.0
        assert index.pop_expired(6.0) is None   # 5.0 record is dead
        assert index.pop_expired(10.0) == "a"

    def test_compaction_bounds_heap(self):
        live = {}
        index = ExpiryIndex(live.get)
        for round_number in range(50):
            live["k"] = float(round_number)
            index.push(float(round_number), "k")
            index.compact_if_needed(live_entries=1)
        assert len(index) <= 8


class TestCacheStats:
    def test_ratios(self):
        stats = CacheStats(hits=6, misses=2, stale_hits=2, validations=1)
        assert stats.lookups == 10
        assert stats.hit_ratio == pytest.approx(0.6)
        assert stats.stale_ratio == pytest.approx(0.2)
        assert stats.validation_ratio == pytest.approx(0.5)

    def test_empty_ratios_are_zero(self):
        stats = CacheStats()
        assert stats.hit_ratio == 0.0
        assert stats.stale_ratio == 0.0
        assert stats.validation_ratio == 0.0

    def test_merge_sums_all_fields(self):
        a = CacheStats(hits=1, misses=2, evictions=3)
        b = CacheStats(hits=10, stale_hits=5, validation_failures=7)
        a.merge(b)
        assert a.hits == 11 and a.misses == 2 and a.stale_hits == 5
        assert a.evictions == 3 and a.validation_failures == 7


class TestDnsCacheAdapter:
    """The DNS cache keeps its public face but shares the engine."""

    def _response(self, ttl):
        from repro.dns import (
            AAAAData,
            DNSClass,
            Flags,
            Message,
            Question,
            RecordType,
            ResourceRecord,
        )

        name = f"ttl{ttl}.example.org"
        return Message(
            flags=Flags(qr=True),
            questions=(Question(name, RecordType.AAAA),),
            answers=(
                ResourceRecord(name, RecordType.AAAA, DNSClass.IN, ttl,
                               AAAAData("2001:db8::1")),
            ),
        )

    def test_expired_evicted_before_live_lru(self):
        """The PR's headline DNS fix: a full cache holding an expired
        entry must sacrifice it, not a live LRU entry."""
        from repro.dns import DNSCache, Question, RecordType

        cache = DNSCache(2)
        short = Question("short.org", RecordType.AAAA)
        live = Question("live.org", RecordType.AAAA)
        fresh = Question("fresh.org", RecordType.AAAA)
        cache.store(short, self._response(2), now=0.0)
        cache.store(live, self._response(600), now=1.0)
        # short is expired at t=5; storing a third entry must evict it
        # even though live is less recently used at that point.
        cache.lookup(live, now=5.0)
        cache.store(fresh, self._response(600), now=5.0)
        assert cache.lookup(live, now=6.0) is not None
        assert cache.lookup(fresh, now=6.0) is not None
        assert cache.lookup(short, now=6.0) is None

    def test_unified_stats_exposed(self):
        from repro.cache import CacheStats
        from repro.dns import DNSCache, Question, RecordType

        cache = DNSCache(4)
        question = Question("ttl60.example.org", RecordType.AAAA)
        cache.lookup(question, now=0.0)
        cache.store(question, self._response(60), now=0.0)
        cache.lookup(question, now=1.0)
        assert isinstance(cache.stats, CacheStats)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1


class TestCoapCacheAdapter:
    def test_eviction_counts_in_unified_stats(self):
        from repro.coap import CoapCache, CoapMessage, Code

        cache = CoapCache(capacity=2)
        for index in range(3):
            request = CoapMessage.request(
                Code.FETCH, "/dns", payload=bytes([index])
            )
            response = request.make_response(Code.CONTENT, payload=b"x")
            cache.store(request, response, now=0.0)
        assert cache.stats.evictions == 1
