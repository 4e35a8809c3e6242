"""CoAP cache tests: keys, freshness, validation (the Table 5 core)."""

import pytest

from repro.coap import CoapCache, CoapMessage, Code, OptionNumber, cache_key_for


def _fetch(payload=b"query", path="/dns"):
    return CoapMessage.request(Code.FETCH, path, payload=payload)


def _response(request, payload=b"answer", max_age=30, etag=b"\x01"):
    response = request.make_response(Code.CONTENT, payload=payload)
    response = response.with_uint_option(OptionNumber.MAX_AGE, max_age)
    if etag is not None:
        response = response.with_option(OptionNumber.ETAG, etag)
    return response


class TestCacheKey:
    def test_fetch_includes_payload(self):
        assert cache_key_for(_fetch(b"a")) != cache_key_for(_fetch(b"b"))

    def test_get_ignores_payload(self):
        a = CoapMessage.request(Code.GET, "/dns")
        b = CoapMessage.request(Code.GET, "/dns")
        assert cache_key_for(a) == cache_key_for(b)

    def test_post_not_cacheable(self):
        assert cache_key_for(CoapMessage.request(Code.POST, "/dns")) is None

    def test_uri_path_distinguishes(self):
        assert cache_key_for(_fetch(path="/dns")) != cache_key_for(_fetch(path="/x"))

    def test_token_and_mid_irrelevant(self):
        from dataclasses import replace

        a = _fetch()
        b = replace(a, token=b"\x09", mid=777)
        assert cache_key_for(a) == cache_key_for(b)

    def test_block_and_etag_options_excluded(self):
        a = _fetch()
        b = _fetch().with_option(OptionNumber.ETAG, b"\x01").with_option(
            OptionNumber.BLOCK2, b"\x01"
        )
        assert cache_key_for(a) == cache_key_for(b)

    def test_identical_dns_queries_share_key(self):
        """The Section 4.2 design point: ID-zeroed DNS queries are
        byte-identical and therefore share a cache entry."""
        from repro.dns import make_query

        wire1 = make_query("example.org", txid=0).encode()
        wire2 = make_query("example.org", txid=0).encode()
        assert cache_key_for(_fetch(wire1)) == cache_key_for(_fetch(wire2))

    def test_distinct_dns_ids_break_key(self):
        from repro.dns import make_query

        wire1 = make_query("example.org", txid=1).encode()
        wire2 = make_query("example.org", txid=2).encode()
        assert cache_key_for(_fetch(wire1)) != cache_key_for(_fetch(wire2))


class TestFreshness:
    def test_fresh_hit_ages_max_age(self):
        cache = CoapCache()
        request = _fetch()
        cache.store(request, _response(request, max_age=30), now=0.0)
        hit, _ = cache.lookup(request, now=12.0)
        assert hit is not None
        assert hit.max_age == 18

    def test_stale_after_max_age(self):
        cache = CoapCache()
        request = _fetch()
        cache.store(request, _response(request, max_age=5), now=0.0)
        hit, entry = cache.lookup(request, now=6.0)
        assert hit is None and entry is not None

    def test_default_max_age_60(self):
        cache = CoapCache()
        request = _fetch()
        response = request.make_response(Code.CONTENT, payload=b"x")
        cache.store(request, response, now=0.0)
        hit, _ = cache.lookup(request, now=59.0)
        assert hit is not None
        hit, _ = cache.lookup(request, now=61.0)
        assert hit is None

    def test_error_responses_not_cached(self):
        cache = CoapCache()
        request = _fetch()
        assert not cache.store(request, request.make_response(Code.NOT_FOUND), 0.0)

    def test_post_store_rejected(self):
        cache = CoapCache()
        request = CoapMessage.request(Code.POST, "/dns", payload=b"q")
        assert not cache.store(request, _response(request), 0.0)

    def test_lru_eviction(self):
        cache = CoapCache(capacity=2)
        for i in range(3):
            request = _fetch(payload=bytes([i]))
            cache.store(request, _response(request), now=0.0)
        assert cache.stats.evictions == 1
        hit, entry = cache.lookup(_fetch(payload=b"\x00"), now=0.0)
        assert hit is None and entry is None


class TestValidation:
    def test_refresh_with_matching_etag(self):
        cache = CoapCache()
        request = _fetch()
        cache.store(request, _response(request, max_age=5, etag=b"\x01"), now=0.0)
        _, entry = cache.lookup(request, now=10.0)   # stale
        valid = request.make_response(Code.VALID).with_option(
            OptionNumber.ETAG, b"\x01"
        ).with_uint_option(OptionNumber.MAX_AGE, 8)
        revived = cache.refresh(request, valid, now=10.0)
        assert revived is not None
        assert revived.payload == b"answer"
        assert revived.max_age == 8
        hit, _ = cache.lookup(request, now=12.0)
        assert hit is not None  # fresh again

    def test_refresh_with_changed_etag_fails(self):
        """The DoH-like failure of Figure 3 step 4."""
        cache = CoapCache()
        request = _fetch()
        cache.store(request, _response(request, etag=b"\x01"), now=0.0)
        valid = request.make_response(Code.VALID).with_option(
            OptionNumber.ETAG, b"\x02"
        )
        assert cache.refresh(request, valid, now=70.0) is None
        assert cache.stats.validation_failures == 1

    def test_refresh_unknown_entry(self):
        cache = CoapCache()
        request = _fetch()
        valid = request.make_response(Code.VALID)
        assert cache.refresh(request, valid, now=0.0) is None

    def test_store_valid_routes_to_refresh(self):
        cache = CoapCache()
        request = _fetch()
        cache.store(request, _response(request, max_age=5, etag=b"\x01"), now=0.0)
        valid = request.make_response(Code.VALID).with_option(
            OptionNumber.ETAG, b"\x01"
        ).with_uint_option(OptionNumber.MAX_AGE, 9)
        assert cache.store(request, valid, now=6.0)
        hit, _ = cache.lookup(request, now=7.0)
        assert hit is not None

    def test_stats_counters(self):
        cache = CoapCache()
        request = _fetch()
        cache.lookup(request, now=0.0)
        cache.store(request, _response(request, max_age=5), now=0.0)
        cache.lookup(request, now=1.0)
        cache.lookup(request, now=6.0)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stale_hits == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CoapCache(0)
