"""Extended forward-proxy coverage: methods, validation paths, errors."""

import pytest

from repro.coap import CoapMessage, Code, OptionNumber
from repro.coap.endpoint import CoapClient, CoapServer
from repro.coap.proxy import ForwardProxy
from repro.sim import Simulator
from repro.stack import build_figure2_topology


def _build(seed=81, origin_handler=None, max_age=30, etag=b"\x01"):
    sim = Simulator(seed=seed)
    topo = build_figure2_topology(sim)
    origin_calls = {"n": 0}

    if origin_handler is None:
        def origin_handler(request, respond, metadata):
            origin_calls["n"] += 1
            response = request.make_response(Code.CONTENT, payload=b"data")
            response = response.with_uint_option(OptionNumber.MAX_AGE, max_age)
            if etag is not None:
                response = response.with_option(OptionNumber.ETAG, etag)
            respond(response)

    origin = CoapServer(sim, topo.resolver_host.bind(5683))
    origin.default_handler = origin_handler
    proxy = ForwardProxy(
        sim, topo.forwarder.bind(5683), topo.forwarder.bind(),
        (topo.resolver_host.address, 5683),
    )
    client = CoapClient(sim, topo.clients[0].bind())
    return sim, topo, proxy, client, origin_calls


def _request(method=Code.FETCH, payload=b"q"):
    return CoapMessage.request(method, "/dns", payload=payload)


class TestProxyMethods:
    def test_post_always_forwarded(self):
        sim, topo, proxy, client, calls = _build()
        results = []
        for delay in (0.0, 1.0):
            sim.schedule(delay, client.request, _request(Code.POST),
                         topo.forwarder.address, 5683,
                         lambda r, e: results.append((r, e)))
        sim.run(until=30)
        assert all(e is None for _, e in results)
        assert calls["n"] == 2
        assert proxy.requests_served_from_cache == 0

    def test_get_cached(self):
        sim, topo, proxy, client, calls = _build(seed=82)
        results = []
        request = CoapMessage.request(Code.GET, "/dns")
        for delay in (0.0, 1.0):
            sim.schedule(delay, client.request, request,
                         topo.forwarder.address, 5683,
                         lambda r, e: results.append((r, e)))
        sim.run(until=30)
        assert calls["n"] == 1
        assert proxy.requests_served_from_cache == 1

    def test_different_payloads_not_conflated(self):
        sim, topo, proxy, client, calls = _build(seed=83)
        results = []
        sim.schedule(0.0, client.request, _request(payload=b"q1"),
                     topo.forwarder.address, 5683,
                     lambda r, e: results.append((r, e)))
        sim.schedule(1.0, client.request, _request(payload=b"q2"),
                     topo.forwarder.address, 5683,
                     lambda r, e: results.append((r, e)))
        sim.run(until=30)
        assert calls["n"] == 2
        assert proxy.requests_served_from_cache == 0


class TestProxyValidation:
    def test_client_etag_confirmed_from_fresh_cache(self):
        """RFC 7252 §5.7: the proxy answers a matching ETag on a fresh
        entry with 2.03 Valid rather than the full payload."""
        sim, topo, proxy, client, calls = _build(seed=84)
        responses = []
        sim.schedule(0.0, client.request, _request(),
                     topo.forwarder.address, 5683,
                     lambda r, e: responses.append(r))
        sim.run(until=5)
        etag = responses[0].etag
        assert etag is not None
        validation = _request().with_option(OptionNumber.ETAG, etag)
        sim.schedule(0.0, client.request, validation,
                     topo.forwarder.address, 5683,
                     lambda r, e: responses.append(r))
        sim.run(until=10)
        assert responses[1].code == Code.VALID
        assert responses[1].payload == b""
        assert calls["n"] == 1   # never reached the origin

    def test_stale_entry_revalidated_upstream(self):
        sim, topo, proxy, client, calls = _build(seed=85, max_age=3)
        responses = []
        sim.schedule(0.0, client.request, _request(),
                     topo.forwarder.address, 5683,
                     lambda r, e: responses.append(r))
        sim.schedule(10.0, client.request, _request(),
                     topo.forwarder.address, 5683,
                     lambda r, e: responses.append(r))
        sim.run(until=30)
        assert len(responses) == 2
        assert responses[1].code == Code.CONTENT
        assert proxy.requests_revalidated == 1

    def test_error_responses_not_cached(self):
        def failing(request, respond, metadata):
            respond(request.make_response(Code.INTERNAL_SERVER_ERROR))

        sim, topo, proxy, client, _ = _build(seed=86, origin_handler=failing)
        results = []
        for delay in (0.0, 1.0):
            sim.schedule(delay, client.request, _request(),
                         topo.forwarder.address, 5683,
                         lambda r, e: results.append((r, e)))
        sim.run(until=30)
        assert all(
            r is not None and r.code == Code.INTERNAL_SERVER_ERROR
            for r, e in results
        )
        assert proxy.requests_served_from_cache == 0
        assert proxy.cache.stats.evictions == 0
        assert proxy.cache.lookup(_request(), now=sim.now) == (None, None)

    def test_blockwise_through_proxy(self):
        """Large responses travel the proxy in blocks and are cached as
        the reassembled whole."""
        big = bytes(range(180))

        def big_handler(request, respond, metadata):
            response = request.make_response(Code.CONTENT, payload=big)
            respond(response.with_uint_option(OptionNumber.MAX_AGE, 60))

        sim = Simulator(seed=87)
        topo = build_figure2_topology(sim)
        origin = CoapServer(sim, topo.resolver_host.bind(5683))
        origin.default_handler = big_handler
        proxy = ForwardProxy(
            sim, topo.forwarder.bind(5683), topo.forwarder.bind(),
            (topo.resolver_host.address, 5683),
        )
        client = CoapClient(sim, topo.clients[0].bind(), block_size=64)
        results = []
        client.request(_request(), topo.forwarder.address, 5683,
                       lambda r, e: results.append((r, e)))
        sim.run(until=60)
        response, error = results[0]
        assert error is None
        assert response.payload == big
