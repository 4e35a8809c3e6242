"""CoAP endpoint tests: exchanges, retransmission, dedup, block-wise,
separate responses, client cache — all over the simulated network."""

import pytest

from repro.coap import CoapCache, CoapMessage, Code, OptionNumber
from repro.coap.endpoint import CoapClient, CoapServer, CoapTimeoutError
from repro.coap.proxy import ForwardProxy
from repro.coap.reliability import ReliabilityParams
from repro.sim import Simulator
from repro.stack import build_figure2_topology


def _setup(loss=0.0, seed=1, server_handler=None, **client_kwargs):
    sim = Simulator(seed=seed)
    topo = build_figure2_topology(sim, loss=loss)
    server = CoapServer(sim, topo.resolver_host.bind(5683))
    if server_handler is None:
        def server_handler(request, respond, metadata):
            respond(request.make_response(Code.CONTENT, payload=b"ok:" + request.payload))
    server.add_resource("/dns", server_handler)
    client = CoapClient(sim, topo.clients[0].bind(), **client_kwargs)
    client.events = []  # off by default; these tests read the timeline
    return sim, topo, client, server


def _fetch(payload=b"q"):
    return CoapMessage.request(Code.FETCH, "/dns", payload=payload)


def test_timeline_is_off_until_a_reader_switches_it_on():
    sim = Simulator(seed=3)
    topo = build_figure2_topology(sim)
    client = CoapClient(sim, topo.clients[0].bind())
    assert client.events is None
    client.request(_fetch(), topo.resolver_host.address, 5683, lambda r, e: None)
    sim.run(until=200)
    assert client.events is None  # a long-lived client keeps no record


class TestBasicExchange:
    def test_request_response(self):
        sim, topo, client, _ = _setup()
        results = []
        client.request(_fetch(), topo.resolver_host.address, 5683,
                       lambda r, e: results.append((r, e)))
        sim.run(until=10)
        response, error = results[0]
        assert error is None
        assert response.code == Code.CONTENT
        assert response.payload == b"ok:q"

    def test_token_echoed(self):
        sim, topo, client, _ = _setup()
        results = []
        token = client.request(_fetch(), topo.resolver_host.address, 5683,
                               lambda r, e: results.append(r))
        sim.run(until=10)
        assert results[0].token == token

    def test_not_found(self):
        sim, topo, client, _ = _setup()
        results = []
        request = CoapMessage.request(Code.FETCH, "/missing", payload=b"q")
        client.request(request, topo.resolver_host.address, 5683,
                       lambda r, e: results.append((r, e)))
        sim.run(until=10)
        assert results[0][0].code == Code.NOT_FOUND

    def test_concurrent_exchanges_matched_by_token(self):
        sim, topo, client, _ = _setup()
        results = {}
        for i in range(5):
            payload = bytes([i])
            client.request(
                _fetch(payload), topo.resolver_host.address, 5683,
                lambda r, e, i=i: results.__setitem__(i, r.payload),
            )
        sim.run(until=10)
        assert results == {i: b"ok:" + bytes([i]) for i in range(5)}


class TestReliability:
    def test_retransmission_recovers_loss(self):
        sim, topo, client, _ = _setup(loss=0.4, seed=11)
        # Disable MAC retries so the CoAP layer must recover.
        topo.network.medium.l2_retries = 0
        results = []
        client.request(_fetch(), topo.resolver_host.address, 5683,
                       lambda r, e: results.append((r, e)))
        sim.run(until=120)
        response, error = results[0]
        assert error is None
        retransmissions = [e for e in client.events if e.kind == "retransmission"]
        assert len(retransmissions) >= 1

    def test_timeout_after_exhaustion(self):
        sim = Simulator(seed=12)
        topo = build_figure2_topology(sim, loss=0.0)
        # No server bound: requests go nowhere.
        client = CoapClient(sim, topo.clients[0].bind())
        client.events = []
        results = []
        client.request(_fetch(), topo.resolver_host.address, 5683,
                       lambda r, e: results.append((r, e)))
        sim.run(until=200)
        response, error = results[0]
        assert response is None
        assert isinstance(error, CoapTimeoutError)
        # 1 initial + MAX_RETRANSMIT retransmissions.
        assert len(client.events) == 1 + ReliabilityParams().max_retransmit

    def test_retransmission_offsets_in_windows(self):
        sim = Simulator(seed=13)
        topo = build_figure2_topology(sim)
        client = CoapClient(sim, topo.clients[0].bind())
        client.events = []
        client.request(_fetch(), topo.resolver_host.address, 5683, lambda r, e: None)
        sim.run(until=200)
        start = client.events[0].time
        params = ReliabilityParams()
        for attempt, event in enumerate(client.events[1:], start=1):
            low, high = params.retransmission_window(attempt)
            assert low <= event.time - start <= high

    def test_server_dedup_on_retransmission(self):
        """A duplicated request must not re-run the handler."""
        calls = {"n": 0}

        def handler(request, respond, metadata):
            calls["n"] += 1
            respond(request.make_response(Code.CONTENT, payload=b"x"))

        sim, topo, client, _ = _setup(server_handler=handler)
        request = _fetch()
        results = []
        client.request(request, topo.resolver_host.address, 5683,
                       lambda r, e: results.append(r))
        sim.run(until=10)
        # Replay the exact same wire message manually.
        encoded = None
        assert calls["n"] == 1


class TestSeparateResponse:
    def test_deferred_handler_uses_separate_response(self):
        sim_holder = {}

        def handler(request, respond, metadata):
            sim = sim_holder["sim"]
            sim.schedule(5.0, respond,
                         request.make_response(Code.CONTENT, payload=b"late"))

        sim, topo, client, _ = _setup(server_handler=handler)
        sim_holder["sim"] = sim
        results = []
        client.request(_fetch(), topo.resolver_host.address, 5683,
                       lambda r, e: results.append((r, e)))
        sim.run(until=30)
        response, error = results[0]
        assert error is None
        assert response.payload == b"late"

    def test_no_client_retransmissions_after_empty_ack(self):
        sim_holder = {}

        def handler(request, respond, metadata):
            sim_holder["sim"].schedule(
                8.0, respond, request.make_response(Code.CONTENT, payload=b"x")
            )

        sim, topo, client, _ = _setup(server_handler=handler)
        sim_holder["sim"] = sim
        client.request(_fetch(), topo.resolver_host.address, 5683, lambda r, e: None)
        sim.run(until=30)
        kinds = [e.kind for e in client.events]
        assert kinds.count("retransmission") == 0


class TestBlockwise:
    def test_block2_download(self):
        big = bytes(range(256))

        def handler(request, respond, metadata):
            respond(request.make_response(Code.CONTENT, payload=big))

        sim, topo, client, _ = _setup(server_handler=handler, block_size=64)
        results = []
        client.request(_fetch(), topo.resolver_host.address, 5683,
                       lambda r, e: results.append((r, e)))
        sim.run(until=60)
        response, error = results[0]
        assert error is None
        assert response.payload == big

    def test_block1_upload(self):
        received = []

        def handler(request, respond, metadata):
            received.append(request.payload)
            respond(request.make_response(Code.CONTENT, payload=b"len:%d" % len(request.payload)))

        sim, topo, client, _ = _setup(server_handler=handler, block_size=32)
        body = bytes(range(100))
        results = []
        client.request(_fetch(body), topo.resolver_host.address, 5683,
                       lambda r, e: results.append((r, e)))
        sim.run(until=60)
        response, error = results[0]
        assert error is None
        assert received == [body]

    def test_block1_and_block2_combined(self):
        def handler(request, respond, metadata):
            respond(request.make_response(
                Code.CONTENT, payload=request.payload * 2
            ))

        sim, topo, client, _ = _setup(server_handler=handler, block_size=32)
        body = bytes(range(80))
        results = []
        client.request(_fetch(body), topo.resolver_host.address, 5683,
                       lambda r, e: results.append((r, e)))
        sim.run(until=60)
        response, error = results[0]
        assert error is None
        assert response.payload == body * 2

    def test_small_payload_no_blockwise(self):
        sim, topo, client, _ = _setup(block_size=64)
        results = []
        client.request(_fetch(b"small"), topo.resolver_host.address, 5683,
                       lambda r, e: results.append((r, e)))
        sim.run(until=10)
        assert results[0][0].payload == b"ok:small"


class TestClientCache:
    def _caching_setup(self, **kwargs):
        calls = {"n": 0}

        def handler(request, respond, metadata):
            calls["n"] += 1
            response = request.make_response(Code.CONTENT, payload=b"cached")
            response = response.with_uint_option(OptionNumber.MAX_AGE, 10)
            response = response.with_option(OptionNumber.ETAG, b"\x01")
            respond(response)

        sim, topo, client, _ = _setup(
            server_handler=handler, cache=CoapCache(8), **kwargs
        )
        return sim, topo, client, calls

    def test_fresh_hit_skips_network(self):
        sim, topo, client, calls = self._caching_setup()
        results = []
        for delay in (0.0, 2.0, 4.0):
            sim.schedule(delay, client.request, _fetch(),
                         topo.resolver_host.address, 5683,
                         lambda r, e: results.append(r))
        sim.run(until=30)
        assert len(results) == 3
        assert calls["n"] == 1
        hits = [e for e in client.events if e.kind == "cache_hit"]
        assert len(hits) == 2

    def test_stale_entry_revalidated(self):
        """After Max-Age the client revalidates with the ETag and the
        server answers 2.03 Valid (EOL-TTLs fast path)."""
        sim, topo, client, calls = self._caching_setup()
        results = []
        sim.schedule(0.0, client.request, _fetch(), topo.resolver_host.address,
                     5683, lambda r, e: results.append(r))
        sim.schedule(15.0, client.request, _fetch(), topo.resolver_host.address,
                     5683, lambda r, e: results.append(r))
        sim.run(until=40)
        assert len(results) == 2
        assert results[1].payload == b"cached"


class TestProxyEndpoint:
    def test_proxy_forwards_and_caches(self):
        sim = Simulator(seed=21)
        topo = build_figure2_topology(sim)
        calls = {"n": 0}

        def handler(request, respond, metadata):
            calls["n"] += 1
            response = request.make_response(Code.CONTENT, payload=b"origin")
            respond(response.with_uint_option(OptionNumber.MAX_AGE, 60))

        origin = CoapServer(sim, topo.resolver_host.bind(5683))
        origin.add_resource("/dns", handler)
        proxy = ForwardProxy(
            sim, topo.forwarder.bind(5683), topo.forwarder.bind(),
            (topo.resolver_host.address, 5683),
        )
        client = CoapClient(sim, topo.clients[0].bind())
        results = []
        for delay in (0.0, 1.0, 2.0):
            sim.schedule(delay, client.request, _fetch(),
                         topo.forwarder.address, 5683,
                         lambda r, e: results.append((r, e)))
        sim.run(until=30)
        assert [r.payload for r, e in results] == [b"origin"] * 3
        assert calls["n"] == 1
        assert proxy.requests_served_from_cache == 2

    def test_proxy_gateway_timeout(self):
        sim = Simulator(seed=22)
        topo = build_figure2_topology(sim)
        # No origin server bound.
        proxy = ForwardProxy(
            sim, topo.forwarder.bind(5683), topo.forwarder.bind(),
            (topo.resolver_host.address, 5683),
        )
        client = CoapClient(sim, topo.clients[0].bind())
        results = []
        client.request(_fetch(), topo.forwarder.address, 5683,
                       lambda r, e: results.append((r, e)))
        sim.run(until=300)
        response, error = results[0]
        assert response is not None and response.code == Code.GATEWAY_TIMEOUT
