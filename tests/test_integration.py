"""Cross-module integration scenarios and failure injection."""

import pytest

from repro.coap import CoapCache, Code, ContentFormat
from repro.coap.proxy import ForwardProxy
from repro.dns import DNSCache, RecordType, RecursiveResolver, Zone
from repro.doc import CachingScheme, DocClient, DocServer
from repro.oscore import SecurityContext
from repro.sim import Simulator
from repro.stack import build_figure2_topology
from repro.transports import (
    DnsOverDtlsClient,
    DnsOverDtlsServer,
    DnsOverUdpClient,
    DnsOverUdpServer,
    preestablish,
)


def _zone(names=4, ttl=300):
    zone = Zone()
    for index in range(names):
        zone.add_address(
            f"name{index:02d}.example.org", f"2001:db8::{index + 1}", ttl=ttl
        )
    return zone


class TestCoexistence:
    def test_all_transports_share_one_resolver(self):
        """UDP, DTLS, and DoC servers on one host, one resolver, three
        clients resolving concurrently — traffic does not interfere."""
        sim = Simulator(seed=61)
        topo = build_figure2_topology(sim, loss=0.05)
        resolver = RecursiveResolver(_zone())
        host = topo.resolver_host

        DnsOverUdpServer(sim, host.bind(53), resolver)
        dtls_server = DnsOverDtlsServer(sim, host.bind(853), resolver)
        DocServer(sim, host.bind(5683), resolver)

        udp_client = DnsOverUdpClient(
            sim, topo.clients[0].bind(), (host.address, 53)
        )
        dtls_client = DnsOverDtlsClient(
            sim, topo.clients[0].bind(6001), (host.address, 853)
        )
        preestablish(
            dtls_client.adapter, dtls_server.adapter,
            (topo.clients[0].address, 6001),
        )
        doc_client = DocClient(
            sim, topo.clients[1].bind(), (host.address, 5683)
        )

        results = {"udp": [], "dtls": [], "doc": []}
        udp_client.resolve("name00.example.org", RecordType.AAAA,
                           lambda r, e: results["udp"].append((r, e)))
        dtls_client.resolve("name01.example.org", RecordType.AAAA,
                            lambda r, e: results["dtls"].append((r, e)))
        doc_client.resolve("name02.example.org", RecordType.AAAA,
                           lambda r, e: results["doc"].append((r, e)))
        sim.run(until=60)

        assert results["udp"][0][0].addresses == ["2001:db8::1"]
        assert results["dtls"][0][0].addresses == ["2001:db8::2"]
        assert results["doc"][0][0].addresses == ["2001:db8::3"]

    def test_two_oscore_clients_one_server(self):
        """Distinct OSCORE contexts per client, multiplexed by kid would
        need a context registry; the paper's setup shares one context —
        both clients use it and the server's replay window absorbs the
        interleaved Partial IVs."""
        sim = Simulator(seed=62)
        topo = build_figure2_topology(sim)
        resolver = RecursiveResolver(_zone())
        client_ctx, server_ctx = SecurityContext.pair(b"shared", b"s")
        DocServer(sim, topo.resolver_host.bind(5683), resolver,
                  oscore_context=server_ctx)
        clients = [
            DocClient(sim, node.bind(), (topo.resolver_host.address, 5683),
                      oscore_context=client_ctx)
            for node in topo.clients
        ]
        results = []
        for index in range(6):
            sim.schedule(index * 0.3, clients[index % 2].resolve,
                         f"name{index % 4:02d}.example.org", RecordType.AAAA,
                         lambda r, e: results.append((r, e)))
        sim.run(until=60)
        assert len(results) == 6
        assert all(e is None for _, e in results)


class TestCacheLayering:
    def test_dns_cache_over_coap_cache(self):
        """Both client caches active: the DNS cache absorbs repeats
        within TTL without even consulting the CoAP cache."""
        sim = Simulator(seed=63)
        topo = build_figure2_topology(sim)
        resolver = RecursiveResolver(_zone(ttl=100))
        server = DocServer(sim, topo.resolver_host.bind(5683), resolver)
        client = DocClient(
            sim, topo.clients[0].bind(), (topo.resolver_host.address, 5683),
            coap_cache=CoapCache(8), dns_cache=DNSCache(8),
        )
        results = []
        for delay in (0.0, 1.0, 2.0):
            sim.schedule(delay, client.resolve, "name00.example.org",
                         RecordType.AAAA, lambda r, e: results.append((r, e)))
        sim.run(until=30)
        assert server.queries_handled == 1
        assert results[1][0].from_cache and results[2][0].from_cache

    def test_proxy_and_client_cache_costack(self):
        sim = Simulator(seed=64)
        topo = build_figure2_topology(sim)
        resolver = RecursiveResolver(_zone(ttl=50))
        DocServer(sim, topo.resolver_host.bind(5683), resolver)
        proxy = ForwardProxy(
            sim, topo.forwarder.bind(5683), topo.forwarder.bind(),
            (topo.resolver_host.address, 5683),
        )
        clients = [
            DocClient(sim, node.bind(), (topo.forwarder.address, 5683),
                      coap_cache=CoapCache(8))
            for node in topo.clients
        ]
        for client in clients:
            client.coap.events = []
        results = []
        # c1 warms proxy; c2's first query hits the proxy; repeats hit
        # the local caches.
        sim.schedule(0.0, clients[0].resolve, "name00.example.org",
                     RecordType.AAAA, lambda r, e: results.append((r, e)))
        sim.schedule(2.0, clients[1].resolve, "name00.example.org",
                     RecordType.AAAA, lambda r, e: results.append((r, e)))
        sim.schedule(4.0, clients[1].resolve, "name00.example.org",
                     RecordType.AAAA, lambda r, e: results.append((r, e)))
        sim.run(until=30)
        assert all(e is None for _, e in results)
        assert proxy.requests_served_from_cache == 1
        local_hits = sum(
            1 for client in clients
            for event in client.coap.events if event.kind == "cache_hit"
        )
        assert local_hits == 1

    def test_ttl_decrements_through_cache_chain(self):
        """Proxy → client CoAP cache → DNS: TTLs keep decrementing and
        never exceed the original."""
        sim = Simulator(seed=65)
        topo = build_figure2_topology(sim)
        resolver = RecursiveResolver(_zone(ttl=40))
        DocServer(sim, topo.resolver_host.bind(5683), resolver)
        proxy = ForwardProxy(
            sim, topo.forwarder.bind(5683), topo.forwarder.bind(),
            (topo.resolver_host.address, 5683),
        )
        clients = [
            DocClient(sim, node.bind(), (topo.forwarder.address, 5683))
            for node in topo.clients
        ]
        ttls = []
        sim.schedule(0.0, clients[0].resolve, "name00.example.org",
                     RecordType.AAAA,
                     lambda r, e: ttls.append(r.response.min_ttl()))
        sim.schedule(15.0, clients[1].resolve, "name00.example.org",
                     RecordType.AAAA,
                     lambda r, e: ttls.append(r.response.min_ttl()))
        sim.run(until=60)
        assert ttls[0] == 40
        assert 23 <= ttls[1] <= 26   # ~15 s older via the proxy cache


class TestFailureInjection:
    def test_server_outage_mid_run(self):
        """Queries during an outage exhaust retransmissions and fail;
        queries after recovery succeed — no stuck exchanges."""
        sim = Simulator(seed=66)
        topo = build_figure2_topology(sim)
        resolver = RecursiveResolver(_zone())
        server = DocServer(sim, topo.resolver_host.bind(5683), resolver)
        client = DocClient(
            sim, topo.clients[0].bind(), (topo.resolver_host.address, 5683)
        )

        # Outage: drop everything arriving at the host between 5 s and 60 s.
        original = topo.resolver_host._receive_packet

        def flaky(packet, metadata):
            if 5.0 <= sim.now <= 60.0:
                return
            original(packet, metadata)

        topo.resolver_host._receive_packet = flaky

        results = []
        sim.schedule(0.0, client.resolve, "name00.example.org",
                     RecordType.AAAA, lambda r, e: results.append(("pre", r, e)))
        sim.schedule(6.0, client.resolve, "name01.example.org",
                     RecordType.AAAA, lambda r, e: results.append(("mid", r, e)))
        sim.schedule(90.0, client.resolve, "name02.example.org",
                     RecordType.AAAA, lambda r, e: results.append(("post", r, e)))
        sim.run(until=200)
        phases = {phase: (r, e) for phase, r, e in results}
        assert phases["pre"][1] is None
        assert phases["mid"][0] is None and phases["mid"][1] is not None
        assert phases["post"][1] is None

    def test_corrupted_oscore_response_fails_cleanly(self):
        sim = Simulator(seed=67)
        topo = build_figure2_topology(sim)
        resolver = RecursiveResolver(_zone())
        client_ctx, server_ctx = SecurityContext.pair(b"m", b"s")
        DocServer(sim, topo.resolver_host.bind(5683), resolver,
                  oscore_context=server_ctx)
        client = DocClient(
            sim, topo.clients[0].bind(), (topo.resolver_host.address, 5683),
            oscore_context=client_ctx,
        )

        # Flip a ciphertext bit in responses crossing the border router.
        original = topo.border_router._receive_packet

        def corrupt(packet, metadata):
            if metadata.get("kind") == "response" and packet.payload:
                from dataclasses import replace

                tampered = bytes(packet.payload[:-1]) + bytes(
                    [packet.payload[-1] ^ 0x01]
                )
                packet = replace(packet, payload=tampered)
            original(packet, metadata)

        topo.border_router._receive_packet = corrupt

        results = []
        client.resolve("name00.example.org", RecordType.AAAA,
                       lambda r, e: results.append((r, e)))
        sim.run(until=120)
        result, error = results[0]
        assert result is None
        assert error is not None

    def test_resolver_ttl_churn_stresses_etags(self):
        """Under per-renewal TTL draws the DoH-like scheme's ETags keep
        changing while EOL-TTLs ETags stay fixed per record set."""
        from repro.doc.caching import prepare_response

        zone = _zone(names=1)
        resolver = RecursiveResolver(
            zone, upstream_ttl_range=(2, 60),
        )
        from repro.dns import make_query

        etags_doh = set()
        etags_eol = set()
        for now in range(0, 600, 60):
            response = resolver.resolve(
                make_query("name00.example.org"), now=float(now)
            )
            etags_doh.add(prepare_response(response, CachingScheme.DOH_LIKE).etag)
            etags_eol.add(prepare_response(response, CachingScheme.EOL_TTLS).etag)
        assert len(etags_eol) == 1
        assert len(etags_doh) > 1


class TestMixedContentFormats:
    def test_wire_and_cbor_clients_same_server(self):
        sim = Simulator(seed=68)
        topo = build_figure2_topology(sim)
        resolver = RecursiveResolver(_zone())
        DocServer(sim, topo.resolver_host.bind(5683), resolver)
        wire_client = DocClient(
            sim, topo.clients[0].bind(), (topo.resolver_host.address, 5683),
            content_format=ContentFormat.DNS_MESSAGE,
        )
        cbor_client = DocClient(
            sim, topo.clients[1].bind(), (topo.resolver_host.address, 5683),
            content_format=ContentFormat.DNS_CBOR,
        )
        results = []
        wire_client.resolve("name00.example.org", RecordType.AAAA,
                            lambda r, e: results.append((r, e)))
        cbor_client.resolve("name00.example.org", RecordType.AAAA,
                            lambda r, e: results.append((r, e)))
        sim.run(until=30)
        assert len(results) == 2
        assert all(e is None for _, e in results)
        assert results[0][0].addresses == results[1][0].addresses
