"""End-to-end DoC tests across methods, security modes, and caches."""

import pytest

from repro.coap import CoapCache, Code, ContentFormat
from repro.dns import DNSCache, RecordType, RecursiveResolver, Zone
from repro.doc import CachingScheme, DocClient, DocError, DocServer
from repro.oscore import SecurityContext
from repro.sim import Simulator
from repro.stack import build_figure2_topology
from repro.transports import DtlsClientAdapter, DtlsServerAdapter, preestablish


def _zone(names=5, ttl=300):
    zone = Zone()
    for i in range(names):
        zone.add_address(f"name{i:02d}.iot.example.org", f"2001:db8::{i + 1}", ttl=ttl)
        zone.add_address(f"name{i:02d}.iot.example.org", f"192.0.2.{i + 1}", ttl=ttl)
    return zone


def _run(method=Code.FETCH, oscore=False, dtls=False, scheme=CachingScheme.EOL_TTLS,
         content_format=ContentFormat.DNS_MESSAGE, rtype=RecordType.AAAA,
         names=3, loss=0.05, seed=3, echo=False, coap_cache=False, dns_cache=False,
         block_size=None):
    sim = Simulator(seed=seed)
    topo = build_figure2_topology(sim, loss=loss)
    resolver = RecursiveResolver(_zone())
    ctx_client = ctx_server = None
    if oscore:
        ctx_client, ctx_server = SecurityContext.pair(
            b"e2e-master", b"salt", server_requires_echo=echo
        )
    if dtls:
        server_adapter = DtlsServerAdapter(sim, topo.resolver_host.bind(5684))
        DocServer(sim, server_adapter, resolver, scheme=scheme)
        client_socket = DtlsClientAdapter(
            sim, topo.clients[0].bind(6000), (topo.resolver_host.address, 5684)
        )
        preestablish(client_socket, server_adapter, (topo.clients[0].address, 6000))
        endpoint = (topo.resolver_host.address, 5684)
    else:
        DocServer(sim, topo.resolver_host.bind(5683), resolver,
                  scheme=scheme, oscore_context=ctx_server)
        client_socket = topo.clients[0].bind()
        endpoint = (topo.resolver_host.address, 5683)
    client = DocClient(
        sim, client_socket, endpoint, method=method, scheme=scheme,
        content_format=content_format, oscore_context=ctx_client,
        coap_cache=CoapCache(8) if coap_cache else None,
        dns_cache=DNSCache(8) if dns_cache else None,
        block_size=block_size,
    )
    results = []
    for i in range(names):
        sim.schedule(i * 0.5, client.resolve, f"name{i % 5:02d}.iot.example.org",
                     rtype, lambda r, e: results.append((r, e)))
    sim.run(until=200)
    return results, client


class TestMethods:
    @pytest.mark.parametrize("method", [Code.FETCH, Code.GET, Code.POST])
    def test_resolution_succeeds(self, method):
        results, _ = _run(method=method)
        assert len(results) == 3
        for result, error in results:
            assert error is None
            assert result.addresses[0].startswith("2001:db8::")

    def test_a_records(self):
        results, _ = _run(rtype=RecordType.A)
        for result, error in results:
            assert error is None
            assert result.addresses[0].startswith("192.0.2.")

    def test_ttls_restored(self):
        results, _ = _run()
        for result, _ in results:
            assert result.response.min_ttl() == 300

    def test_unsupported_method_rejected(self):
        sim = Simulator()
        topo = build_figure2_topology(sim)
        with pytest.raises(DocError):
            DocClient(sim, topo.clients[0].bind(),
                      (topo.resolver_host.address, 5683), method=Code.PUT)

    def test_get_with_oscore_rejected(self):
        sim = Simulator()
        topo = build_figure2_topology(sim)
        ctx, _ = SecurityContext.pair(b"m", b"s")
        with pytest.raises(DocError):
            DocClient(sim, topo.clients[0].bind(),
                      (topo.resolver_host.address, 5683),
                      method=Code.GET, oscore_context=ctx)

    def test_nxdomain_is_resolved_with_empty_answers(self):
        sim = Simulator(seed=5)
        topo = build_figure2_topology(sim)
        DocServer(sim, topo.resolver_host.bind(5683), RecursiveResolver(Zone()))
        client = DocClient(sim, topo.clients[0].bind(),
                           (topo.resolver_host.address, 5683))
        results = []
        client.resolve("missing.example.org", RecordType.AAAA,
                       lambda r, e: results.append((r, e)))
        sim.run(until=60)
        result, error = results[0]
        assert error is None
        assert result.addresses == []
        from repro.dns import Rcode

        assert result.response.flags.rcode == Rcode.NXDOMAIN


class TestSecurity:
    def test_oscore_end_to_end(self):
        results, _ = _run(oscore=True)
        for result, error in results:
            assert error is None
            assert result.response.min_ttl() == 300

    def test_oscore_with_echo_round(self):
        results, _ = _run(oscore=True, echo=True)
        assert all(e is None for _, e in results)
        # The first resolution pays the extra Echo round trip.
        times = [r.resolution_time for r, _ in results]
        assert times[0] > times[1]

    def test_coaps_end_to_end(self):
        results, _ = _run(dtls=True)
        for result, error in results:
            assert error is None

    def test_oscore_payload_encrypted_on_wire(self):
        sim = Simulator(seed=7)
        topo = build_figure2_topology(sim)
        resolver = RecursiveResolver(_zone())
        ctx_client, ctx_server = SecurityContext.pair(b"m", b"s")
        DocServer(sim, topo.resolver_host.bind(5683), resolver,
                  oscore_context=ctx_server)
        client = DocClient(sim, topo.clients[0].bind(),
                           (topo.resolver_host.address, 5683),
                           oscore_context=ctx_client)
        client.resolve("name00.iot.example.org", RecordType.AAAA, lambda r, e: None)
        sim.run(until=30)
        # The DNS name must not appear in any sniffed frame.
        for record in topo.sniffer.records:
            pass
        # (Frame contents are not retained by the sniffer; check via a
        # protected request instead.)
        from repro.dns import make_query
        from repro.oscore import protect_request
        from repro.coap import CoapMessage

        wire = make_query("name00.iot.example.org", txid=0).encode()
        request = CoapMessage.request(Code.FETCH, "/dns", payload=wire)
        outer, _ = protect_request(ctx_client, request)
        assert b"iot" not in outer.encode()


class TestDocCaching:
    def test_client_coap_cache_hit(self):
        results, client = _run(coap_cache=True, names=3, loss=0.0, seed=11)
        # All three queries target distinct names here; re-run same name:
        assert all(e is None for _, e in results)

    def test_same_name_hits_coap_cache(self):
        sim = Simulator(seed=13)
        topo = build_figure2_topology(sim)
        resolver = RecursiveResolver(_zone())
        server = DocServer(sim, topo.resolver_host.bind(5683), resolver)
        client = DocClient(sim, topo.clients[0].bind(),
                           (topo.resolver_host.address, 5683),
                           coap_cache=CoapCache(8))
        client.coap.events = []
        results = []
        for delay in (0.0, 1.0, 2.0):
            sim.schedule(delay, client.resolve, "name00.iot.example.org",
                         RecordType.AAAA, lambda r, e: results.append((r, e)))
        sim.run(until=60)
        assert all(e is None for _, e in results)
        assert server.queries_handled == 1
        hits = [e for e in client.coap.events if e.kind == "cache_hit"]
        assert len(hits) == 2

    def test_coap_cache_ttl_decrement_via_max_age(self):
        """A cached response aged 10 s must yield TTLs lowered by 10 s."""
        sim = Simulator(seed=17)
        topo = build_figure2_topology(sim)
        resolver = RecursiveResolver(_zone(ttl=30))
        DocServer(sim, topo.resolver_host.bind(5683), resolver)
        client = DocClient(sim, topo.clients[0].bind(),
                           (topo.resolver_host.address, 5683),
                           coap_cache=CoapCache(8))
        results = []
        sim.schedule(0.0, client.resolve, "name00.iot.example.org",
                     RecordType.AAAA, lambda r, e: results.append(r))
        sim.schedule(10.0, client.resolve, "name00.iot.example.org",
                     RecordType.AAAA, lambda r, e: results.append(r))
        sim.run(until=60)
        assert results[0].response.min_ttl() == 30
        assert results[1].response.min_ttl() in (19, 20)  # aged copy

    def test_dns_cache_short_circuits(self):
        sim = Simulator(seed=19)
        topo = build_figure2_topology(sim)
        resolver = RecursiveResolver(_zone())
        server = DocServer(sim, topo.resolver_host.bind(5683), resolver)
        client = DocClient(sim, topo.clients[0].bind(),
                           (topo.resolver_host.address, 5683),
                           dns_cache=DNSCache(8))
        results = []
        for delay in (0.0, 5.0):
            sim.schedule(delay, client.resolve, "name00.iot.example.org",
                         RecordType.AAAA, lambda r, e: results.append((r, e)))
        sim.run(until=60)
        assert server.queries_handled == 1
        assert results[1][0].from_cache

    def test_server_validation_2_03(self):
        """A stale client cache entry revalidates: the server answers
        2.03 Valid and the client revives the cached payload."""
        sim = Simulator(seed=23)
        topo = build_figure2_topology(sim)
        resolver = RecursiveResolver(_zone(ttl=5))
        server = DocServer(sim, topo.resolver_host.bind(5683), resolver,
                           scheme=CachingScheme.EOL_TTLS)
        client = DocClient(sim, topo.clients[0].bind(),
                           (topo.resolver_host.address, 5683),
                           coap_cache=CoapCache(8))
        client.coap.events = []
        results = []
        sim.schedule(0.0, client.resolve, "name00.iot.example.org",
                     RecordType.AAAA, lambda r, e: results.append((r, e)))
        sim.schedule(10.0, client.resolve, "name00.iot.example.org",
                     RecordType.AAAA, lambda r, e: results.append((r, e)))
        sim.run(until=60)
        assert all(e is None for _, e in results)
        assert server.validations_sent == 1
        validations = [e for e in client.coap.events if e.kind == "validation"]
        assert len(validations) == 1


class TestCborFormat:
    def test_cbor_content_format_end_to_end(self):
        results, _ = _run(content_format=ContentFormat.DNS_CBOR)
        for result, error in results:
            assert error is None
            assert result.addresses[0].startswith("2001:db8::")
            assert result.response.min_ttl() == 300

    def test_cbor_reduces_frames(self):
        def frames_for(content_format, seed=29):
            sim = Simulator(seed=seed)
            topo = build_figure2_topology(sim)
            DocServer(sim, topo.resolver_host.bind(5683),
                      RecursiveResolver(_zone()))
            client = DocClient(sim, topo.clients[0].bind(),
                               (topo.resolver_host.address, 5683),
                               content_format=content_format)
            client.resolve("name00.iot.example.org", RecordType.AAAA,
                           lambda r, e: None)
            sim.run(until=30)
            return len(topo.sniffer.records), sum(
                r.length for r in topo.sniffer.records
            )

        frames_wire, bytes_wire = frames_for(ContentFormat.DNS_MESSAGE)
        frames_cbor, bytes_cbor = frames_for(ContentFormat.DNS_CBOR)
        assert bytes_cbor < bytes_wire


class TestBlockwiseDoc:
    def test_blockwise_resolution(self):
        results, _ = _run(block_size=32, loss=0.0)
        for result, error in results:
            assert error is None
            assert result.addresses
