"""Direct unit tests for DocServer's request reader."""

from dataclasses import replace

import pytest

from repro.coap import CoapMessage, Code, ContentFormat, OptionNumber
from repro.coap.uri import base64url_encode
from repro.dns import (
    Message,
    Question,
    Rcode,
    RecordType,
    RecursiveResolver,
    Zone,
    make_query,
)
from repro.doc import CachingScheme, DocServer, compute_etag
from repro.doc.cbor_format import decode_response, encode_query
from repro.oscore.protect import _parse_plaintext, encode_plaintext
from repro.sim import Simulator
from repro.stack import build_figure2_topology


@pytest.fixture()
def server_and_sim():
    sim = Simulator(seed=71)
    topo = build_figure2_topology(sim)
    zone = Zone()
    zone.add_address("a.example.org", "2001:db8::1", ttl=120)
    zone.add_address("a.example.org", "192.0.2.1", ttl=120)
    server = DocServer(
        sim, topo.resolver_host.bind(5683), RecursiveResolver(zone)
    )
    return server, sim


def _fetch(payload, content_format=ContentFormat.DNS_MESSAGE):
    return (
        CoapMessage.request(Code.FETCH, "/dns", payload=payload, token=b"\x01")
        .with_uint_option(OptionNumber.CONTENT_FORMAT, int(content_format))
    )


def _answer(server, request):
    """*request* read from its body by the server's request reader; the
    reply as a message."""
    code, _, rest = server.answer(
        encode_plaintext(request.code, request.options, request.payload)
    )
    code, options, payload = _parse_plaintext(bytes((code,)) + rest)
    return request.make_response(code, payload=payload, options=options)


class TestProcessing:
    def test_fetch_wire_format(self, server_and_sim):
        server, _ = server_and_sim
        query = make_query("a.example.org", RecordType.AAAA, txid=0)
        response = _answer(server, _fetch(query.encode()))
        assert response.code == Code.CONTENT
        assert response.uint_option(OptionNumber.CONTENT_FORMAT) == int(ContentFormat.DNS_MESSAGE)
        decoded = Message.decode(response.payload)
        assert decoded.answers[0].rdata.address == "2001:db8::1"

    def test_fetch_cbor_format(self, server_and_sim):
        server, _ = server_and_sim
        question = Question("a.example.org", RecordType.AAAA)
        response = _answer(server, 
            _fetch(encode_query(question), ContentFormat.DNS_CBOR)
        )
        assert response.uint_option(OptionNumber.CONTENT_FORMAT) == int(ContentFormat.DNS_CBOR)
        decoded = decode_response(response.payload, question)
        assert decoded.answers[0].rdata.address == "2001:db8::1"

    def test_get_base64url(self, server_and_sim):
        server, _ = server_and_sim
        query = make_query("a.example.org", RecordType.A, txid=0)
        request = CoapMessage.request(Code.GET, "/dns").with_option(
            OptionNumber.URI_QUERY,
            b"dns=" + base64url_encode(query.encode()).encode(),
        )
        response = _answer(server, request)
        assert response.code == Code.CONTENT
        decoded = Message.decode(response.payload)
        assert decoded.answers[0].rdata.address == "192.0.2.1"

    def test_get_without_dns_variable(self, server_and_sim):
        server, _ = server_and_sim
        request = CoapMessage.request(Code.GET, "/dns")
        assert _answer(server, request).code == Code.BAD_REQUEST

    def test_malformed_payload(self, server_and_sim):
        server, _ = server_and_sim
        assert _answer(server, _fetch(b"\x01\x02")).code == Code.BAD_REQUEST

    def test_disallowed_method(self, server_and_sim):
        server, _ = server_and_sim
        request = CoapMessage.request(Code.PUT, "/dns", payload=b"x")
        assert _answer(server, request).code == Code.METHOD_NOT_ALLOWED

    def test_eol_ttls_rewritten(self, server_and_sim):
        server, _ = server_and_sim
        query = make_query("a.example.org", RecordType.AAAA, txid=0)
        response = _answer(server, _fetch(query.encode()))
        decoded = Message.decode(response.payload)
        assert all(r.ttl == 0 for r in decoded.answers)
        assert response.max_age == 120

    def test_nxdomain_reported(self, server_and_sim):
        server, _ = server_and_sim
        query = make_query("missing.example.org", RecordType.AAAA, txid=0)
        response = _answer(server, _fetch(query.encode()))
        assert response.code == Code.CONTENT  # DNS errors are 2.xx DoC responses
        decoded = Message.decode(response.payload)
        assert decoded.flags.rcode == Rcode.NXDOMAIN
        assert response.max_age == 0

    def test_etag_matches_payload_hash(self, server_and_sim):
        server, _ = server_and_sim
        query = make_query("a.example.org", RecordType.AAAA, txid=0)
        response = _answer(server, _fetch(query.encode()))
        assert response.etag == compute_etag(response.payload)

    def test_validation_with_current_etag(self, server_and_sim):
        server, _ = server_and_sim
        query = make_query("a.example.org", RecordType.AAAA, txid=0)
        first = _answer(server, _fetch(query.encode()))
        revalidation = _fetch(query.encode()).with_option(
            OptionNumber.ETAG, first.etag
        )
        second = _answer(server, revalidation)
        assert second.code == Code.VALID
        assert second.payload == b""
        assert second.etag == first.etag
        assert server.validations_sent == 1

    def test_validation_with_stale_etag_sends_full(self, server_and_sim):
        server, _ = server_and_sim
        query = make_query("a.example.org", RecordType.AAAA, txid=0)
        revalidation = _fetch(query.encode()).with_option(
            OptionNumber.ETAG, b"\x00" * 8
        )
        response = _answer(server, revalidation)
        assert response.code == Code.CONTENT
        assert response.payload

    def test_txid_echoed_in_doh_like(self):
        """Under DoH-like the DNS payload is untouched: the (zeroed)
        transaction ID and TTLs come back verbatim."""
        sim = Simulator(seed=72)
        topo = build_figure2_topology(sim)
        zone = Zone()
        zone.add_address("a.example.org", "2001:db8::1", ttl=77)
        server = DocServer(
            sim, topo.resolver_host.bind(5683), RecursiveResolver(zone),
            scheme=CachingScheme.DOH_LIKE,
        )
        query = make_query("a.example.org", RecordType.AAAA, txid=0)
        response = _answer(server, _fetch(query.encode()))
        decoded = Message.decode(response.payload)
        assert decoded.answers[0].ttl == 77
        assert response.max_age == 77

    def test_queries_handled_counter(self, server_and_sim):
        server, _ = server_and_sim
        query = make_query("a.example.org", RecordType.AAAA, txid=0)
        _answer(server, _fetch(query.encode()))
        _answer(server, _fetch(query.encode()))
        assert server.queries_handled == 2


class _Socket:
    """Collects what the server sends."""

    def __init__(self):
        self.on_datagram = None
        self.sent = []

    def sendto(self, payload, dst_addr, dst_port, metadata=None):
        self.sent.append(payload)


def _serve(server, request):
    """Deliver *request* as a datagram under a fresh MID; the reply."""
    socket = server.coap.socket
    wire = replace(request, mid=len(socket.sent)).encode()
    socket.on_datagram("fe80::9", 40000, wire, {})
    return CoapMessage.decode(socket.sent[-1])


class TestFastPath:
    """The opt-in wire-level response cache (fastpath_capacity knob),
    driven through the datagram path it answers on."""

    @pytest.fixture()
    def server_and_sim(self):
        sim = Simulator(seed=73)
        zone = Zone()
        zone.add_address("a.example.org", "2001:db8::1", ttl=120)
        server = DocServer(
            sim, _Socket(), RecursiveResolver(zone), fastpath_capacity=64,
        )
        return server, sim

    def test_disabled_by_default(self):
        sim = Simulator(seed=74)
        zone = Zone()
        zone.add_address("a.example.org", "2001:db8::1", ttl=120)
        server = DocServer(sim, _Socket(), RecursiveResolver(zone))
        query = make_query("a.example.org", RecordType.AAAA, txid=0)
        _serve(server, _fetch(query.encode()))
        _serve(server, _fetch(query.encode()))
        assert server.fastpath_hits == 0
        assert server.fastpath_misses == 0

    def test_hit_replays_template(self, server_and_sim):
        server, _ = server_and_sim
        query = make_query("a.example.org", RecordType.AAAA, txid=0)
        first = _serve(server, _fetch(query.encode()))
        second = _serve(server, _fetch(query.encode()))
        assert server.fastpath_misses == 1
        assert server.fastpath_hits == 1
        assert server.queries_handled == 2
        assert second.code == first.code
        assert second.payload == first.payload
        assert second.etag == first.etag
        assert second.max_age == first.max_age
        # The resolver was consulted exactly once.
        assert server.resolver.cache.stats.misses == 1

    def test_hit_patches_mid_token_and_max_age(self, server_and_sim):
        server, sim = server_and_sim
        query = make_query("a.example.org", RecordType.AAAA, txid=0)
        first = _serve(server, _fetch(query.encode()))
        sim.run(until=30.0)
        request = (
            CoapMessage.request(
                Code.FETCH, "/dns", payload=query.encode(), token=b"\x99"
            )
            .with_uint_option(
                OptionNumber.CONTENT_FORMAT, int(ContentFormat.DNS_MESSAGE)
            )
        )
        second = _serve(server, request)
        assert server.fastpath_hits == 1
        assert second.token == b"\x99"
        assert second.mid == 1
        assert second.payload == first.payload
        assert second.max_age == first.max_age - 30

    def test_expired_entry_falls_back_to_resolver(self, server_and_sim):
        server, sim = server_and_sim
        query = make_query("a.example.org", RecordType.AAAA, txid=0)
        _serve(server, _fetch(query.encode()))
        sim.run(until=130.0)  # past the 120 s Max-Age
        _serve(server, _fetch(query.encode()))
        assert server.fastpath_hits == 0
        assert server.fastpath_misses == 2

    def test_validation_hit_counts(self, server_and_sim):
        server, _ = server_and_sim
        query = make_query("a.example.org", RecordType.AAAA, txid=0)
        first = _serve(server, _fetch(query.encode()))
        revalidation = _fetch(query.encode()).with_option(
            OptionNumber.ETAG, first.etag
        )
        assert _serve(server, revalidation).code == Code.VALID
        assert _serve(server, revalidation).code == Code.VALID
        assert server.validations_sent == 2
        assert server.fastpath_hits == 1

    def test_uncacheable_error_not_stored(self, server_and_sim):
        server, _ = server_and_sim
        request = CoapMessage.request(Code.PUT, "/dns", payload=b"x")
        _serve(server, request)
        _serve(server, request)
        assert server.fastpath_hits == 0
        assert server.fastpath_misses == 2
