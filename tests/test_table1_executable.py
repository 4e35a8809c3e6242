"""Table 1, executed: each feature claimed for the CoAP-based DNS
transports is demonstrated against the implementation, not just
asserted in a registry."""

import pytest

from repro.coap import CoapMessage, Code, ContentFormat, OptionNumber
from repro.dns import make_query
from repro.oscore import (
    SecurityContext,
    derive_deterministic_context,
    protect_request,
    unprotect_request,
)


class TestMessageSegmentation:
    """Row 1: CoAP/CoAPS/OSCORE segment via block-wise transfer."""

    def test_coap_segments_large_messages(self):
        from repro.coap.blockwise import BlockAssembler, block_for, split_body

        body = bytes(500)
        blocks = split_body(body, 64)
        assert len(blocks) > 1
        assembler = BlockAssembler()
        for number in range(len(blocks)):
            block, chunk = block_for(body, number, 64)
            assembler.add(block, chunk)
        assert assembler.body() == body

    def test_udp_and_dtls_do_not_segment(self):
        """Plain UDP/DTLS rely on 6LoWPAN fragmentation below them —
        application-layer segmentation is absent (the Table 1 ✘)."""
        from repro.experiments.packet_sizes import dissect_transport

        for transport in ("udp", "dtls"):
            aaaa = {
                d.message: d for d in dissect_transport(transport)
            }["response_aaaa"]
            assert aaaa.fragmented  # pushed to the adaptation layer


class TestMessageEncryption:
    """Row 3: CoAPS and OSCORE encrypt; plain CoAP does not."""

    def test_plain_coap_payload_visible(self):
        wire = make_query("secret-host.example.org", txid=0).encode()
        message = CoapMessage.request(Code.FETCH, "/dns", payload=wire)
        assert b"secret-host" in message.encode()

    def test_oscore_payload_hidden(self):
        client, _ = SecurityContext.pair(b"m", b"s")
        wire = make_query("secret-host.example.org", txid=0).encode()
        message = CoapMessage.request(Code.FETCH, "/dns", payload=wire)
        outer, _ = protect_request(client, message)
        assert b"secret-host" not in outer.encode()

    def test_dtls_record_hides_payload(self):
        from repro.dtls import establish_pair

        client, _, _ = establish_pair()
        record = client.protect(b"secret-host.example.org query bytes")
        assert b"secret-host" not in record


class TestMessageFormatMultiplexing:
    """Row 4: the Content-Format option multiplexes message formats."""

    def test_two_formats_one_resource(self):
        message = CoapMessage.request(Code.FETCH, "/dns", payload=b"x")
        wire_format = message.with_uint_option(
            OptionNumber.CONTENT_FORMAT, int(ContentFormat.DNS_MESSAGE)
        )
        cbor_format = message.with_uint_option(
            OptionNumber.CONTENT_FORMAT, int(ContentFormat.DNS_CBOR)
        )
        number = OptionNumber.CONTENT_FORMAT
        assert wire_format.uint_option(number) != cbor_format.uint_option(number)
        # Both decodable from the wire; a server can dispatch on them.
        assert CoapMessage.decode(wire_format.encode()).uint_option(number) == 553
        assert CoapMessage.decode(cbor_format.encode()).uint_option(number) == 554


class TestSharesProtocolWithApplication:
    """Row 5: DNS rides the same CoAP stack an application already uses."""

    def test_dns_and_app_resources_coexist(self):
        from repro.coap.endpoint import CoapClient, CoapServer
        from repro.sim import Simulator
        from repro.stack import build_figure2_topology

        sim = Simulator(seed=91)
        topo = build_figure2_topology(sim)
        server = CoapServer(sim, topo.resolver_host.bind(5683))
        server.add_resource(
            "/dns",
            lambda req, respond, md: respond(
                req.make_response(Code.CONTENT, payload=b"dns")
            ),
        )
        server.add_resource(
            "/sensor",
            lambda req, respond, md: respond(
                req.make_response(Code.CONTENT, payload=b"21.5C")
            ),
        )
        client = CoapClient(sim, topo.clients[0].bind())
        results = {}
        for path in ("/dns", "/sensor"):
            client.request(
                CoapMessage.request(Code.FETCH, path, payload=b"q"),
                topo.resolver_host.address, 5683,
                lambda r, e, path=path: results.__setitem__(path, r.payload),
            )
        sim.run(until=10)
        assert results == {"/dns": b"dns", "/sensor": b"21.5C"}


class TestSecureEnrouteCaching:
    """Row 7: only OSCORE (with deterministic requests) offers caching
    of *encrypted* content on untrusted intermediaries."""

    def test_deterministic_oscore_cacheable_ciphertext(self):
        from repro.coap.cache import CoapCache
        from repro.oscore import protect_cacheable_request

        client_a = derive_deterministic_context(b"grp", b"s", role="client")
        client_b = derive_deterministic_context(b"grp", b"s", role="client")
        request = CoapMessage.request(Code.FETCH, "/dns", payload=b"q" * 20)
        outer_a, _ = protect_cacheable_request(client_a, request)
        outer_b, _ = protect_cacheable_request(client_b, request)

        # An untrusted cache (it has no keys) still correlates them.
        cache = CoapCache()
        response = outer_a.make_response(Code.CONTENT, payload=b"\xAA" * 30)
        assert cache.store(outer_a, response, now=0.0)
        hit, _ = cache.lookup(outer_b, now=1.0)
        assert hit is not None
        assert hit.payload == b"\xAA" * 30

    def test_dtls_cannot_offer_this(self):
        """DTLS protection is per-session: the same DNS query from two
        clients yields unrelated ciphertexts, so nothing correlates."""
        import random

        from repro.dtls import establish_pair

        client_1, _, _ = establish_pair(rng=random.Random(1))
        client_2, _, _ = establish_pair(rng=random.Random(2))
        query = make_query("example.org", txid=0).encode()
        assert client_1.protect(query) != client_2.protect(query)

    def test_plain_oscore_cannot_offer_this_either(self):
        client, _ = SecurityContext.pair(b"m", b"s")
        request = CoapMessage.request(Code.FETCH, "/dns", payload=b"q" * 20)
        outer_1, _ = protect_request(client, request)
        outer_2, _ = protect_request(client, request)
        assert outer_1.payload != outer_2.payload  # fresh PIV each time
