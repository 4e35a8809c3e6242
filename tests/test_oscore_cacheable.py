"""Cacheable (deterministic) OSCORE tests."""

import pytest

from repro.coap import CoapMessage, Code, MessageType, cache_key_for
from repro.coap.options import OptionNumber, encode_uint
from repro.oscore import OscoreError, SecurityContext, unprotect_response
from repro.oscore.cacheable import (
    DETERMINISTIC_CLIENT_ID,
    derive_deterministic_context,
    open_deterministic_request,
    protect_cacheable_request,
)
from repro.oscore.protect import encode_plaintext, seal_response


def _contexts():
    client_a = derive_deterministic_context(b"group", b"salt", role="client")
    client_b = derive_deterministic_context(b"group", b"salt", role="client")
    server = derive_deterministic_context(b"group", b"salt", role="server")
    return client_a, client_b, server


def _request(payload=b"\x00" * 20, token=b"\x01", mid=1):
    return CoapMessage.request(
        Code.FETCH, "/dns", payload=payload, token=token, mid=mid
    )


def _sealed_reply(server, outer, payload, max_age):
    """The server's reply to *outer*, sealed the way
    :class:`~repro.doc.server.DocServer` seals one: 2.05 Content with
    the lifetime in an outer Max-Age."""
    _, _, binding = open_deterministic_request(server, outer)
    return seal_response(
        server, encode_plaintext(Code.CONTENT, (), payload), binding,
        MessageType.ACK, outer.mid, outer.token, outer_code=Code.CONTENT,
        outer_options=((OptionNumber.MAX_AGE, encode_uint(max_age)),),
    )


class TestDeterminism:
    def test_equal_requests_equal_ciphertext(self):
        client_a, client_b, _ = _contexts()
        outer_a, _ = protect_cacheable_request(client_a, _request())
        outer_b, _ = protect_cacheable_request(client_b, _request(token=b"\x09", mid=99))
        assert outer_a.payload == outer_b.payload

    def test_different_payloads_different_ciphertext(self):
        client_a, _, _ = _contexts()
        outer_a, _ = protect_cacheable_request(client_a, _request(b"\x01" * 20))
        outer_b, _ = protect_cacheable_request(client_a, _request(b"\x02" * 20))
        assert outer_a.payload != outer_b.payload

    def test_sequence_counter_untouched(self):
        client_a, _, _ = _contexts()
        before = client_a.sender_sequence
        protect_cacheable_request(client_a, _request())
        assert client_a.sender_sequence == before

    def test_requires_deterministic_context(self):
        normal, _ = SecurityContext.pair(b"m", b"s")
        with pytest.raises(OscoreError):
            protect_cacheable_request(normal, _request())

    def test_deterministic_id_reserved(self):
        client_a, _, _ = _contexts()
        assert client_a.sender_id == DETERMINISTIC_CLIENT_ID


class TestServerVerification:
    def test_round_trip(self):
        client_a, _, server = _contexts()
        outer, _ = protect_cacheable_request(client_a, _request())
        inner, _, binding = open_deterministic_request(server, outer)
        assert inner.payload == b"\x00" * 20
        assert binding.kid == DETERMINISTIC_CLIENT_ID

    def test_replay_allowed(self):
        """Equal deterministic requests are the whole point."""
        client_a, _, server = _contexts()
        outer, _ = protect_cacheable_request(client_a, _request())
        open_deterministic_request(server, outer)
        open_deterministic_request(server, outer)  # no error

    def test_forged_piv_rejected(self):
        """A valid ciphertext under a wrong PIV must not pass (the PIV
        is recomputed from the decrypted plaintext)."""
        client_a, _, server = _contexts()
        request_a = _request(b"\x01" * 20)
        request_b = _request(b"\x02" * 20)
        outer_a, _ = protect_cacheable_request(client_a, request_a)
        outer_b, _ = protect_cacheable_request(client_a, request_b)
        # Swap the OSCORE options (carrying the PIVs) between messages.
        from dataclasses import replace
        from repro.coap.options import OptionNumber

        option_b = outer_b.option(OptionNumber.OSCORE)
        forged = outer_a.without_option(OptionNumber.OSCORE).with_option(
            OptionNumber.OSCORE, option_b
        )
        with pytest.raises(OscoreError):
            open_deterministic_request(server, forged)

    def test_tampered_ciphertext_rejected(self):
        client_a, _, server = _contexts()
        outer, _ = protect_cacheable_request(client_a, _request())
        from dataclasses import replace

        bad = replace(
            outer, payload=bytes([outer.payload[0] ^ 1]) + outer.payload[1:]
        )
        with pytest.raises(OscoreError):
            open_deterministic_request(server, bad)


class TestCacheability:
    def test_outer_fetch_is_proxy_cacheable(self):
        client_a, client_b, _ = _contexts()
        outer_a, _ = protect_cacheable_request(client_a, _request())
        outer_b, _ = protect_cacheable_request(client_b, _request(token=b"\x05", mid=7))
        assert outer_a.code == Code.FETCH
        assert cache_key_for(outer_a) is not None
        assert cache_key_for(outer_a) == cache_key_for(outer_b)

    def test_regular_oscore_not_proxy_cacheable(self):
        client, _ = SecurityContext.pair(b"m", b"s")
        from repro.oscore import protect_request

        outer, _ = protect_request(client, _request())
        assert outer.code == Code.POST
        assert cache_key_for(outer) is None

    def test_any_member_decrypts_response(self):
        client_a, client_b, server = _contexts()
        outer, _ = protect_cacheable_request(client_a, _request())
        protected = _sealed_reply(server, outer, b"answer", max_age=60)
        # Client B never sent the request but shares the deterministic
        # context; a cached copy works for it too.
        _, binding_b = protect_cacheable_request(client_b, _request(token=b"\x05"))
        plain = unprotect_response(client_b, protected, binding_b)
        assert plain.payload == b"answer"

    def test_outer_max_age_exposed(self):
        client_a, _, server = _contexts()
        outer, _ = protect_cacheable_request(client_a, _request())
        protected = _sealed_reply(server, outer, b"x", max_age=42)
        assert protected.code == Code.CONTENT
        assert protected.max_age == 42

    def test_eavesdropper_learns_nothing(self):
        from repro.dns import make_query

        client_a, _, _ = _contexts()
        wire = make_query("very-secret-device.example.org", txid=0).encode()
        outer, _ = protect_cacheable_request(client_a, _request(payload=wire))
        assert b"secret" not in outer.encode()


class TestEndToEndViaProxy:
    def test_proxy_caches_protected_exchange(self):
        from repro.coap.proxy import ForwardProxy
        from repro.dns import RecordType, RecursiveResolver, Zone
        from repro.doc import DocClient, DocServer
        from repro.sim import Simulator
        from repro.stack import build_figure2_topology

        sim = Simulator(seed=41)
        topo = build_figure2_topology(sim)
        zone = Zone()
        zone.add_address("svc.example.org", "2001:db8::7", ttl=120)
        server = DocServer(
            sim, topo.resolver_host.bind(5683), RecursiveResolver(zone),
            deterministic_context=derive_deterministic_context(
                b"group", b"salt", role="server"
            ),
        )
        proxy = ForwardProxy(
            sim, topo.forwarder.bind(5683), topo.forwarder.bind(),
            (topo.resolver_host.address, 5683),
        )
        clients = [
            DocClient(
                sim, node.bind(), (topo.forwarder.address, 5683),
                oscore_context=derive_deterministic_context(
                    b"group", b"salt", role="client"
                ),
                cacheable_oscore=True,
            )
            for node in topo.clients
        ]
        results = []
        sim.schedule(0.0, clients[0].resolve, "svc.example.org",
                     RecordType.AAAA, lambda r, e: results.append((r, e)))
        sim.schedule(2.0, clients[1].resolve, "svc.example.org",
                     RecordType.AAAA, lambda r, e: results.append((r, e)))
        sim.run(until=30)
        assert len(results) == 2
        assert all(e is None and r.addresses == ["2001:db8::7"] for r, e in results)
        assert server.queries_handled == 1
        assert proxy.requests_served_from_cache == 1

    def test_proxy_aged_max_age_restores_remaining_ttl(self):
        from repro.coap.proxy import ForwardProxy
        from repro.dns import RecordType, RecursiveResolver, Zone
        from repro.doc import DocClient, DocServer
        from repro.sim import Simulator
        from repro.stack import build_figure2_topology

        sim = Simulator(seed=43)
        topo = build_figure2_topology(sim)
        zone = Zone()
        zone.add_address("svc.example.org", "2001:db8::7", ttl=60)
        DocServer(
            sim, topo.resolver_host.bind(5683), RecursiveResolver(zone),
            deterministic_context=derive_deterministic_context(
                b"group", b"salt", role="server"
            ),
        )
        ForwardProxy(
            sim, topo.forwarder.bind(5683), topo.forwarder.bind(),
            (topo.resolver_host.address, 5683),
        )
        clients = [
            DocClient(
                sim, node.bind(), (topo.forwarder.address, 5683),
                oscore_context=derive_deterministic_context(
                    b"group", b"salt", role="client"
                ),
                cacheable_oscore=True,
            )
            for node in topo.clients
        ]
        results = []
        sim.schedule(0.0, clients[0].resolve, "svc.example.org",
                     RecordType.AAAA, lambda r, e: results.append(r))
        sim.schedule(10.0, clients[1].resolve, "svc.example.org",
                     RecordType.AAAA, lambda r, e: results.append(r))
        sim.run(until=30)
        assert results[0].response.min_ttl() == 60
        # Served from the proxy cache ~10 s later: TTL aged via the
        # outer Max-Age that the proxy decremented.
        assert 48 <= results[1].response.min_ttl() <= 51
