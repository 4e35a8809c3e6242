"""Max-Age integrity (Section 7) tests, including failure injection with
a malicious proxy."""


import pytest

from repro.dns import (
    AAAAData,
    DNSClass,
    Flags,
    Message,
    Question,
    RecordType,
    ResourceRecord,
)
from repro.doc.caching import CachingScheme
from repro.doc.integrity import MaxAgeIntegrityError, check_max_age_consistency


def _response(ttls=(60, 30), addresses=("2001:db8::1", "2001:db8::2")):
    return Message(
        flags=Flags(qr=True),
        questions=(Question("example.org", RecordType.AAAA),),
        answers=tuple(
            ResourceRecord("example.org", RecordType.AAAA, DNSClass.IN, ttl,
                           AAAAData(address))
            for ttl, address in zip(ttls, addresses)
        ),
    )


class TestMaxAgeConsistency:
    def test_eol_accepts_aged_outer(self):
        assert check_max_age_consistency(
            CachingScheme.EOL_TTLS, outer_max_age=20, inner_max_age=30
        ) == 20

    def test_eol_rejects_extended_outer(self):
        """The lifetime-extension attack the paper describes."""
        with pytest.raises(MaxAgeIntegrityError):
            check_max_age_consistency(
                CachingScheme.EOL_TTLS, outer_max_age=300, inner_max_age=30
            )

    def test_eol_requires_protected_value(self):
        with pytest.raises(MaxAgeIntegrityError):
            check_max_age_consistency(
                CachingScheme.EOL_TTLS, outer_max_age=10, inner_max_age=None
            )

    def test_eol_allows_equal(self):
        assert check_max_age_consistency(
            CachingScheme.EOL_TTLS, outer_max_age=30, inner_max_age=30
        ) == 30

    def test_doh_like_bounded_by_original_ttls(self):
        response = _response(ttls=(60, 30))
        assert check_max_age_consistency(
            CachingScheme.DOH_LIKE, outer_max_age=25, response=response
        ) == 25
        with pytest.raises(MaxAgeIntegrityError):
            check_max_age_consistency(
                CachingScheme.DOH_LIKE, outer_max_age=31, response=response
            )

    def test_doh_like_requires_response(self):
        with pytest.raises(MaxAgeIntegrityError):
            check_max_age_consistency(CachingScheme.DOH_LIKE, outer_max_age=10)

    def test_missing_outer_falls_back_to_inner(self):
        assert check_max_age_consistency(
            CachingScheme.EOL_TTLS, outer_max_age=None, inner_max_age=44
        ) == 44

    def test_nothing_available_rejected(self):
        with pytest.raises(MaxAgeIntegrityError):
            check_max_age_consistency(
                CachingScheme.EOL_TTLS, outer_max_age=None, inner_max_age=None
            )

    def test_shortening_always_allowed(self):
        """Unauthorised *reduction* of lifetimes remains possible (the
        paper accepts this availability-only degradation)."""
        assert check_max_age_consistency(
            CachingScheme.EOL_TTLS, outer_max_age=1, inner_max_age=600
        ) == 1


class TestMaliciousProxyInjection:
    """End-to-end failure injection: a proxy that inflates Max-Age."""

    def _run(self, verify: bool, tamper_enabled: bool = True):
        from repro.doc import DocClient, DocServer
        from repro.dns import RecursiveResolver, Zone
        from repro.oscore import SecurityContext
        from repro.sim import Simulator
        from repro.stack import build_figure2_topology
        from repro.coap.message import CoapMessage
        from repro.coap.options import OptionNumber

        sim = Simulator(seed=51)
        topo = build_figure2_topology(sim)
        zone = Zone()
        zone.add_address("victim.example.org", "2001:db8::66", ttl=30)
        ctx_client, ctx_server = SecurityContext.pair(b"m", b"s")
        DocServer(sim, topo.resolver_host.bind(5683),
                  RecursiveResolver(zone), oscore_context=ctx_server)
        client = DocClient(
            sim, topo.clients[0].bind(), (topo.resolver_host.address, 5683),
            oscore_context=ctx_client, verify_max_age=verify,
        )

        # The "malicious proxy": the border router tampers with the
        # outer Max-Age of passing responses.
        original = topo.border_router._receive_packet

        def tamper(packet, metadata):
            from repro.net.udp import UdpDatagram
            try:
                datagram = UdpDatagram.decode(packet.payload)
                message = CoapMessage.decode(datagram.payload)
            except Exception:
                original(packet, metadata)
                return
            if message.code.is_response:
                message = message.replace_uint_option(
                    OptionNumber.MAX_AGE, 999_999
                )
                datagram = UdpDatagram(
                    datagram.src_port, datagram.dst_port, message.encode()
                )
                from dataclasses import replace as dc_replace

                packet = dc_replace(
                    packet, payload=datagram.encode(packet.src, packet.dst)
                )
            original(packet, metadata)

        if tamper_enabled:
            topo.border_router._receive_packet = tamper

        results = []
        client.resolve("victim.example.org", RecordType.AAAA,
                       lambda r, e: results.append((r, e)))
        sim.run(until=60)
        return results[0]

    def test_unverifying_client_uses_protected_inner_value(self):
        """Without the explicit check, the OSCORE-protected inner
        Max-Age already shields this client (the attack surface is the
        outer option, which plain-CoAP/cacheable-mode clients consume)."""
        result, error = self._run(verify=False)
        assert error is None
        # Inner Max-Age protected by OSCORE: TTL restored correctly.
        assert result.response.min_ttl() == 30

    def test_verifying_client_discards_tampered_response(self):
        """Section 7: the client 'discards the response when the
        consistency check fails'."""
        result, error = self._run(verify=True, tamper_enabled=True)
        assert result is None
        assert isinstance(error, MaxAgeIntegrityError)

    def test_verifying_client_accepts_honest_path(self):
        result, error = self._run(verify=True, tamper_enabled=False)
        assert error is None
        assert result.response.min_ttl() == 30
