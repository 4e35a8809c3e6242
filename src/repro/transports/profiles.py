"""Built-in transport profiles.

Registers the paper's five runnable DNS transports (UDP, DTLS, CoAP,
CoAPS, OSCORE) plus the analytically-modeled QUIC with the
:mod:`repro.transports.registry`. Each registration bundles the two
stack builders the simulator and the live runtime both wire their
sockets through, security provisioning, and the Figure 6
packet-dissection hook; nothing outside this module branches on
transport names (``tests/test_transport_registry.py::
test_no_transport_name_comparison_outside_profiles`` reads the source
tree to keep it so).

Imports of the heavier layers (``repro.doc``, the dissection code)
happen inside the builders so the registry stays import-light and free
of cycles.
"""

from __future__ import annotations

from repro.transports.registry import (
    TransportEnv,
    TransportProfile,
    registry,
)

DNS_PORT = 53
DNS_OVER_DTLS_PORT = 853
COAP_PORT = 5683
COAPS_PORT = 5684
DNS_OVER_QUIC_PORT = 853


def _credentials(wiring: dict) -> dict:
    """The DTLS client credentials the caller set; what it left out
    stays the adapters' own default."""
    return {key: wiring[key] for key in ("psk", "psk_identity") if key in wiring}


def _preestablish(adapter, preestablished_with) -> None:
    """Adopt an out-of-band session pair when the caller names the
    ``(server adapter, client endpoint)`` to establish it with; without
    one the adapter handshakes on the wire at its first send."""
    if preestablished_with is not None:
        from repro.transports.dtls_adapter import preestablish

        preestablish(adapter, *preestablished_with)


# -- DNS over UDP -----------------------------------------------------------


def _udp_server(clock, socket, resolver, **_wiring):
    from repro.transports.dns_over_udp import DnsOverUdpServer

    return DnsOverUdpServer(clock, socket, resolver)


def _udp_client(clock, socket, server, *, dns_cache=None, **_wiring):
    from repro.transports.dns_over_udp import DnsOverUdpClient

    return DnsOverUdpClient(clock, socket, server, dns_cache=dns_cache)


# -- DNS over DTLS ----------------------------------------------------------


def _dtls_server(clock, socket, resolver, *, psk_store=None, **_wiring):
    from repro.transports.dns_over_dtls import DnsOverDtlsServer

    return DnsOverDtlsServer(clock, socket, resolver, psk_store=psk_store)


def _dtls_client(
    clock, socket, server, *, dns_cache=None, preestablished_with=None, **wiring
):
    from repro.transports.dns_over_dtls import DnsOverDtlsClient

    client = DnsOverDtlsClient(
        clock, socket, server, dns_cache=dns_cache, **_credentials(wiring)
    )
    _preestablish(client.adapter, preestablished_with)
    return client


# -- DNS over CoAP (plain, DTLS-secured, OSCORE-protected) ------------------


def _provision_oscore(env: TransportEnv) -> None:
    # Pre-initialised replay windows (Section 5.1): no Echo round.
    env.oscore_master = (b"experiment-master-secret", b"salt")


def _coap_server(
    clock, socket, resolver, *, scheme, oscore_context=None,
    fastpath_capacity=0, **_wiring,
):
    # Plain CoAP and OSCORE are one stack: the context is the difference.
    from repro.doc import DocServer

    return DocServer(
        clock,
        socket,
        resolver,
        scheme=scheme,
        oscore_context=oscore_context,
        fastpath_capacity=fastpath_capacity,
    )


def _coaps_server(clock, socket, resolver, *, psk_store=None, **wiring):
    from repro.transports.dtls_adapter import DtlsServerAdapter

    adapter = DtlsServerAdapter(clock, socket, psk_store=psk_store)
    return _coap_server(clock, adapter, resolver, **wiring)


def _coap_client(
    clock, socket, server, *, method, scheme, target=None, block_size=None,
    dns_cache=None, coap_cache=None, oscore_context=None, **_wiring,
):
    from repro.doc import DocClient

    return DocClient(
        clock,
        socket,
        target or server,
        method=method,
        scheme=scheme,
        coap_cache=coap_cache,
        dns_cache=dns_cache,
        block_size=block_size,
        oscore_context=oscore_context,
    )


def _coaps_client(clock, socket, server, *, preestablished_with=None, **wiring):
    from repro.transports.dtls_adapter import DtlsClientAdapter

    # The session runs to the server even when requests go to a proxy.
    adapter = DtlsClientAdapter(clock, socket, server, **_credentials(wiring))
    _preestablish(adapter, preestablished_with)
    return _coap_client(clock, adapter, server, **wiring)


# -- dissection hooks -------------------------------------------------------


def _dissect_plain_dns(profile, method=None, name=None, with_echo=False):
    # Shared by udp and dtls: profile.secure selects the record overhead.
    from repro.experiments import packet_sizes

    return packet_sizes.dissect_plain_dns(profile, name=name)


def _dissect_coap(profile, method=None, name=None, with_echo=False):
    from repro.experiments import packet_sizes

    return packet_sizes.dissect_doc(profile, method=method, name=name)


def _dissect_oscore(profile, method=None, name=None, with_echo=False):
    from repro.experiments import packet_sizes

    return packet_sizes.dissect_oscore(profile, name=name, with_echo=with_echo)


def _dissect_quic(profile, method=None, name=None, with_echo=False):
    from repro.quicmodel import quic_dissections

    return quic_dissections(name=name)


# -- registrations ----------------------------------------------------------
# replace=True keeps a re-import of this module (e.g. a retried builtin
# load after a transient failure) idempotent.

registry.register(
    TransportProfile(
        name="udp",
        display_name="UDP",
        default_port=DNS_PORT,
        server_builder=_udp_server,
        client_builder=_udp_client,
        dissector=_dissect_plain_dns,
    ),
    replace=True,
)

registry.register(
    TransportProfile(
        name="dtls",
        display_name="DTLSv1.2",
        default_port=DNS_OVER_DTLS_PORT,
        secure=True,
        has_handshake=True,
        server_builder=_dtls_server,
        client_builder=_dtls_client,
        dissector=_dissect_plain_dns,
    ),
    replace=True,
)

registry.register(
    TransportProfile(
        name="coap",
        display_name="CoAP",
        default_port=COAP_PORT,
        coap_based=True,
        server_builder=_coap_server,
        client_builder=_coap_client,
        dissector=_dissect_coap,
    ),
    replace=True,
)

registry.register(
    TransportProfile(
        name="coaps",
        display_name="CoAPSv1.2",
        default_port=COAPS_PORT,
        secure=True,
        coap_based=True,
        has_handshake=True,
        server_builder=_coaps_server,
        client_builder=_coaps_client,
        dissector=_dissect_coap,
    ),
    replace=True,
)

registry.register(
    TransportProfile(
        name="oscore",
        display_name="OSCORE",
        default_port=COAP_PORT,
        secure=True,
        coap_based=True,
        echo_variant=True,
        provisioner=_provision_oscore,
        server_builder=_coap_server,
        client_builder=_coap_client,
        dissector=_dissect_oscore,
    ),
    replace=True,
)

registry.register(
    TransportProfile(
        name="quic",
        display_name="QUIC (model)",
        default_port=DNS_OVER_QUIC_PORT,
        secure=True,
        simulatable=False,
        in_figure6=False,
        dissector=_dissect_quic,
    ),
    replace=True,
)
