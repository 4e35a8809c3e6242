"""The RFCs as an executable table: what the DoC server answers, byte
for byte, to requests an RFC sentence decides.

Each row is ``(rfc, section, level, request bytes, expected reply)``. A
reply is matched on its header: the message type, the code and the MID
of the request. Every row runs against the CoAP-based DoC server (the
``coap`` profile's ``server_builder``, on a scripted socket and clock),
without and with an OSCORE context (a protected server's plain route),
and with its response cache on and off. A MUST the server does not meet
yet is a strict xfail naming its section: the change that meets it
removes the mark.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

import pytest

from repro.coap import CoapMessage, Code, ContentFormat, MessageType, OptionNumber
from repro.dns import RecordType, RecursiveResolver, Zone, make_query
from repro.doc import CachingScheme
from repro.oscore import SecurityContext
from repro.transports import get_profile

PEER = ("fe80::1", 40001)


class Row(NamedTuple):
    name: str
    rfc: str
    section: str
    level: str
    says: str
    request: bytes
    #: The reply's (type, code); its MID is the request's.
    reply: tuple
    #: Why the server does not meet the row yet, or None.
    unmet: Optional[str] = None
    #: The row needs a server without an OSCORE context.
    plain_only: bool = False


def _fetch(*options, octet: Optional[int] = None) -> bytes:
    """A CON FETCH for ``/dns`` carrying an AAAA query and *options*;
    with *octet*, the query name's fourth ``example`` byte is that."""
    query = bytearray(make_query("a.example.org", RecordType.AAAA, txid=0).encode())
    if octet is not None:
        query[query.index(b"example") + 3] = octet
    message = CoapMessage.request(
        Code.FETCH, "dns", mid=0x1234, token=b"\x07", payload=bytes(query),
    ).with_uint_option(OptionNumber.CONTENT_FORMAT, int(ContentFormat.DNS_MESSAGE))
    for number, value in options:
        message = message.with_option(number, value)
    return message.encode()


ROWS = [
    Row("ping-rst", "RFC 7252", "§4.2, §4.3", "MUST",
        "an empty CON (the CoAP ping) is rejected with an RST carrying its MID",
        bytes.fromhex("40001234"), (MessageType.RST, Code.EMPTY)),
    Row("empty-with-bytes-rst", "RFC 7252", "§4.1, §4.2", "MUST",
        "an Empty message with bytes after the MID is a message format "
        "error, and a CON with one is rejected with an RST",
        bytes.fromhex("40001234ff"), (MessageType.RST, Code.EMPTY)),
    Row("empty-with-token-rst", "RFC 7252", "§4.1, §4.2", "MUST",
        "an Empty message with a token is a message format error, and a "
        "CON with one is rejected with an RST",
        bytes.fromhex("41001234aa"), (MessageType.RST, Code.EMPTY)),
    Row("reserved-class-1-rst", "RFC 7252", "§4.2, §12.1", "MUST",
        "a CON with a code of reserved class 1 (1.00) is rejected with an "
        "RST", bytes.fromhex("40201234"), (MessageType.RST, Code.EMPTY)),
    Row("reserved-class-7-rst", "RFC 7252", "§4.2, §12.1", "MUST",
        "a CON with a code of reserved class 7 (7.00) is rejected with an "
        "RST", bytes.fromhex("40e01234"), (MessageType.RST, Code.EMPTY)),
    Row("con-response-rst", "RFC 7252", "§4.2, §5.3.2", "MUST",
        "a CON response (2.05) the server has no request for is rejected "
        "with an RST", bytes.fromhex("40451234"), (MessageType.RST, Code.EMPTY)),
    Row("name-octet-above-7f", "RFC 2181", "§11", "choice",
        "any octet may appear in a label; a query name the server cannot "
        "write back (an octet above 0x7F) gets 4.00 Bad Request, not silence",
        _fetch(octet=0xFA), (MessageType.ACK, Code.BAD_REQUEST)),
    Row("name-dot-inside-label", "RFC 2181", "§11", "choice",
        "any octet may appear in a label; a query name the server cannot "
        "write back (a '.' inside a label) gets 4.00 Bad Request, not silence",
        _fetch(octet=0x2E), (MessageType.ACK, Code.BAD_REQUEST)),
    Row("critical-option-2001", "RFC 7252", "§5.4.1", "MUST",
        "an unrecognised critical option in a CON request gets 4.02 Bad Option",
        _fetch((2001, b"")), (MessageType.ACK, Code.BAD_OPTION),
        unmet="the request reader skips an option it does not know"),
    Row("oscore-option-no-context", "RFC 7252", "§5.4.1", "MUST",
        "the OSCORE option at a server with no OSCORE context is an "
        "unrecognised critical option: 4.02 Bad Option",
        _fetch((OptionNumber.OSCORE, b"")), (MessageType.ACK, Code.BAD_OPTION),
        plain_only=True),
    Row("accept-text-plain", "RFC 7252", "§5.10.4", "MUST",
        "an Accept the server cannot produce (0, text/plain) gets 4.06 Not "
        "Acceptable",
        _fetch((OptionNumber.ACCEPT, b"")), (MessageType.ACK, Code.NOT_ACCEPTABLE),
        unmet="the reply is 2.05 application/dns-message whatever the Accept"),
]


def _cases():
    for row in ROWS:
        for secured in (False, True):
            if secured and row.plain_only:
                continue
            for capacity in (64, 0):
                marks = ()
                if row.unmet is not None:
                    marks = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                        f"{row.rfc} {row.section} {row.level}: {row.says}; "
                        f"{row.unmet}"
                    ))
                yield pytest.param(
                    row, secured, capacity, marks=marks,
                    id=f"{row.name}-{'oscore' if secured else 'coap'}-cache{capacity}",
                )


class _ScriptedClock:
    def __init__(self) -> None:
        self.now = 0.0
        self.rng = random.Random(11)

    def schedule(self, delay, callback, *args):
        raise AssertionError("the DoC server deferred a reply")

    schedule_at = schedule


class _Socket:
    def __init__(self) -> None:
        self.on_datagram = None
        self.sent = []

    def sendto(self, payload, dst_addr, dst_port, metadata=None):
        self.sent.append((dst_addr, dst_port, bytes(payload)))


@pytest.mark.parametrize("row,secured,capacity", _cases())
def test_server_answers_as_the_rfc_says(row, secured, capacity):
    zone = Zone()
    zone.add_address("a.example.org", "2001:db8::1", ttl=120)
    socket = _Socket()
    _, server_context = SecurityContext.pair(b"conformance-secret", b"salt")
    get_profile("coap").server_builder(
        _ScriptedClock(), socket, RecursiveResolver(zone),
        scheme=CachingScheme.EOL_TTLS,
        oscore_context=server_context if secured else None,
        fastpath_capacity=capacity,
    )
    socket.on_datagram(*PEER, row.request, {})
    assert len(socket.sent) == 1
    dst_addr, dst_port, reply = socket.sent[0]
    assert (dst_addr, dst_port) == PEER
    mtype, code = row.reply
    assert (reply[0] >> 4 & 0b11, reply[1], reply[2:4]) == (
        int(mtype), int(code), row.request[2:4]
    )
    if mtype == MessageType.RST:
        assert reply == bytes((0x70, 0)) + row.request[2:4]


@pytest.mark.parametrize("capacity", [64, 0], ids=["cache64", "cache0"])
def test_regular_oscore_at_a_cacheable_only_server_gets_4_00(capacity):
    # RFC 8613 §8.2: a request whose security context is not found MAY
    # be answered 4.01 Unauthorized. The choice recorded here: a server
    # holding only the cacheable-OSCORE (deterministic) context answers a
    # regular protected request 4.00 Bad Request, in the clear, as it
    # answers any request it cannot open.
    from repro.doc import DocServer
    from repro.oscore import derive_deterministic_context, protect_request

    zone = Zone()
    zone.add_address("a.example.org", "2001:db8::1", ttl=120)
    socket = _Socket()
    DocServer(
        _ScriptedClock(), socket, RecursiveResolver(zone),
        deterministic_context=derive_deterministic_context(
            b"conformance-secret", b"salt", role="server"
        ),
        fastpath_capacity=capacity,
    )
    client_context, _ = SecurityContext.pair(b"conformance-secret", b"salt")
    outer, _ = protect_request(client_context, CoapMessage.decode(_fetch()))
    socket.on_datagram(*PEER, outer.encode(), {})
    assert socket.sent == [
        (*PEER, CoapMessage(MessageType.ACK, Code.BAD_REQUEST, 0x1234, b"\x07").encode())
    ]


# -- the Echo round on first contact --------------------------------------


def _echo_exchange():
    """A coap DoC server whose OSCORE context requires an Echo round,
    and ``ask(echo)``: one protected FETCH for ``/dns``, with the Echo
    option *echo* when given, fed to the server's socket; it returns the
    reply as the client unprotects it."""
    from repro.oscore import protect_request, unprotect_response

    zone = Zone()
    zone.add_address("a.example.org", "2001:db8::1", ttl=120)
    socket = _Socket()
    client_context, server_context = SecurityContext.pair(
        b"conformance-secret", b"salt", server_requires_echo=True
    )
    get_profile("coap").server_builder(
        _ScriptedClock(), socket, RecursiveResolver(zone),
        scheme=CachingScheme.EOL_TTLS, oscore_context=server_context,
    )

    def ask(echo: Optional[bytes] = None) -> CoapMessage:
        mid = 0x2000 + len(socket.sent)
        request = CoapMessage.request(
            Code.FETCH, "dns", mid=mid, token=mid.to_bytes(2, "big"),
            payload=make_query("a.example.org", RecordType.AAAA, txid=0).encode(),
        ).with_uint_option(OptionNumber.CONTENT_FORMAT, int(ContentFormat.DNS_MESSAGE))
        if echo is not None:
            request = request.with_option(OptionNumber.ECHO, echo)
        outer, binding = protect_request(client_context, request)
        socket.on_datagram(*PEER, outer.encode(), {})
        (_, _, reply), = socket.sent[-1:]
        outer_reply = CoapMessage.decode(reply)
        assert (outer_reply.mtype, outer_reply.mid) == (MessageType.ACK, mid)
        return unprotect_response(client_context, outer_reply, binding)

    return ask


def test_echo_round_on_first_contact():
    # RFC 8613 Appendix B.1.2: a server that has lost (or never had) its
    # replay window for a kid answers that kid's first request 4.01 with
    # an Echo option; RFC 9175 §2: the retry carrying that value is
    # fresh, and is served. The kid's later requests need no Echo.
    ask = _echo_exchange()
    challenge = ask()
    echo = challenge.option(OptionNumber.ECHO)
    assert challenge.code == Code.UNAUTHORIZED
    assert echo is not None and len(echo) == 8
    assert ask(echo).code == Code.CONTENT
    assert ask().code == Code.CONTENT


def test_wrong_echo_gets_a_fresh_challenge():
    # RFC 9175 §2: a request whose Echo value the server did not issue
    # is not fresh; it is answered with a new challenge, which is then
    # the one that serves.
    ask = _echo_exchange()
    first = ask().option(OptionNumber.ECHO)
    wrong = bytes(byte ^ 0xFF for byte in first)
    again = ask(wrong)
    fresh = again.option(OptionNumber.ECHO)
    assert again.code == Code.UNAUTHORIZED
    assert fresh is not None and len(fresh) == 8
    assert ask(fresh).code == Code.CONTENT
