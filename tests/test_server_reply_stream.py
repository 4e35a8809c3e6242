"""The DoC server's reply stream, pinned byte for byte across commits.

A server built by the ``coap`` profile's ``server_builder``, with its
fast-path response cache on, is fed a scripted stream of datagrams on
a scripted clock: three peers, CON and NON, tokens of 0, 2, 4 and 8
bytes, a MID reused with a new token, exact duplicates, ETag
revalidation, TTL expiry, GET/POST/FETCH, an unknown Uri-Path,
malformed datagrams, and (with an OSCORE context) protected requests,
one of them replayed. The sha256 of every reply, in order and with its
destination, and the server's counters are pinned per caching scheme
and route. The digests were computed before the fast path answered in
bytes, so a change to how a reply is built has to reproduce the old
bytes exactly; a deliberate wire change re-pins them.

Three more pins were computed before the DoC server read every request
from its bytes, on the code that still decoded a miss into a message:
the same script with the cache off (capacity 0, every simulated run's
configuration, which the reader serves too); OSCORE requests whose
inner Uri-Path is not the DoC resource, answered but never stored; and
the block-wise exchanges, which the reader leaves to the message path.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.coap import CoapMessage, Code, ContentFormat, MessageType, OptionNumber
from repro.coap.blockwise import Block
from repro.coap.uri import base64url_encode
from repro.dns import Question, RecordType, RecursiveResolver, Zone, make_query
from repro.doc import CachingScheme
from repro.doc.cbor_format import encode_query
from repro.oscore import SecurityContext, protect_request
from repro.oscore.context import encode_partial_iv
from repro.oscore.option import OscoreOptionValue
from repro.oscore.protect import _external_aad
from repro.transports import get_profile

PEERS = (("fe80::1", 40001), ("fe80::2", 40002), ("fe80::3", 40003))


class _ScriptedClock:
    """A clock the script moves by hand; the server must never defer."""

    def __init__(self, seed: int) -> None:
        self.now = 0.0
        self.rng = random.Random(seed)

    def schedule(self, delay, callback, *args):
        raise AssertionError("the DoC server deferred a reply")

    schedule_at = schedule


class _Socket:
    def __init__(self) -> None:
        self.on_datagram = None
        self.sent = []

    def sendto(self, payload, dst_addr, dst_port, metadata=None):
        self.sent.append((dst_addr, dst_port, bytes(payload)))


def _zone() -> Zone:
    zone = Zone()
    zone.add_address("a.example.org", "2001:db8::1", ttl=120)
    zone.add_address("a.example.org", "192.0.2.1", ttl=120)
    zone.add_address("b.example.org", "2001:db8::2", ttl=30)
    zone.add_address("c.example.org", "2001:db8::3", ttl=300)
    return zone


def _server(scheme, secured, capacity=64):
    clock, socket = _ScriptedClock(seed=11), _Socket()
    client_context, server_context = SecurityContext.pair(
        b"reply-stream-secret", b"salt"
    )
    server = get_profile("coap").server_builder(
        clock, socket, RecursiveResolver(_zone()), scheme=scheme,
        oscore_context=server_context if secured else None,
        fastpath_capacity=capacity,
    )
    return clock, socket, server, client_context


def _query(name, rtype=RecordType.AAAA):
    return make_query(name, rtype, txid=0).encode()


def _request(code, mid, token, payload=b"", *, path="dns", cbor=False,
             non=False, etag=None, options=()):
    message = CoapMessage.request(
        code, path, mid=mid, token=token, payload=payload, confirmable=not non
    )
    if code != Code.GET:
        message = message.with_uint_option(
            OptionNumber.CONTENT_FORMAT,
            int(ContentFormat.DNS_CBOR if cbor else ContentFormat.DNS_MESSAGE),
        )
    if etag is not None:
        message = message.with_option(OptionNumber.ETAG, etag)
    for number, value in options:
        message = message.with_option(number, value)
    return message


def _fetch(name, mid, token, **kwargs):
    return _request(Code.FETCH, mid, token, _query(name), **kwargs)


def _get(name, mid, token):
    return _request(Code.GET, mid, token, options=(
        (OptionNumber.URI_QUERY,
         b"dns=" + base64url_encode(_query(name, RecordType.A)).encode()),
    ))


def _cbor_fetch(name, mid, token):
    question = Question(name, RecordType.AAAA)
    return _request(Code.FETCH, mid, token, encode_query(question), cbor=True)


#: Datagrams no decoder accepts; none of them may be answered.
MALFORMED = (
    bytes([0x49, 0x05, 0x00, 0x01]) + b"\x00" * 9,  # TKL 9
    bytes([0x42, 0x05, 0x00, 0x01, 0xAA, 0xBB, 0xB5, 0x64]),  # option value cut
    bytes([0x42, 0x05, 0x00, 0x01, 0xAA, 0xBB, 0xB3]) + b"dns" + b"\xff",
    bytes([0x42, 0x1F, 0x00, 0x01, 0xAA, 0xBB]),  # unknown code 0.31
)


def _play(scheme, secured, capacity=64):
    """Run the script; returns (socket, server)."""
    clock, socket, server, client_context = _server(scheme, secured, capacity)
    p1, p2, p3 = PEERS

    def send(peer, wire, at=None):
        if at is not None:
            clock.now = at
        socket.on_datagram(peer[0], peer[1], wire, {})

    def oscore(request):
        outer, _ = protect_request(client_context, request)
        return outer.encode()

    first = _fetch("a.example.org", 1, b"\x01\x02")
    send(p1, first.encode(), at=0.0)                          # miss
    send(p2, _fetch("a.example.org", 1, b"\x01\x02\x03\x04").encode())  # hit
    send(p1, first.encode())                                  # duplicate
    send(p3, _fetch("a.example.org", 7, b"", non=True).encode())  # NON hit
    send(p1, _request(Code.POST, 2, b"\x02" * 8, _query("a.example.org")).encode())
    send(p2, _get("a.example.org", 3, b"\x03\x03").encode())  # GET miss
    send(p2, _get("a.example.org", 4, b"\x04\x04").encode())  # GET hit
    send(p1, _cbor_fetch("b.example.org", 5, b"\x05\x05").encode())
    etag = CoapMessage.decode(socket.sent[0][2]).etag
    send(p1, _fetch("a.example.org", 6, b"\x06\x06", etag=etag).encode())  # 2.03
    send(p3, _fetch("a.example.org", 6, b"\x06\x07", etag=etag).encode())  # hit
    send(p1, _fetch("a.example.org", 1, b"\x09\x09").encode())  # MID reused
    send(p2, _fetch("a.example.org", 8, b"\x08\x08", path="nowhere").encode())
    for mid in (9, 10):  # NXDOMAIN: Max-Age 0, never stored
        send(p3, _fetch("missing.example.org", mid, b"\x09").encode())
    for mid in (11, 12):  # 4.05, never stored
        send(p1, _request(Code.PUT, mid, b"\x0b", b"x").encode())
    send(p2, _request(Code.FETCH, 13, b"\x0d", b"\x01\x02").encode())  # 4.00
    for wire in MALFORMED:
        send(p1, wire)
    # The first request's MID and token on a body that does not decode.
    send(p1, bytes([0x42, 0x1F, 0x00, 0x01, 0x01, 0x02]))

    send(p1, _fetch("a.example.org", 20, b"\x14\x14").encode(), at=25.0)
    send(p2, _fetch("a.example.org", 21, b"\x15").encode(), at=25.5)
    send(p2, _fetch("a.example.org", 21, b"\x15").encode())  # dup of a hit
    send(p3, _cbor_fetch("b.example.org", 22, b"\x16\x16").encode(), at=31.0)
    send(p1, _cbor_fetch("b.example.org", 23, b"\x17\x17").encode(), at=32.0)
    send(p2, _fetch("a.example.org", 24, b"\x18", etag=etag).encode(), at=60.0)
    send(p1, _fetch("a.example.org", 25, b"\x19\x19").encode(), at=121.0)
    send(p3, _fetch("a.example.org", 26, b"\x1a" * 4).encode(), at=122.0)
    send(p3, _fetch("a.example.org", 27, b"\x1b" * 4, etag=etag).encode())

    # The OSCORE route: the same questions, protected end to end (a
    # server without a context answers 4.04: no Uri-Path outside).
    clock.now = 130.0
    hot = oscore(_fetch("a.example.org", 40, b"\x28\x28\x28\x28"))
    send(p3, hot)                                             # hit, inner
    send(p3, hot)                                             # duplicate
    send(p2, oscore(_cbor_fetch("b.example.org", 41, b"\x29")))
    send(p2, oscore(_cbor_fetch("b.example.org", 42, b"\x2a")))
    send(p1, oscore(_fetch("c.example.org", 43, b"\x2b" * 8)))   # miss
    send(p1, _fetch("c.example.org", 44, b"\x2c").encode())   # plain: hit
    send(p1, oscore(_fetch("c.example.org", 45, b"\x2d", non=True)))
    replayed = CoapMessage.decode(hot)
    send(p1, CoapMessage(
        replayed.mtype, replayed.code, 46, b"\x2e", replayed.options,
        replayed.payload,
    ).encode())                                               # replay: 4.00
    send(p2, oscore(_fetch("a.example.org", 47, b"\x2f", etag=etag)))
    return socket, server


def _digest(socket) -> str:
    digest = hashlib.sha256()
    for addr, port, payload in socket.sent:
        digest.update(f"{addr} {port} {len(payload)} ".encode() + payload)
    return digest.hexdigest()


def _counters(server, socket) -> dict:
    stats = server.resolver.cache.stats
    return {
        "replies": len(socket.sent),
        "fastpath_hits": server.fastpath_hits,
        "fastpath_misses": server.fastpath_misses,
        "queries_handled": server.queries_handled,
        "validations_sent": server.validations_sent,
        "resolver_hits": stats.hits,
        "resolver_misses": stats.misses,
    }


#: (scheme, secured) -> (digest, counters), computed before the fast
#: path answered in bytes.
PINNED = {
    ('eol-ttls', False): (
        '0aff423a24c7ba20de06f7dff0fd7a0f82532e4b4ca3bc065e5009c83f789f88',
        dict(replies=35, fastpath_hits=10, fastpath_misses=14, queries_handled=21,
             validations_sent=4, resolver_hits=3, resolver_misses=8),
    ),
    ('eol-ttls', True): (
        '21e50468675a2d95bfbbb83d88468caab1d2d327d3368686104691754aab9882',
        dict(replies=35, fastpath_hits=15, fastpath_misses=15, queries_handled=27,
             validations_sent=5, resolver_hits=3, resolver_misses=9),
    ),
    ('doh-like', False): (
        '170ff9c15442e7c7e4fa06139625b44d4809e9e5d9be21f84b44fe560a481f42',
        dict(replies=35, fastpath_hits=10, fastpath_misses=14, queries_handled=21,
             validations_sent=3, resolver_hits=3, resolver_misses=8),
    ),
    ('doh-like', True): (
        '498f560d2dffbfa90d225a2085198a6e8433c9ad043691965514d42c71108568',
        dict(replies=35, fastpath_hits=15, fastpath_misses=15, queries_handled=27,
             validations_sent=3, resolver_hits=3, resolver_misses=9),
    ),
}


@pytest.mark.parametrize("secured", [False, True], ids=["plain", "oscore"])
@pytest.mark.parametrize(
    "scheme", [CachingScheme.EOL_TTLS, CachingScheme.DOH_LIKE],
    ids=["eol-ttls", "doh-like"],
)
def test_reply_stream_is_pinned(scheme, secured):
    socket, server = _play(scheme, secured)
    assert PINNED[(scheme.value, secured)] == (
        _digest(socket), _counters(server, socket)
    )


def _play_block_wise(capacity):
    """The block-wise exchanges: a whole FETCH, two first Block2
    requests, a Block2 continuation, a query uploaded in two Block1
    blocks, and the whole FETCH again. Returns (socket, server, the
    replies decoded, the server's (hits, misses, stored) after each
    stage)."""
    _, socket, server, _ = _server(CachingScheme.EOL_TTLS, False, capacity)
    peer = PEERS[0]
    replies, stages = [], []

    def exchange(request):
        socket.on_datagram(peer[0], peer[1], request.encode(), {})
        replies.append(CoapMessage.decode(socket.sent[-1][2]))
        return replies[-1]

    def stage():
        stored = None if server._fastpath is None else len(server._fastpath)
        stages.append((server.fastpath_hits, server.fastpath_misses, stored))

    def block2(number):
        return ((OptionNumber.BLOCK2, Block(number, False, 16).encode()),)

    exchange(_fetch("a.example.org", 1, b"\x01"))
    for mid in (2, 3):
        exchange(_fetch("a.example.org", mid, b"\x02", options=block2(0)))
    stage()
    exchange(_fetch("a.example.org", 4, b"\x02", options=block2(1)))
    stage()
    query = _query("a.example.org")
    for number, mid in ((0, 5), (1, 6)):
        exchange(_request(
            Code.FETCH, mid, b"\x05", query[16 * number:16 * (number + 1)],
            options=((OptionNumber.BLOCK1, Block(number, number == 0, 16).encode()),),
        ))
    stage()
    exchange(_fetch("a.example.org", 7, b"\x07"))
    stage()
    return socket, server, replies, stages


#: capacity -> digest of the block-wise exchanges' replies, computed
#: before the DoC server read requests in bytes.
BLOCK_WISE_PINNED = {
    64: '8ab6c4940da006d7634b14179086cc707f1810af780a6f53917425447b2bcc4f',
    0: '8ab6c4940da006d7634b14179086cc707f1810af780a6f53917425447b2bcc4f',
}


def _check_block_wise(capacity):
    socket, _, replies, stages = _play_block_wise(capacity)
    whole, first, second, continuation, _, uploaded, again = replies
    for reply in (first, second):
        assert reply.code == Code.CONTENT
        assert Block.decode(reply.option(OptionNumber.BLOCK2)) == Block(0, True, 16)
        assert reply.payload == whole.payload[:16]
    assert Block.decode(continuation.option(OptionNumber.BLOCK2)).number == 1
    assert continuation.payload == whole.payload[16:32]
    # A query uploaded in two Block1 blocks is answered whole.
    assert uploaded.code == Code.CONTENT and uploaded.payload == whole.payload
    assert again.payload == whole.payload
    assert _digest(socket) == BLOCK_WISE_PINNED[capacity]
    return stages


def test_block_wise_requests_bypass_the_fast_path():
    """A request carrying Block2 or Block1 is resolved (and sliced) as
    before and counted as a miss, but neither stored nor replayed: the
    continuation comes from the block-wise store (no fast-path event),
    the Block1 upload is a miss, and the whole request still hits its
    own entry."""
    assert _check_block_wise(64) == [(0, 3, 1), (0, 3, 1), (0, 4, 1), (1, 4, 1)]


def test_block_wise_exchanges_without_the_cache_are_pinned():
    assert _check_block_wise(0) == [(0, 0, None)] * 4


#: (scheme, secured) -> (digest, counters) of the script played with
#: the cache off, the configuration of every simulated run; computed
#: before the DoC server read requests in bytes.
PINNED_NO_CACHE = {
    ('eol-ttls', False): (
        'b8de384c11cb93ca82f91f77605e78d59115aa1e66469f1393110e25e5c32924',
        dict(replies=35, fastpath_hits=0, fastpath_misses=0, queries_handled=21,
             validations_sent=4, resolver_hits=13, resolver_misses=8),
    ),
    ('eol-ttls', True): (
        '6b4f41e101f0c28fe04fa5bd276555efb8e834396c4e6a7459e6ab3bcdce093f',
        dict(replies=35, fastpath_hits=0, fastpath_misses=0, queries_handled=27,
             validations_sent=5, resolver_hits=18, resolver_misses=9),
    ),
    ('doh-like', False): (
        'd48320dd327233e06679170fcb740bad4eb49e4dbf331fd61d6c523b1fb1720a',
        dict(replies=35, fastpath_hits=0, fastpath_misses=0, queries_handled=21,
             validations_sent=2, resolver_hits=13, resolver_misses=8),
    ),
    ('doh-like', True): (
        'ba19bc818bc2086bb0f02bb43b0a9ac680b1854164fbccadbe4f9612d3eb577c',
        dict(replies=35, fastpath_hits=0, fastpath_misses=0, queries_handled=27,
             validations_sent=2, resolver_hits=18, resolver_misses=9),
    ),
}


@pytest.mark.parametrize("secured", [False, True], ids=["plain", "oscore"])
@pytest.mark.parametrize(
    "scheme", [CachingScheme.EOL_TTLS, CachingScheme.DOH_LIKE],
    ids=["eol-ttls", "doh-like"],
)
def test_reply_stream_without_the_cache_is_pinned(scheme, secured):
    socket, server = _play(scheme, secured, capacity=0)
    assert PINNED_NO_CACHE[(scheme.value, secured)] == (
        _digest(socket), _counters(server, socket)
    )


def _play_other_path(capacity):
    """OSCORE requests whose inner Uri-Path is not the DoC resource:
    each is answered (resolved, refused 4.05 or 4.00), none stored."""
    clock, socket, server, client_context = _server(
        CachingScheme.EOL_TTLS, True, capacity
    )
    p1, p2, _ = PEERS

    def send(peer, request):
        outer, _ = protect_request(client_context, request)
        socket.on_datagram(peer[0], peer[1], outer.encode(), {})

    send(p1, _fetch("a.example.org", 1, b"\x01", path="other"))   # miss
    send(p2, _fetch("a.example.org", 2, b"\x02", path="other"))   # miss again
    send(p1, _fetch("a.example.org", 3, b"\x03"))                 # /dns: stored
    send(p2, _fetch("a.example.org", 4, b"\x04"))                 # /dns: hit
    clock.now = 5.0
    send(p1, _fetch("a.example.org", 5, b"\x05", path="other/dns"))
    send(p2, _fetch("a.example.org", 6, b"\x06", path="other", non=True))
    send(p1, _request(Code.PUT, 7, b"\x07", b"x", path="other"))   # 4.05
    send(p2, _request(Code.GET, 8, b"\x08", path="other"))         # 4.00
    send(p1, _request(Code.FETCH, 9, b"\x09", b"\x01", path=""))  # 4.00
    # A plain request for another path goes to the OSCORE route: 4.00.
    socket.on_datagram(
        p1[0], p1[1], _fetch("a.example.org", 10, b"\x0a", path="other").encode(), {}
    )
    return socket, server


#: capacity -> (digest, counters), computed before the DoC server read
#: requests in bytes.
OTHER_PATH_PINNED = {
    64: (
        '5e62f22cd8f3ce22ba250af0367ad887f0eca689f3bf634048708000cb04cc29',
        dict(replies=10, fastpath_hits=1, fastpath_misses=8, queries_handled=6,
             validations_sent=0, resolver_hits=4, resolver_misses=1),
    ),
    0: (
        '5e62f22cd8f3ce22ba250af0367ad887f0eca689f3bf634048708000cb04cc29',
        dict(replies=10, fastpath_hits=0, fastpath_misses=0, queries_handled=6,
             validations_sent=0, resolver_hits=5, resolver_misses=1),
    ),
}


@pytest.mark.parametrize("capacity", [64, 0], ids=["cache", "no-cache"])
def test_oscore_request_for_another_path_is_answered_not_stored(capacity):
    socket, server = _play_other_path(capacity)
    if capacity:
        assert len(server._fastpath) == 1  # the /dns reply only
    assert OTHER_PATH_PINNED[capacity] == (
        _digest(socket), _counters(server, socket)
    )


@pytest.mark.parametrize("capacity", [64, 0], ids=["cache", "no-cache"])
@pytest.mark.parametrize(
    "number", [OptionNumber.BLOCK1, OptionNumber.BLOCK2], ids=["block1", "block2"]
)
@pytest.mark.parametrize("value,code", [
    (b"\x07", Code.BAD_REQUEST),                # SZX 7 (RFC 7959 §2.2)
    (b"\x02\x07", Code.BAD_REQUEST),
    (b"\x00\x00\x00\x07", Code.BAD_OPTION),     # 4 bytes (RFC 7252 §5.4.3)
], ids=["szx7", "szx7-2-bytes", "4-bytes"])
def test_a_malformed_block_option_is_refused(capacity, number, value, code):
    """Refused piggybacked, and the refusal replayed to the
    retransmission; it used to raise ``BlockError`` out of the datagram
    handler."""
    _, socket, server, _ = _server(CachingScheme.EOL_TTLS, False, capacity)
    wire = _fetch("a.example.org", 1, b"\x01\x02", options=((number, value),)).encode()
    for _ in range(2):  # the request and its retransmission
        socket.on_datagram(PEERS[0][0], PEERS[0][1], wire, {})
    assert [payload for _, _, payload in socket.sent] == [
        CoapMessage(MessageType.ACK, code, 1, b"\x01\x02").encode()
    ] * 2
    assert (server.queries_handled, server.fastpath_hits, server.fastpath_misses) == (0, 0, 0)


@pytest.mark.parametrize("capacity", [64, 0], ids=["cache", "no-cache"])
def test_an_oscore_plaintext_with_a_malformed_option_is_refused(capacity):
    """An authenticated request whose inner options do not parse gets
    4.00 like any plaintext that is no request; it used to raise
    ``OptionError`` out of the datagram handler."""
    _, socket, server, context = _server(CachingScheme.EOL_TTLS, True, capacity)
    partial_iv = encode_partial_iv(context.next_sequence())
    plaintext = bytes((Code.FETCH, 0xB5, 0x64))  # a 5-byte Uri-Path, 1 byte there
    ciphertext = context.sender_aead().encrypt(
        context.nonce(context.sender_id, partial_iv), plaintext,
        _external_aad(context.sender_id, partial_iv),
    )
    option = OscoreOptionValue(partial_iv=partial_iv, kid=context.sender_id)
    outer = CoapMessage(
        MessageType.CON, Code.POST, 7, b"\x07",
        ((OptionNumber.OSCORE, option.encode()),), ciphertext,
    )
    socket.on_datagram(PEERS[0][0], PEERS[0][1], outer.encode(), {})
    assert [payload for _, _, payload in socket.sent] == [
        CoapMessage(MessageType.ACK, Code.BAD_REQUEST, 7, b"\x07").encode()
    ]
    assert server.queries_handled == 0
