"""What the answered CoAP exchange path must keep while it gets cheaper.

* Byte identity: the request :class:`DocClient` sends and every reply
  :class:`CoapServer` sends equal what the ``with_option`` /
  ``dataclasses.replace`` copy chains build, encoded by an independent
  reference encoder; :class:`DocServer`'s replies equal a chain the test
  builds itself over a payload from the reference DNS encoder, written
  with no ``CoapMessage`` built. A reference option decoder, RFC 7252 §3.1
  written out plainly, holds ``decode_options`` to the same bytes.
* Deduplication and block-wise state live exactly
  :data:`EXCHANGE_LIFETIME` and cost no clock event.
* The live backstop deadline: one handle, same exception, same counter.
"""

from __future__ import annotations

import asyncio
import hashlib
import ipaddress
import json
import os
import socket
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import golden_codec
import rfc1035_reference
from repro.coap import CoapMessage, Code, ContentFormat, MessageType, OptionNumber
from repro.coap.blockwise import Block, block_for
from repro.coap.endpoint import EXCHANGE_LIFETIME, CoapServer
from repro.coap.options import OptionError, decode_options
from repro.coap.uri import base64url_encode
from repro.dns import Flags, Message, Question, RecordType, RecursiveResolver, Zone
from repro.doc import DocClient, DocServer
from repro.live import DocLiveServer, LiveResolver
from repro.oscore import SecurityContext, protect_request
from repro.sim import Simulator

with open(
    os.path.join(os.path.dirname(__file__), "golden_codec_vectors.json"),
    encoding="utf-8",
) as _handle:
    GOLDEN = {vector["name"]: vector for vector in json.load(_handle)["vectors"]}

CLIENT = ("fe80::c", 40000)
SERVER = ("fe80::5", 5683)


class _End:
    """One end of an in-memory datagram pipe on a Simulator."""

    def __init__(self, sim, address):
        self.sim = sim
        self.address = address
        self.peer = None
        self.on_datagram = None
        self.sent = []

    def sendto(self, payload, dst_addr, dst_port, metadata=None):
        self.sent.append(bytes(payload))
        if self.peer.on_datagram is not None:  # else: nobody listens there
            self.sim.schedule(0.001, self.peer.deliver, bytes(payload))

    def deliver(self, payload):
        self.on_datagram(self.peer.address[0], self.peer.address[1], payload, {})


def _pipe(sim):
    client, server = _End(sim, CLIENT), _End(sim, SERVER)
    client.peer, server.peer = server, client
    return client, server


def _nibble(value):
    if value < 13:
        return value, b""
    if value < 269:
        return 13, bytes([value - 13])
    return 14, (value - 269).to_bytes(2, "big")


def _reference_encode(message: CoapMessage) -> bytes:
    """RFC 7252 §3 written out plainly: the oracle's encoder."""
    out = bytes([
        (1 << 6) | (int(message.mtype) << 4) | len(message.token),
        int(message.code), message.mid >> 8, message.mid & 0xFF,
    ]) + message.token
    previous = 0
    for number, value in sorted(message.options, key=lambda item: item[0]):
        delta, delta_ext = _nibble(number - previous)
        length, length_ext = _nibble(len(value))
        out += bytes([(delta << 4) | length]) + delta_ext + length_ext + value
        previous = number
    if message.payload:
        out += b"\xff" + message.payload
    return out


def _reference_decode(data: bytes, offset: int = 0):
    """RFC 7252 §3.1 read plainly: the oracle's option decoder.

    Returns the options from *offset* on and the offset of the payload
    (past the 0xFF marker, or the end); raises ``OptionError`` where the
    bytes end inside an option, a nibble is the reserved 15, or the
    marker has no payload behind it.
    """
    options, number = [], 0
    while offset < len(data):
        if data[offset] == 0xFF:
            if offset + 1 == len(data):
                raise OptionError("payload marker with empty payload")
            return options, offset + 1
        fields = [data[offset] >> 4, data[offset] & 0x0F]
        offset += 1
        for index, nibble in enumerate(fields):
            if nibble == 15:
                raise OptionError("reserved nibble")
            width, base = {13: (1, 13), 14: (2, 269)}.get(nibble, (0, nibble))
            if offset + width > len(data):
                raise OptionError("extension cut short")
            fields[index] = base + int.from_bytes(data[offset:offset + width], "big")
            offset += width
        delta, length = fields
        if offset + length > len(data):
            raise OptionError("value cut short")
        number += delta
        options.append((number, data[offset:offset + length]))
        offset += length
    return options, offset


def _decoded(decode, data):
    """What *decode* makes of *data*: (options, payload offset), or
    ``OptionError``."""
    try:
        options, at = decode(data, 0)
    except OptionError:
        return OptionError
    return [tuple(option) for option in options], at


@pytest.mark.parametrize("name", sorted(
    name for name, vector in GOLDEN.items() if vector["codec"] == "coap"
))
def test_reference_decoder_reads_the_golden_vectors(name):
    wire = bytes.fromhex(GOLDEN[name]["wire_hex"])
    built = golden_codec.BUILDERS[name]()
    start = 4 + (wire[0] & 0x0F)
    options, at = _reference_decode(wire, start)
    assert options == sorted(built.options, key=lambda item: item[0])
    assert wire[at:] == built.payload
    assert (options, at) == tuple(decode_options(wire, start))


@settings(max_examples=150, deadline=None)
@given(
    options=st.lists(st.tuples(
        # deltas and lengths in the plain, 13 and 14 forms
        st.one_of(st.integers(0, 12), st.integers(13, 268), st.integers(269, 1400)),
        st.one_of(st.binary(max_size=12), st.binary(min_size=13, max_size=268),
                  st.binary(min_size=269, max_size=300)),
    ), max_size=5),
    payload=st.binary(max_size=3),
)
def test_reference_decoder_agrees_with_decode_options(options, payload):
    """Both decoders read an encoding back, and every truncation of it
    alike: one that ends inside an option, or on a bare payload marker,
    raises ``OptionError`` in both."""
    numbers = []
    for delta, _ in options:
        numbers.append((numbers[-1] if numbers else 0) + delta)
    options = [(number, value) for number, (_, value) in zip(numbers, options)]
    message = CoapMessage(options=tuple(options), payload=payload)
    wire = _reference_encode(message)[4:]
    assert _decoded(_reference_decode, wire) == (options, len(wire) - len(payload))
    # Where each option ends; the payload marker follows the last.
    ends = [
        len(_reference_encode(CoapMessage(options=tuple(options[:k])))) - 4
        for k in range(len(options) + 1)
    ]
    for cut in range(len(wire)):
        outcome = _decoded(_reference_decode, wire[:cut])
        assert outcome == _decoded(decode_options, wire[:cut])
        cut_short = cut not in ends if cut <= ends[-1] else cut == ends[-1] + 1
        assert (outcome is OptionError) == cut_short


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=40))
def test_reference_decoder_agrees_on_arbitrary_bytes(data):
    """Reserved nibbles, markers and extensions in any order."""
    assert _decoded(_reference_decode, data) == _decoded(decode_options, data)


# -- (a) byte identity -------------------------------------------------------


def _chain_request(client: DocClient, question, mid, token, oscore_context):
    """The first datagram of a resolution, built the parent's way."""
    wire = client._encode_query(question)
    if client.method == Code.GET:
        segments, queries = client.template.split_expanded(
            dns=base64url_encode(wire)
        )
        message = CoapMessage.request(Code.GET)
        for segment in segments:
            message = message.with_option(OptionNumber.URI_PATH, segment.encode())
        for item in queries:
            message = message.with_option(OptionNumber.URI_QUERY, item.encode())
    else:
        message = CoapMessage.request(client.method, payload=wire)
        message = message.with_option(OptionNumber.URI_PATH, b"dns")
        message = message.with_uint_option(
            OptionNumber.CONTENT_FORMAT, int(client.content_format)
        )
        message = message.with_uint_option(
            OptionNumber.ACCEPT, int(client.content_format)
        )
    if oscore_context is not None:
        message, _ = protect_request(oscore_context, message)
    message = replace(message, token=token, mid=mid)
    block_size = client.coap.block_size
    if block_size is not None:
        message = message.with_option(
            OptionNumber.BLOCK2, Block(0, False, block_size).encode()
        )
        if len(message.payload) > block_size:
            block, chunk = block_for(message.payload, 0, block_size)
            message = replace(
                message, payload=chunk, mid=(mid + 1) & 0xFFFF
            ).without_option(OptionNumber.BLOCK1).with_option(
                OptionNumber.BLOCK1, block.encode()
            )
    return message


def _chain_reply(request: CoapMessage, response: CoapMessage) -> CoapMessage:
    mtype = (
        MessageType.ACK if request.mtype == MessageType.CON else MessageType.NON
    )
    return replace(response, mtype=mtype, mid=request.mid, token=request.token)


def _spy_on_replies(coap_server: CoapServer):
    """Record the (request, response) pairs handed to ``_reply``."""
    seen = []
    original = coap_server._reply

    def spy(request, src_addr, src_port, response, dedup_key, metadata):
        seen.append((request, response))
        original(request, src_addr, src_port, response, dedup_key, metadata)

    coap_server._reply = spy
    return seen


_LABEL = st.text("abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=12)
_MATRIX = [
    (method, content_format, block_size, secured)
    for method in (Code.FETCH, Code.POST, Code.GET)
    for content_format in (ContentFormat.DNS_MESSAGE, ContentFormat.DNS_CBOR)
    for block_size in (None, 32)
    for secured in (False, True)
    if not (method == Code.GET and secured)  # DocClient refuses GET + OSCORE
]


@pytest.mark.parametrize("method,content_format,block_size,secured", _MATRIX)
@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    labels=st.lists(_LABEL, min_size=1, max_size=3),
    mid=st.integers(0, 0xFFFF),
    token=st.integers(0, 0xFFFFFFFF),
)
def test_wire_bytes_equal_the_copy_chain(
    method, content_format, block_size, secured, labels, mid, token
):
    name = ".".join(labels) + ".example.org"
    sim = Simulator(seed=5)
    client_end, server_end = _pipe(sim)
    zone = Zone()
    zone.add_address(name, "2001:db8::1", ttl=120)
    client_context = server_context = oracle_context = None
    if secured:
        client_context, server_context = SecurityContext.pair(b"s" * 16, b"salt")
        oracle_context, _ = SecurityContext.pair(b"s" * 16, b"salt")
    server = DocServer(
        sim, server_end, RecursiveResolver(zone), oscore_context=server_context
    )
    client = DocClient(
        sim, client_end, SERVER, method=method, content_format=content_format,
        block_size=block_size, oscore_context=client_context,
    )
    client.coap._next_mid, client.coap._next_token = mid, token
    replies = _spy_on_replies(server.coap)
    outcomes = []
    question = Question(name, RecordType.AAAA)

    client.resolve(name, RecordType.AAAA, lambda r, e: outcomes.append((r, e)))
    sim.run(until=30)

    expected = _chain_request(
        client, question, mid, token.to_bytes(4, "big"), oracle_context
    )
    assert client_end.sent[0] == _reference_encode(expected)
    # A plain request in one piece is answered by the request reader,
    # in bytes; its reply is the chain around the payload it carries:
    # the ETag over it, the query's Content-Format and Max-Age.
    assert (not replies) == (block_size is None and not secured)
    if not replies:
        request = CoapMessage.decode(client_end.sent[0])
        payload = CoapMessage.decode(server_end.sent[0]).payload
        if method == Code.GET and content_format == ContentFormat.DNS_CBOR:
            response = request.make_response(Code.BAD_REQUEST)
        else:
            response = (
                request.make_response(Code.CONTENT, payload=payload)
                .with_option(OptionNumber.ETAG, hashlib.sha256(payload).digest()[:8])
                .with_uint_option(OptionNumber.CONTENT_FORMAT, content_format)
                .with_uint_option(OptionNumber.MAX_AGE, 120)
            )
        replies.append((request, response))
    assert server_end.sent == [
        _reference_encode(_chain_reply(request, response))
        for request, response in replies
    ]
    assert len(outcomes) == 1
    if not (method == Code.GET and content_format == ContentFormat.DNS_CBOR):
        # (the server reads a GET's dns variable as a DNS message only)
        result, error = outcomes[0]
        assert error is None and result.addresses == ["2001:db8::1"]


def _doc_pair(sim, names=("a.example.org",)):
    client_end, server_end = _pipe(sim)
    zone = Zone()
    for name in names:
        zone.add_address(name, "2001:db8::1", ttl=120)
    server = DocServer(
        sim, server_end, RecursiveResolver(zone), fastpath_capacity=8
    )
    return DocClient(sim, client_end, SERVER), server, server_end


def _doc_request(mid, etag=None):
    query = rfc1035_reference.encode_message({
        "id": 0, "flags": 0x0100,
        "questions": [("a.example.org", 28, 1)],
    })
    request = CoapMessage.request(
        Code.FETCH, "/dns", mid=mid, token=bytes([mid]), payload=query
    ).with_uint_option(OptionNumber.CONTENT_FORMAT, ContentFormat.DNS_MESSAGE)
    if etag is not None:
        request = request.with_option(OptionNumber.ETAG, etag)
    return request


def _chain_doc_reply(request, max_age, valid=False):
    """What the parent's copy chain makes of the answer to *request*:
    TTLs rewritten to 0 (EOL TTLs), the ETag over that payload."""
    payload = rfc1035_reference.encode_message({
        "id": 0, "flags": 0x8180,
        "questions": [("a.example.org", 28, 1)],
        "answers": [(
            "a.example.org", 28, 1, 0,
            [ipaddress.IPv6Address("2001:db8::1").packed],
        )],
    })
    etag = hashlib.sha256(payload).digest()[:8]
    if valid:
        return (
            request.make_response(Code.VALID)
            .with_option(OptionNumber.ETAG, etag)
            .with_uint_option(OptionNumber.MAX_AGE, max_age)
        )
    return (
        request.make_response(Code.CONTENT, payload=payload)
        .with_uint_option(OptionNumber.CONTENT_FORMAT, ContentFormat.DNS_MESSAGE)
        .with_option(OptionNumber.ETAG, etag)
        .with_uint_option(OptionNumber.MAX_AGE, max_age)
    )


def test_doc_replies_equal_a_chain_the_server_did_not_build():
    sim = Simulator(seed=5)
    _, server, end = _doc_pair(sim)
    etag = _chain_doc_reply(_doc_request(0), 120).etag
    exchanges = [  # (at, request, the reply the parent's chain builds)
        (0.0, _doc_request(1), dict(max_age=120)),  # miss
        (7.0, _doc_request(2), dict(max_age=113)),  # fast-path hit, aged
        (7.0, _doc_request(3, etag), dict(max_age=113, valid=True)),
        (9.0, _doc_request(4, etag), dict(max_age=111, valid=True)),  # hit
        (9.0, _doc_request(5), dict(max_age=111)),
    ]
    for at, request, reply in exchanges:
        sim.run(until=at)
        end.deliver(_reference_encode(request))
        assert end.sent[-1] == _reference_encode(
            _chain_doc_reply(request, **reply)
        )
    assert len(end.sent) == len(exchanges)
    assert (server.fastpath_misses, server.fastpath_hits) == (2, 3)
    assert server.validations_sent == 2
    # ... and in wire order as built: the encoder has nothing to sort.
    for wire in end.sent:
        numbers = [number for number, _ in CoapMessage.decode(wire).options]
        assert numbers in ([4, 12, 14], [4, 14])


def _count_built(monkeypatch, cls):
    """Count ``cls(...)`` calls from here on; the count is ``[0]``."""
    built = [0]
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return built


def test_a_doc_query_builds_each_message_once(monkeypatch):
    sim = Simulator(seed=5)
    # Names no other test resolves: ``Message.decode`` memoises by wire.
    warm_up, name = "warm-up.example.org", "built-once.example.org"
    client, server, server_end = _doc_pair(sim, names=(warm_up, name))
    outcomes = []

    def resolve(name, then=1.0):
        client.resolve(name, RecordType.AAAA, lambda r, e: outcomes.append(e))
        sim.run(until=sim.now + then)

    resolve(warm_up)  # the decoder's flag words are memoised now
    coap_built = _count_built(monkeypatch, CoapMessage)
    flags_built = _count_built(monkeypatch, Flags)
    dns_built = _count_built(monkeypatch, Message)
    on_server = []
    on_datagram = server_end.on_datagram

    def counting_on_datagram(*args):
        before = coap_built[0]
        on_datagram(*args)
        on_server.append(coap_built[0] - before)

    server_end.on_datagram = counting_on_datagram
    resolve(name, then=0.5)  # a miss at the fast path and the resolver
    # The query's decoding, the answer, its decoding and the TTL restore
    # (the query is written in bytes, and the server's TTL rewrite
    # happens while encoding).
    assert dns_built[0] == 4
    assert on_server == [0]  # the server reads and answers a miss in bytes
    resolve(name, then=0.3)  # a fast-path hit, Max-Age one second down
    assert on_server == [0, 0]
    # ... whose new body the client's reply memo does not hold yet: it
    # decodes the reply and restores the TTLs, as it did the miss's.
    assert (coap_built[0], dns_built[0]) == (2, 5)
    resolve(name)  # the same reply body again: read through the memo
    assert on_server == [0, 0, 0]
    assert (coap_built[0], dns_built[0]) == (2, 5)  # nothing built anywhere
    assert client.coap._replies  # the memo that answered it
    assert flags_built[0] == 0
    assert outcomes == [None, None, None, None]


_OPTIONS = st.lists(
    st.tuples(
        st.sampled_from([4, 11, 12, 14, 17, 23, 60, 300]),
        st.binary(max_size=14),
    ),
    max_size=5,
).map(tuple)


@settings(max_examples=60, deadline=None)
@given(
    confirmable=st.booleans(),
    piggybacked=st.booleans(),
    mid=st.integers(0, 0xFFFF),
    token=st.binary(max_size=8),
    options=_OPTIONS,
    payload=st.binary(max_size=20),
)
def test_reply_bytes_whether_or_not_the_handler_set_the_header(
    confirmable, piggybacked, mid, token, options, payload
):
    """``_reply`` skips its copy for a ``make_response`` reply and makes
    it for any other; both put the request's type, MID and token on the
    wire, with unsorted options sorted stably."""
    sim = Simulator(seed=6)
    _, server_end = _pipe(sim)
    server = CoapServer(sim, server_end)

    def handler(request, respond, metadata):
        if piggybacked:
            base = request.make_response(Code.CONTENT, payload=payload)
        else:
            base = CoapMessage(code=Code.CONTENT, mid=0x1234, payload=payload)
        respond(replace(base, options=options))

    server.add_resource("/r", handler)
    request = CoapMessage.request(
        Code.FETCH, "/r", mid=mid, token=token, confirmable=confirmable
    )
    server_end.deliver(request.encode())
    expected = CoapMessage(
        MessageType.ACK if confirmable else MessageType.NON,
        Code.CONTENT, mid, token, options, payload,
    )
    assert server_end.sent == [_reference_encode(expected)]
    assert CoapMessage.decode(server_end.sent[0]).options == tuple(
        sorted(options, key=lambda item: item[0])
    )


# -- (b) deduplication and block-wise state ----------------------------------


def _counting_server(sim, payload=b"x"):
    _, server_end = _pipe(sim)
    server = CoapServer(sim, server_end)
    calls = []

    def handler(request, respond, metadata):
        calls.append(request)
        respond(request.make_response(Code.CONTENT, payload=payload))

    server.add_resource("/r", handler)
    return server, server_end, calls


def test_duplicate_inside_the_lifetime_gets_the_cached_bytes():
    sim = Simulator(seed=7)
    server, end, calls = _counting_server(sim)
    wire = CoapMessage.request(Code.FETCH, "/r", mid=7, token=b"\x01").encode()
    end.deliver(wire)
    sim.run(until=EXCHANGE_LIFETIME - 0.001)
    end.deliver(wire)
    assert len(calls) == 1
    assert len(end.sent) == 2 and end.sent[0] == end.sent[1]


def test_same_peer_mid_and_token_after_the_lifetime_is_a_new_exchange():
    sim = Simulator(seed=7)
    server, end, calls = _counting_server(sim)
    wire = CoapMessage.request(Code.FETCH, "/r", mid=7, token=b"\x01").encode()
    end.deliver(wire)
    sim.run(until=EXCHANGE_LIFETIME)
    end.deliver(wire)
    assert len(calls) == 2
    assert len(server._dedup) == 1  # the expired entry made way for the new one


def test_dedup_is_keyed_by_peer_mid_and_token():
    sim = Simulator(seed=7)
    server, end, calls = _counting_server(sim)
    for mid, token in ((7, b"\x01"), (8, b"\x01"), (7, b"\x02")):
        end.deliver(
            CoapMessage.request(Code.FETCH, "/r", mid=mid, token=token).encode()
        )
    assert len(calls) == 3
    end.peer.address = ("fe80::d", 40000)
    end.deliver(CoapMessage.request(Code.FETCH, "/r", mid=7, token=b"\x01").encode())
    assert len(calls) == 4


def test_expired_replies_are_dropped_when_the_next_one_is_stored():
    sim = Simulator(seed=7)
    server, end, _ = _counting_server(sim)
    for mid in range(50):
        end.deliver(CoapMessage.request(Code.FETCH, "/r", mid=mid).encode())
        sim.run(until=sim.now + 1.0)
    assert len(server._dedup) == 50
    sim.run(until=20.0 + EXCHANGE_LIFETIME)  # replies 0..20 are past their time
    end.deliver(CoapMessage.request(Code.FETCH, "/r", mid=1000).encode())
    assert len(server._dedup) == 50 - 21 + 1
    expiries = [expires_at for expires_at, _ in server._dedup.values()]
    assert expiries == sorted(expiries) and expiries[0] > sim.now


def test_a_reply_schedules_no_clock_event():
    sim = Simulator(seed=7)
    scheduled = []
    schedule = sim.schedule  # schedule_at delegates to it

    def spy(delay, callback, *args):
        scheduled.append(callback)
        return schedule(delay, callback, *args)

    sim.schedule = spy
    server, end, _ = _counting_server(sim)
    before = len(scheduled)
    for mid in range(20):
        end.deliver(CoapMessage.request(Code.FETCH, "/r", mid=mid).encode())
    assert len(end.sent) == 20
    assert len(scheduled) == before


def _block1_piece(number, more, token):
    return CoapMessage.request(
        Code.FETCH, "/r", mid=100 + number, token=token, payload=b"a" * 16
    ).with_option(OptionNumber.BLOCK1, Block(number, more, 16).encode())


def test_abandoned_block1_upload_is_dropped_after_the_lifetime():
    sim = Simulator(seed=8)
    server, end, calls = _counting_server(sim)
    end.deliver(_block1_piece(0, True, b"\x0a").encode())
    assert len(server._block1_assembly) == 1
    sim.run(until=EXCHANGE_LIFETIME)
    # The next upload takes its place in the table ...
    end.deliver(_block1_piece(0, True, b"\x0b").encode())
    assert [key[0] for key in server._block1_assembly] == ["0b"]
    # ... and its own continuation finds nothing to continue.
    end.deliver(_block1_piece(1, False, b"\x0a").encode())
    assert CoapMessage.decode(end.sent[-1]).code == Code.REQUEST_ENTITY_INCOMPLETE
    assert not calls


def test_block1_upload_inside_the_lifetime_completes():
    sim = Simulator(seed=8)
    server, end, calls = _counting_server(sim)
    end.deliver(_block1_piece(0, True, b"\x0a").encode())
    sim.run(until=EXCHANGE_LIFETIME - 1)
    end.deliver(_block1_piece(1, False, b"\x0a").encode())
    assert [request.payload for request in calls] == [b"a" * 32]
    assert not server._block1_assembly


def _block2_request(number, token, mid):
    return CoapMessage.request(
        Code.FETCH, "/r", mid=mid, token=token
    ).with_option(OptionNumber.BLOCK2, Block(number, False, 16).encode())


def test_block2_continuation_inside_the_lifetime_is_served():
    sim = Simulator(seed=9)
    server, end, _ = _counting_server(sim, payload=bytes(range(40)))
    end.deliver(_block2_request(0, b"\x0a", 1).encode())
    sim.run(until=EXCHANGE_LIFETIME - 1)
    end.deliver(_block2_request(1, b"\x0a", 2).encode())
    piece = CoapMessage.decode(end.sent[-1])
    assert piece.code == Code.CONTENT and piece.payload == bytes(range(16, 32))


def test_unfetched_block2_body_is_dropped_after_the_lifetime():
    sim = Simulator(seed=9)
    server, end, _ = _counting_server(sim, payload=bytes(range(40)))
    end.deliver(_block2_request(0, b"\x0a", 1).encode())
    assert len(server._block2_store) == 1
    sim.run(until=EXCHANGE_LIFETIME)
    end.deliver(_block2_request(0, b"\x0b", 3).encode())
    assert [key[2] for key in server._block2_store] == [b"\x0b"]
    end.deliver(_block2_request(1, b"\x0a", 2).encode())
    assert CoapMessage.decode(end.sent[-1]).code == Code.REQUEST_ENTITY_INCOMPLETE


def test_respond_called_twice_still_raises():
    sim = Simulator(seed=9)
    _, end = _pipe(sim)
    server = CoapServer(sim, end)

    def handler(request, respond, metadata):
        respond(request.make_response(Code.CONTENT))
        with pytest.raises(RuntimeError):
            respond(request.make_response(Code.CONTENT))

    server.add_resource("/r", handler)
    end.deliver(CoapMessage.request(Code.FETCH, "/r", mid=1).encode())
    assert len(end.sent) == 1


# -- the live path: timers, timeline, backstop -------------------------------


class _CountingClock:
    """A Clock that hands every timer it arms to the test."""

    def __init__(self, inner):
        self.inner = inner
        self.rng = inner.rng
        self.timers = []

    @property
    def now(self):
        return self.inner.now

    def schedule(self, delay, callback, *args):
        timer = self.inner.schedule(delay, callback, *args)
        self.timers.append(timer)
        return timer

    def schedule_at(self, time, callback, *args):
        return self.schedule(time - self.now, callback, *args)


def _run(coro):
    async def bounded():
        return await asyncio.wait_for(coro, timeout=30.0)

    return asyncio.run(bounded())


def _armed_timers(loop) -> int:
    """Live timer handles on *loop*, not counting ``_run``'s own deadline."""
    return sum(not handle.cancelled() for handle in loop._scheduled) - 1


def test_an_answered_live_query_arms_one_clock_timer_and_keeps_no_record():
    queries = 2000

    async def body():
        server = DocLiveServer(transport="coap", port=0, num_names=8)
        server.clock = _CountingClock(server.clock)
        async with server:
            resolver = LiveResolver(server.endpoint, transport="coap", timeout=5.0)
            resolver.clock = _CountingClock(resolver.clock)
            async with resolver:
                for index in range(queries):
                    await resolver.resolve(server.names[index % 8])
                coap = resolver._client.coap
                assert coap.events is None
                assert not coap._exchanges
                # The retransmission timer, cancelled on the answer ...
                assert len(resolver.clock.timers) == queries
                assert all(timer.cancelled() for timer in resolver.clock.timers)
                # ... and nothing per reply on the server, nor a deadline
                # left behind on the loop.
                assert server.clock.timers == []
                assert _armed_timers(asyncio.get_running_loop()) == 0
                assert resolver.timeouts == 0

    _run(body())


@pytest.mark.parametrize("transport,method", [
    ("coap", Code.FETCH), ("coap", Code.GET), ("udp", Code.FETCH),
], ids=["coap-body-request", "coap-message-request", "udp"])
def test_closing_a_resolver_disarms_its_retransmission_timers(transport, method):
    """Queries in flight when the resolver closes leave no timer armed,
    whichever kind of exchange carries them."""
    silent = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    silent.bind(("127.0.0.1", 0))  # a server that never answers

    async def body():
        resolver = LiveResolver(
            silent.getsockname(), transport=transport, method=method,
            timeout=5.0,
        )
        resolver.clock = _CountingClock(resolver.clock)
        await resolver.connect()
        queries = [
            asyncio.ensure_future(resolver.resolve(f"n{index}.example.org"))
            for index in range(3)
        ]
        await asyncio.sleep(0.05)  # every query sent, its timer armed
        timers = resolver.clock.timers
        assert len(timers) == 3 and not any(t.cancelled() for t in timers)
        await resolver.close()
        assert all(timer.cancelled() for timer in timers)
        for query in queries:
            query.cancel()
        await asyncio.gather(*queries, return_exceptions=True)
        assert _armed_timers(asyncio.get_running_loop()) == 0

    try:
        _run(body())
    finally:
        silent.close()


class _SilentStack:
    """Stands in for the protocol stack: keeps the callback, never answers."""

    def __init__(self):
        self.callbacks = []

    def resolve(self, name, rtype, on_result):
        self.callbacks.append(on_result)


def _unconnected_resolver(timeout):
    resolver = LiveResolver(transport="coap", timeout=timeout)
    resolver._client = _SilentStack()
    resolver._socket = object()
    return resolver


def test_unanswered_resolve_raises_timeout_at_the_deadline():
    async def body():
        resolver = _unconnected_resolver(timeout=0.05)
        loop = asyncio.get_running_loop()
        started = loop.time()
        with pytest.raises(asyncio.TimeoutError):
            await resolver.resolve("a.example.org")
        assert 0.05 <= loop.time() - started < 1.0
        assert resolver.timeouts == 1
        # The per-call timeout overrides the resolver's.
        resolver.timeout = 60.0
        with pytest.raises(asyncio.TimeoutError):
            await resolver.resolve("a.example.org", timeout=0.01)
        assert resolver.timeouts == 2
        # An answer (or an error) after the deadline is ignored.
        for late in resolver._client.callbacks:
            late(None, RuntimeError("late"))
            late(object(), None)
        assert _armed_timers(loop) == 0

    _run(body())


def test_a_stack_error_is_raised_as_it_is_and_is_not_a_timeout():
    async def body():
        resolver = _unconnected_resolver(timeout=5.0)
        task = asyncio.ensure_future(resolver.resolve("a.example.org"))
        await asyncio.sleep(0)
        resolver._client.callbacks[0](None, ValueError("refused"))
        with pytest.raises(ValueError):
            await task
        assert resolver.timeouts == 0
        assert _armed_timers(asyncio.get_running_loop()) == 0

    _run(body())


def test_cancelling_the_awaiting_task_disarms_the_deadline():
    async def body():
        resolver = _unconnected_resolver(timeout=5.0)
        loop = asyncio.get_running_loop()
        task = asyncio.ensure_future(resolver.resolve("a.example.org"))
        await asyncio.sleep(0)
        assert _armed_timers(loop) == 1  # the backstop deadline
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        assert _armed_timers(loop) == 0
        resolver._client.callbacks[0](object(), None)  # late answer: ignored
        assert resolver.timeouts == 0

    _run(body())
