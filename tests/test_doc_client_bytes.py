"""The DoC client's bytes path, checked against its message path.

A plain FETCH query goes out as a CoAP body and its reply is read
through :class:`~repro.coap.endpoint.CoapClient`'s reply memo; a GET
query builds and decodes a :class:`~repro.coap.CoapMessage`. Replies do
not depend on the request method, so one scripted server answering
both clients the same way must leave them with the same outcome: the
same answer, or an error of the same type, and the same ACKs sent.
"""

from __future__ import annotations

import ipaddress

import pytest
from hypothesis import given, settings, strategies as st

import rfc1035_reference
from repro.coap import CoapMessage, Code, MessageType, OptionNumber
from repro.coap.blockwise import VALID_BLOCK_SIZES, Block, BlockError, block_for
from repro.coap.codes import CODE_BY_VALUE
from repro.coap.endpoint import CoapTimeoutError
from repro.coap.options import encode_uint
from repro.dns import DNSCache, Question, RecordType
from repro.doc import DocClient
from repro.sim import Simulator

SERVER = ("fe80::5", 5683)
NAME = "a.example.org"
ADDRESS = "2001:db8::1"


def _answer(name=NAME, ttl=0, qr=True):
    return rfc1035_reference.encode_message({
        "id": 0, "flags": 0x8180 if qr else 0x0100,
        "questions": [(name, 28, 1)],
        "answers": [(name, 28, 1, ttl, [ipaddress.IPv6Address(ADDRESS).packed])],
    })


class _ScriptedServer:
    """Answers every request with the one scripted reply.

    *kind* is how: ``piggybacked`` on the ACK, ``non`` (a NON response),
    ``separate`` (an empty ACK, then a CON response), ``ack-only`` (an
    empty ACK and nothing more), ``rst``, ``truncated`` (the
    piggybacked reply without its last byte), ``blocks`` (piggybacked
    16-byte Block2 pieces, the one the request's Block2 asks for),
    ``block-zero`` (block 0 with M set, whichever block is asked for) or
    ``bad-block`` (a Block2 value with the reserved SZX 7).
    """

    def __init__(self, sim, kind, code, options, payload):
        self.sim = sim
        self.kind, self.code = kind, code
        self.options, self.payload = options, payload
        self.client = None  # the client's socket
        self.next_mid = 0x7000

    def sendto(self, payload, dst_addr, dst_port, metadata=None):
        self.sim.schedule(0.001, self.reply_to, bytes(payload))

    def _send(self, message):
        wire = message.encode()
        if self.kind == "truncated":
            wire = wire[:-1]
        self.sim.schedule(0.001, self.client.on_datagram, *SERVER, wire, {})

    def reply_to(self, wire):
        request = CoapMessage.decode(wire)
        if request.mtype == MessageType.ACK:
            return  # the client's ACK of a separate response
        if self.kind == "rst":
            self._send(CoapMessage(MessageType.RST, Code.EMPTY, request.mid))
            return
        if self.kind == "blocks":
            block2 = request.option(OptionNumber.BLOCK2)
            number = 0 if block2 is None else Block.decode(block2).number
            block, chunk = block_for(self.payload, number, 16)
            options = tuple(item for item in self.options if item[0] != 23)
            self._send(CoapMessage(
                MessageType.ACK, self.code, request.mid, request.token,
                options + ((23, block.encode()),), chunk,
            ))
            return
        if self.kind in ("block-zero", "bad-block"):
            value = b"\x07" if self.kind == "bad-block" else Block(0, True, 16).encode()
            self._send(CoapMessage(
                MessageType.ACK, self.code, request.mid, request.token,
                self.options + ((23, value),), self.payload[:16],
            ))
            return
        if self.kind in ("separate", "ack-only"):
            self._send(CoapMessage(MessageType.ACK, Code.EMPTY, request.mid))
            if self.kind == "ack-only":
                return
        mtype = {
            "piggybacked": MessageType.ACK, "truncated": MessageType.ACK,
            "non": MessageType.NON, "separate": MessageType.CON,
        }[self.kind]
        mid = request.mid
        if mtype != MessageType.ACK:
            mid, self.next_mid = self.next_mid, self.next_mid + 1
        self._send(CoapMessage(
            mtype, self.code, mid, request.token, self.options, self.payload
        ))


class _Socket:
    """The client's socket: every datagram goes to the scripted server."""

    def __init__(self, server):
        self.server = server
        self.on_datagram = None
        self.acks = []

    def sendto(self, payload, dst_addr, dst_port, metadata=None):
        if CoapMessage.decode(payload).mtype == MessageType.ACK:
            self.acks.append(bytes(payload))
        self.server.sendto(payload, dst_addr, dst_port, metadata)


def _outcomes(method, kind, code, options, payload, queries=2):
    """Resolve NAME *queries* times against the scripted reply."""
    sim = Simulator(seed=3)
    server = _ScriptedServer(sim, kind, code, options, payload)
    socket = server.client = _Socket(server)
    client = DocClient(sim, socket, SERVER, method=method)
    seen = []

    def on_result(result, error):
        if error is not None:
            seen.append(type(error))
        else:
            seen.append((result.addresses, result.response))

    for _ in range(queries):
        client.resolve(NAME, RecordType.AAAA, on_result)
        try:
            sim.run(until=sim.now + 200.0)
        except Exception as error:  # what escapes is an outcome too
            seen.append(("raised", type(error)))
    counters = (client.resolutions_completed, client.resolutions_failed)
    return seen, socket.acks, counters, client


@pytest.mark.parametrize("payload", [
    _answer(name="b.example.org"), _answer(qr=False),
], ids=["another-question", "no-qr-flag"])
@pytest.mark.parametrize("method", [Code.FETCH, Code.GET], ids=["fetch", "get"])
def test_a_mismatched_answer_fails_its_resolution(method, payload):
    """The stub resolver's refusal reaches ``on_result`` and the
    counters; it used to escape the datagram handler, leaving the query
    unanswered."""
    seen, _, counters, client = _outcomes(
        method, "piggybacked", Code.CONTENT,
        ((14, encode_uint(60)),), payload,
    )
    assert seen == [ValueError, ValueError]
    assert counters == (0, 2)
    assert client.coap._replies == {}  # a failure is never remembered


@pytest.mark.parametrize("method", [Code.FETCH, Code.GET], ids=["fetch", "get"])
def test_a_truncated_reply_is_dropped_and_the_query_retransmitted(method):
    """A reply whose last option is cut short is dropped like any
    malformed datagram (it used to raise out of the datagram handler):
    the request is retransmitted until the client gives up."""
    seen, _, counters, _ = _outcomes(
        method, "truncated", Code.CONTENT, ((14, b"\x01\x02"),), b"", queries=1
    )
    assert seen == [CoapTimeoutError]
    assert counters == (0, 1)


def test_a_body_request_takes_a_reply_in_blocks():
    """A body request never asks for Block2, but a server may send its
    reply in pieces anyway: the request is decoded from its bytes to ask
    for the next one, and nothing assembled is remembered."""
    options = ((12, encode_uint(553)), (14, encode_uint(60)))
    seen, _, counters, fetch = _outcomes(
        Code.FETCH, "blocks", Code.CONTENT, options, _answer()
    )
    assert [addresses for addresses, _ in seen] == [[ADDRESS]] * 2
    assert counters == (2, 0)
    assert fetch.coap._replies == {}


@pytest.mark.parametrize("kind", ["block-zero", "bad-block"])
@pytest.mark.parametrize("method", [Code.FETCH, Code.GET], ids=["fetch", "get"])
def test_a_block2_reply_the_transfer_refuses_fails_its_query(method, kind):
    """Block 0 again where block 1 was asked for, or an invalid Block2
    value: the exchange fails with the ``BlockError`` (it used to raise
    out of the datagram handler and leave the exchange behind)."""
    options = ((12, encode_uint(553)), (14, encode_uint(60)))
    seen, _, counters, client = _outcomes(
        method, kind, Code.CONTENT, options, _answer()
    )
    assert seen == [BlockError, BlockError]  # and nothing escaped sim.run
    assert counters == (0, 2)
    assert client.coap._exchanges == {}


def test_the_memo_answers_a_repeated_reply_and_only_a_body_request():
    options = ((12, encode_uint(553)), (14, encode_uint(60)))
    seen, _, counters, fetch = _outcomes(
        Code.FETCH, "piggybacked", Code.CONTENT, options, _answer(), queries=3
    )
    assert [addresses for addresses, _ in seen] == [[ADDRESS]] * 3
    assert all(response.answers[0].ttl == 60 for _, response in seen)
    assert counters == (3, 0)
    assert list(fetch.coap._replies.values()) == [seen[0][1]]
    _, _, _, get = _outcomes(
        Code.GET, "piggybacked", Code.CONTENT, options, _answer()
    )
    assert get.coap._replies == {}


def _fetch_client(dns_cache=None):
    """A FETCH client, its simulator and a piggybacking scripted server
    whose options and payload the test sets before each query."""
    sim = Simulator(seed=3)
    server = _ScriptedServer(sim, "piggybacked", Code.CONTENT, (), b"")
    socket = server.client = _Socket(server)
    return sim, server, DocClient(sim, socket, SERVER, dns_cache=dns_cache)


def _ask(sim, client, name):
    """Resolve *name*; the result, or the error's type."""
    seen = []
    client.resolve(
        name, RecordType.AAAA,
        lambda result, error: seen.append(result or type(error)),
    )
    sim.run(until=sim.now + 1.0)
    (outcome,) = seen
    return outcome


def test_max_age_is_part_of_the_memo_key():
    sim, server, client = _fetch_client()
    server.payload = _answer()
    ttls = []
    for max_age in (60, 59, 60):
        server.options = ((14, encode_uint(max_age)),)
        ttls.append(_ask(sim, client, NAME).response.answers[0].ttl)
    assert ttls == [60, 59, 60]  # the last one read through the memo
    assert len(client.coap._replies) == 2


def test_a_remembered_reply_is_still_checked_and_cached():
    sim, server, client = _fetch_client(dns_cache=DNSCache(1))
    server.options = ((14, encode_uint(60)),)
    other = "b.example.org"
    server.payload = _answer()
    assert _ask(sim, client, NAME).addresses == [ADDRESS]
    # NAME's reply body again, now to a query for another name.
    assert _ask(sim, client, other) is ValueError
    server.payload = _answer(name=other)
    assert _ask(sim, client, other).addresses == [ADDRESS]  # evicts NAME
    server.payload = _answer()
    assert _ask(sim, client, NAME).addresses == [ADDRESS]  # from the memo
    assert len(client.coap._replies) == 2
    cache = client.stub.cache
    assert cache.lookup(Question(NAME), sim.now) is not None
    assert cache.lookup(Question(other), sim.now) is None


_RESPONSE_CODES = sorted(
    code for value, code in CODE_BY_VALUE.items() if 0x40 <= value < 0xC0
)
_OPTION = st.one_of(
    st.tuples(
        st.sampled_from([4, 8, 12, 14, 28, 60, 2048]),
        st.binary(max_size=6),
    ),
    st.tuples(  # a whole reply in one Block2 piece
        st.just(23),
        st.sampled_from(VALID_BLOCK_SIZES).map(
            lambda size: Block(0, False, size).encode()
        ),
    ),
)
_PAYLOAD = st.one_of(
    st.builds(_answer, ttl=st.integers(0, 600)),
    st.builds(_answer, name=st.just("b.example.org")),
    st.just(_answer(qr=False)),
    st.binary(max_size=24),
)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(
        ["piggybacked", "non", "separate", "ack-only", "rst", "blocks"]
    ),
    code=st.sampled_from(_RESPONSE_CODES),
    options=st.lists(_OPTION, max_size=4).map(
        lambda items: tuple(sorted(items, key=lambda item: item[0]))
    ),
    payload=_PAYLOAD,
)
def test_the_bytes_path_ends_where_the_message_path_does(
    kind, code, options, payload
):
    bytes_path = _outcomes(Code.FETCH, kind, code, options, payload)
    message_path = _outcomes(Code.GET, kind, code, options, payload)
    assert bytes_path[:3] == message_path[:3]
