"""OSCORE's bytes path, checked against its message path.

The DoC client seals a FETCH/POST query's CoAP body into the body of an
outer POST and opens the reply from its bytes; the DoC server opens a
protected request from its datagram, answers the plaintext and seals
the reply, building no :class:`~repro.coap.CoapMessage` on either end.
The message path's functions (``protect_request``, ``open_request`` →
``seal_response`` → ``CoapServer._reply``, ``unprotect_response``),
run on contexts of the test's own with the same keys and sequence
state, are the oracle: every byte must be theirs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.coap import CoapMessage, Code, ContentFormat, MessageType, OptionNumber
from repro.coap.endpoint import CoapServer
from repro.coap.options import encode_uint
from repro.dns import RecordType, RecursiveResolver, Zone, make_query
from repro.doc import CachingScheme, DocClient, DocServer
from repro.oscore import SecurityContext, protect_request, unprotect_response
from repro.oscore.context import RecipientContexts, client_context
from repro.cborlib import dumps
from repro.oscore.protect import (
    _external_aad,
    _parse_plaintext,
    encode_plaintext,
    open_request,
    seal_request,
    seal_response,
)
from repro.sim import Simulator

CLIENT = ("fe80::c", 40000)
SERVER = ("fe80::5", 5683)
SECRET = (b"bytes-path-secret", b"salt")


class _End:
    """One end of an in-memory datagram pipe on a Simulator."""

    def __init__(self, sim, address):
        self.sim, self.address = sim, address
        self.peer = self.on_datagram = None
        self.sent = []

    def sendto(self, payload, dst_addr, dst_port, metadata=None):
        self.sent.append(bytes(payload))
        if self.peer is not None and self.peer.on_datagram is not None:
            self.sim.schedule(0.001, self.peer.deliver, bytes(payload))

    def deliver(self, payload):
        self.on_datagram(self.peer.address[0], self.peer.address[1], payload, {})


def _pipe(sim):
    client, server = _End(sim, CLIENT), _End(sim, SERVER)
    client.peer, server.peer = server, client
    return client, server


def _zone(name):
    zone = Zone()
    zone.add_address(name, "2001:db8::1", ttl=120)
    return zone


@pytest.mark.parametrize("kid_length", range(8))
@pytest.mark.parametrize("piv_length", range(6))
def test_the_aad_template_is_the_cbor_encoding(kid_length, piv_length):
    # RFC 8613 §5.4: Enc_structure ["Encrypt0", h'', external_aad], the
    # external_aad [1, [alg 10], kid, Partial IV, h''], for every kid and
    # Partial IV a nonce can take (at most 7 and 5 bytes).
    kid, piv = bytes(range(1, kid_length + 1)), bytes(range(0xF0, 0xF0 + piv_length))
    external = dumps([1, [10], kid, piv, b""])
    assert _external_aad(kid, piv) == dumps(["Encrypt0", b"", external])


_LABEL = st.text("abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=12)


@settings(max_examples=25, deadline=None)
@given(
    labels=st.lists(_LABEL, min_size=1, max_size=3),
    method=st.sampled_from([Code.FETCH, Code.POST]),
    mid=st.integers(0, 0xFFFF),
    token=st.integers(0, 0xFFFFFFFF),
    sequence=st.integers(0, (1 << 40) - 1),
    index=st.integers(0, 239),
)
def test_both_ends_write_what_the_message_path_writes(
    labels, method, mid, token, sequence, index
):
    name = ".".join(labels) + ".example.org"
    sim = Simulator(seed=3)
    client_end, server_end = _pipe(sim)
    context = client_context(*SECRET, index)
    context.sender_sequence = sequence
    DocServer(
        sim, server_end, RecursiveResolver(_zone(name)),
        oscore_context=RecipientContexts(*SECRET), fastpath_capacity=8,
    )
    client = DocClient(sim, client_end, SERVER, method=method, oscore_context=context)
    client.coap._next_mid, client.coap._next_token = mid, token
    outcomes = []
    client.resolve(name, RecordType.AAAA, lambda r, e: outcomes.append((r, e)))
    sim.run(until=30)
    (request,), (reply,) = client_end.sent, server_end.sent

    # The request: protect_request's, for the same context state.
    oracle = client_context(*SECRET, index)
    oracle.sender_sequence = sequence
    inner = CoapMessage(
        MessageType.CON, method, mid, token.to_bytes(4, "big"), (
            (OptionNumber.URI_PATH, b"dns"),
            (OptionNumber.CONTENT_FORMAT, encode_uint(ContentFormat.DNS_MESSAGE)),
            (OptionNumber.ACCEPT, encode_uint(ContentFormat.DNS_MESSAGE)),
        ),
        make_query(name, RecordType.AAAA, txid=0).encode(),
    )
    outer, binding = protect_request(oracle, inner)
    assert request == outer.encode()

    # The reply: open_request -> seal_response -> CoapServer._reply, on
    # a server of the message path's own.
    oracle_server = RecipientContexts(*SECRET).get(oracle.sender_id)
    plaintext, opened_binding = open_request(oracle_server, CoapMessage.decode(request))
    assert opened_binding == binding
    answering = DocServer(sim, _End(sim, SERVER), RecursiveResolver(_zone(name)))
    code, _, rest = answering.answer(plaintext, routed=True)
    response = outer.make_response(
        Code.CHANGED, options=((OptionNumber.OSCORE, b""),),
        payload=seal_response(oracle_server, bytes((code,)) + rest, binding),
    )
    written = _End(sim, SERVER)
    CoapServer(sim, written)._reply(outer, *CLIENT, response, None, {})
    assert [reply] == written.sent

    # The opened reply: unprotect_response's.
    oracle.sender_sequence = sequence
    _, _, open_reply = seal_request(oracle, plaintext)
    opened = open_reply(bytes((reply[1],)) + reply[4 + (reply[0] & 0x0F):])
    expected = unprotect_response(oracle, CoapMessage.decode(reply), binding)
    assert _parse_plaintext(opened) == (expected.code, expected.options, expected.payload)

    (result, error), = outcomes
    assert error is None and result.addresses == ["2001:db8::1"]
    assert client.coap._replies  # the memo, keyed on the plaintext
    assert list(client.coap._replies) == [opened]


class _ScriptedOscoreServer:
    """Opens each protected request and answers it a sealed 2.05 with
    the scripted plaintext *reply* (``code || options || 0xFF payload``)."""

    def __init__(self, sim, server_context, reply):
        self.sim, self.context, self.reply = sim, server_context, reply
        self.on_datagram = None  # the client's

    def sendto(self, payload, dst_addr, dst_port, metadata=None):
        outer = CoapMessage.decode(payload)
        _, binding = open_request(self.context, outer)
        response = outer.make_response(
            Code.CHANGED, options=((OptionNumber.OSCORE, b""),),
            payload=seal_response(self.context, self.reply, binding),
        )
        self.sim.schedule(0.001, self.on_datagram, *SERVER, response.encode(), {})


@pytest.mark.parametrize("verify_max_age", [False, True], ids=["bytes", "max-age-check"])
@pytest.mark.parametrize("scheme", [CachingScheme.DOH_LIKE, CachingScheme.EOL_TTLS])
def test_a_protected_reply_that_does_not_decode_fails_its_query(scheme, verify_max_age):
    # A 2.05 whose DNS payload is three bytes: the query fails with the
    # decoder's error, counted, and nothing escapes the simulator (with
    # the Max-Age check and DoH-like TTLs it used to raise MessageError
    # out of the datagram handler).
    sim = Simulator(seed=9)
    client_ctx, server_ctx = SecurityContext.pair(*SECRET)
    reply = encode_plaintext(
        Code.CONTENT, ((OptionNumber.MAX_AGE, encode_uint(60)),), b"\x00\x01\x02"
    )
    server = _ScriptedOscoreServer(sim, server_ctx, reply)
    client = DocClient(
        sim, server, SERVER, scheme=scheme, oscore_context=client_ctx,
        verify_max_age=verify_max_age,
    )
    outcomes = []
    client.resolve("a.example.org", RecordType.AAAA, lambda r, e: outcomes.append((r, e)))
    sim.run(until=30)
    (result, error), = outcomes
    assert result is None and isinstance(error, ValueError)
    assert (client.resolutions_completed, client.resolutions_failed) == (0, 1)


def test_a_protected_reply_with_malformed_inner_options_fails_its_query():
    # An authenticated reply whose plaintext options do not parse (a
    # 5-byte Uri-Path with one byte there) fails the query like any
    # reply that is no response; it used to raise OptionError out of
    # the datagram handler.
    sim = Simulator(seed=9)
    client_ctx, server_ctx = SecurityContext.pair(*SECRET)
    server = _ScriptedOscoreServer(sim, server_ctx, bytes((Code.CONTENT, 0xB5, 0x64)))
    client = DocClient(sim, server, SERVER, oscore_context=client_ctx)
    outcomes = []
    client.resolve("a.example.org", RecordType.AAAA, lambda r, e: outcomes.append((r, e)))
    sim.run(until=30)
    (result, error), = outcomes
    assert result is None and error is not None
    assert client.resolutions_failed == 1


def test_clients_of_one_server_keep_their_own_replay_windows():
    # RFC 8613 §3.3: every client has its own Sender ID, so two clients
    # whose sequences both start at 0 are both served; a captured
    # request replayed from another port is refused for its own kid
    # (4.00 in the clear), and the other client's window is left alone.
    sim = Simulator(seed=4)
    server_end = _End(sim, SERVER)
    DocServer(
        sim, server_end, RecursiveResolver(_zone("a.example.org")),
        oscore_context=RecipientContexts(*SECRET),
    )
    clients = []
    for index in range(2):
        end = _End(sim, (f"fe80::{index + 1}", 40000))
        end.peer, server_end.peer = server_end, end
        client = DocClient(sim, end, SERVER, oscore_context=client_context(*SECRET, index))
        clients.append((end, client))
    outcomes = []
    for end, client in clients + clients:
        server_end.peer = end
        client.resolve("a.example.org", RecordType.AAAA, lambda r, e: outcomes.append(e))
        sim.run(until=sim.now + 5)
    assert outcomes == [None] * 4

    captured = clients[0][0].sent[0]
    replay = _End(sim, ("fe80::9", 40009))
    replay.peer, server_end.peer = server_end, replay
    replay.on_datagram = lambda *_: None
    replay.sendto(captured, *SERVER)
    sim.run(until=sim.now + 5)
    answer = CoapMessage.decode(server_end.sent[-1])
    assert (answer.code, answer.mid) == (Code.BAD_REQUEST, CoapMessage.decode(captured).mid)

    end, client = clients[1]
    server_end.peer = end
    client.resolve("a.example.org", RecordType.AAAA, lambda r, e: outcomes.append(e))
    sim.run(until=sim.now + 5)
    assert outcomes[-1] is None
