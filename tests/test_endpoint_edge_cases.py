"""CoAP endpoint edge cases: NON exchanges, duplicates, resets,
malformed input, and full-stack property tests."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.coap import CoapMessage, Code, MessageType, OptionNumber
from repro.coap.blockwise import Block
from repro.coap.endpoint import EXCHANGE_LIFETIME, CoapClient, CoapServer
from repro.sim import Simulator
from repro.stack import build_figure2_topology


def _setup(seed=1, loss=0.0, handler=None):
    sim = Simulator(seed=seed)
    topo = build_figure2_topology(sim, loss=loss)
    server = CoapServer(sim, topo.resolver_host.bind(5683))
    if handler is None:
        def handler(request, respond, metadata):
            respond(request.make_response(Code.CONTENT, payload=request.payload))
    server.add_resource("/echo", handler)
    client = CoapClient(sim, topo.clients[0].bind())
    return sim, topo, client, server


class TestNonConfirmable:
    def test_non_request_gets_non_response(self):
        sim, topo, client, _ = _setup()
        request = CoapMessage.request(
            Code.FETCH, "/echo", payload=b"x", confirmable=False
        )
        results = []
        client.request(request, topo.resolver_host.address, 5683,
                       lambda r, e: results.append((r, e)))
        sim.run(until=10)
        response, error = results[0]
        assert error is None
        assert response.mtype == MessageType.NON
        assert response.payload == b"x"

    def test_non_request_not_retransmitted(self):
        sim = Simulator(seed=2)
        topo = build_figure2_topology(sim)
        client = CoapClient(sim, topo.clients[0].bind())
        client.events = []
        request = CoapMessage.request(
            Code.FETCH, "/echo", payload=b"x", confirmable=False
        )
        client.request(request, topo.resolver_host.address, 5683, lambda r, e: None)
        sim.run(until=120)
        kinds = [event.kind for event in client.events]
        assert kinds == ["transmission"]


class TestDuplicateSuppression:
    def test_duplicate_request_replays_cached_reply(self):
        calls = {"n": 0}

        def handler(request, respond, metadata):
            calls["n"] += 1
            respond(request.make_response(Code.CONTENT, payload=b"once"))

        sim, topo, client, server = _setup(handler=handler)
        # Send the identical wire message twice, bypassing the client.
        raw = topo.clients[0].bind()
        request = CoapMessage.request(
            Code.FETCH, "/echo", mid=0x0101, token=b"\x0A", payload=b"q"
        )
        replies = []
        raw.on_datagram = lambda src, sport, data, md: replies.append(data)
        for _ in range(2):
            raw.sendto(request.encode(), topo.resolver_host.address, 5683)
        sim.run(until=10)
        assert calls["n"] == 1
        assert len(replies) == 2
        assert replies[0] == replies[1]

    def test_distinct_mids_processed_separately(self):
        calls = {"n": 0}

        def handler(request, respond, metadata):
            calls["n"] += 1
            respond(request.make_response(Code.CONTENT))

        sim, topo, client, server = _setup(handler=handler)
        raw = topo.clients[0].bind()
        raw.on_datagram = lambda *args: None
        for mid in (1, 2):
            message = CoapMessage.request(
                Code.FETCH, "/echo", mid=mid, token=bytes([mid]), payload=b"q"
            )
            raw.sendto(message.encode(), topo.resolver_host.address, 5683)
        sim.run(until=10)
        assert calls["n"] == 2

    def test_wrapped_mid_with_new_token_is_a_new_exchange(self):
        """After 65 536 exchanges the MID wraps inside EXCHANGE_LIFETIME;
        the new exchange must not be answered with the old one's bytes."""
        payloads = []

        def handler(request, respond, metadata):
            payloads.append(request.payload)
            respond(request.make_response(Code.CONTENT, payload=request.payload))

        sim, topo, client, server = _setup(handler=handler)
        raw = topo.clients[0].bind()
        replies = []
        raw.on_datagram = lambda src, sport, data, md: replies.append(data)

        def message(token, payload):
            return CoapMessage.request(
                Code.FETCH, "/echo", mid=0x0101, token=token, payload=payload
            ).encode()

        for wire in (
            message(b"\x0A", b"old"),
            message(b"\x0B", b"new"),  # same peer, same MID, new token
            message(b"\x0A", b"old"),  # a true duplicate of the first
        ):
            raw.sendto(wire, topo.resolver_host.address, 5683)
        sim.run(until=10)
        assert payloads == [b"old", b"new"]
        decoded = [CoapMessage.decode(data) for data in replies]
        assert [(m.token, m.payload) for m in decoded] == [
            (b"\x0A", b"old"), (b"\x0B", b"new"), (b"\x0A", b"old"),
        ]
        assert replies[2] == replies[0]


class TestRobustness:
    def test_garbage_datagram_ignored(self):
        sim, topo, client, server = _setup()
        raw = topo.clients[0].bind()
        raw.sendto(b"\xff\xff\xff", topo.resolver_host.address, 5683)
        raw.sendto(b"", topo.resolver_host.address, 5683)
        sim.run(until=5)  # no exception

    def test_rst_fails_exchange(self):
        sim = Simulator(seed=3)
        topo = build_figure2_topology(sim)
        # A "server" that answers everything with RST.
        socket = topo.resolver_host.bind(5683)

        def reset_everything(src, sport, data, metadata):
            message = CoapMessage.decode(data)
            reset = CoapMessage(mtype=MessageType.RST, code=Code.EMPTY, mid=message.mid)
            socket.sendto(reset.encode(), src, sport)

        socket.on_datagram = reset_everything
        client = CoapClient(sim, topo.clients[0].bind())
        results = []
        client.request(
            CoapMessage.request(Code.FETCH, "/echo", payload=b"q"),
            topo.resolver_host.address, 5683,
            lambda r, e: results.append((r, e)),
        )
        sim.run(until=120)
        response, error = results[0]
        assert response is None and error is not None

    def test_response_without_exchange_ignored(self):
        sim, topo, client, server = _setup()
        # Deliver an unsolicited response directly to the client socket.
        stray = CoapMessage(
            mtype=MessageType.ACK, code=Code.CONTENT, mid=999,
            token=b"\xDE\xAD", payload=b"stray",
        )
        client._on_datagram(topo.resolver_host.address, 5683,
                            stray.encode(), {})
        sim.run(until=1)  # nothing blows up

    def test_expired_block1_continuation_leaves_no_assembler(self):
        """A Block1 continuation whose upload has expired is answered
        4.08 and must not park a fresh, useless assembler in the table
        for another EXCHANGE_LIFETIME."""
        sim, topo, client, server = _setup()
        raw = topo.clients[0].bind()
        replies = []
        raw.on_datagram = lambda src, sport, data, md: replies.append(
            CoapMessage.decode(data)
        )

        def upload(number, more, mid):
            block = Block(number=number, more=more, size=16)
            request = CoapMessage.request(
                Code.POST, "/echo", mid=mid, token=b"\x0B", payload=b"x" * 16
            ).with_option(OptionNumber.BLOCK1, block.encode())
            raw.sendto(request.encode(), topo.resolver_host.address, 5683)

        upload(0, True, mid=1)
        sim.run(until=5)
        assert replies[-1].code == Code.CONTINUE
        assert len(server._block1_assembly) == 1

        # The upload expires; only then does its second block arrive.
        sim.run(until=5 + EXCHANGE_LIFETIME)
        upload(1, False, mid=2)
        sim.run(until=sim.now + 5)
        assert replies[-1].code == Code.REQUEST_ENTITY_INCOMPLETE
        assert len(server._block1_assembly) == 0

        # An out-of-order block of a live upload is refused as well,
        # but that upload goes on: its assembler stays.
        upload(0, True, mid=3)
        upload(2, True, mid=4)
        upload(1, False, mid=5)
        sim.run(until=sim.now + 5)
        assert [reply.code for reply in replies[-3:]] == [
            Code.CONTINUE, Code.REQUEST_ENTITY_INCOMPLETE, Code.CONTENT,
        ]
        assert replies[-1].payload == b"x" * 32
        assert len(server._block1_assembly) == 0

    def test_unknown_critical_option_is_preserved(self):
        """The endpoint does not strip options it does not understand —
        forward compatibility for new CoAP extensions."""
        seen = []

        def handler(request, respond, metadata):
            seen.append(request.option(65001))
            respond(request.make_response(Code.CONTENT))

        sim, topo, client, server = _setup(handler=handler)
        request = CoapMessage.request(Code.FETCH, "/echo", payload=b"q")
        request = request.with_option(65001, b"\x01\x02")
        results = []
        client.request(request, topo.resolver_host.address, 5683,
                       lambda r, e: results.append((r, e)))
        sim.run(until=10)
        assert seen == [b"\x01\x02"]



class _Capture:
    """A socket that records what is sent, with the time."""

    def __init__(self, sim):
        self.sim = sim
        self.on_datagram = None
        self.sent = []

    def sendto(self, payload, dst_addr, dst_port, metadata=None):
        self.sent.append((self.sim.now, (dst_addr, dst_port), payload))


class TestSeparateResponse:
    """A separate CON response is retransmitted until the ACK (or RST)
    of the peer it went to, matched by that peer and the MID."""

    PEER_A, PEER_B = ("fe80::a", 40000), ("fe80::b", 40000)

    def _separate(self):
        """A server that answered PEER_A's request in a separate CON;
        returns (sim, socket, server, that response's MID)."""
        sim = Simulator(seed=9)
        socket = _Capture(sim)
        server = CoapServer(sim, socket)
        later = []
        server.add_resource("/slow", lambda request, respond, md: later.append(respond))
        request = CoapMessage.request(Code.GET, "/slow", mid=7, token=b"\x07")
        socket.on_datagram(*self.PEER_A, request.encode(), {})
        sim.schedule(1.0, lambda: later[0](
            CoapMessage(MessageType.CON, Code.CONTENT, payload=b"late")
        ))
        sim.run(until=1.5)
        separate = CoapMessage.decode(socket.sent[-1][2])
        assert separate.mtype == MessageType.CON and separate.token == b"\x07"
        return sim, socket, server, separate.mid

    def _transmissions(self, socket):
        return [
            sent for sent in socket.sent
            if CoapMessage.decode(sent[2]).payload == b"late"
        ]

    def test_ack_from_another_peer_does_not_stop_retransmission(self):
        sim, socket, server, mid = self._separate()
        ack = CoapMessage(MessageType.ACK, Code.EMPTY, mid)
        socket.on_datagram(*self.PEER_B, ack.encode(), {})
        sim.run(until=300)
        sent = self._transmissions(socket)
        assert len(sent) == 1 + server.params.max_retransmit
        assert {dst for _, dst, _ in sent} == {self.PEER_A}

    def test_ack_from_the_peer_stops_retransmission(self):
        sim, socket, server, mid = self._separate()
        ack = CoapMessage(MessageType.ACK, Code.EMPTY, mid)
        socket.on_datagram(*self.PEER_A, ack.encode(), {})
        sim.run(until=300)
        assert len(self._transmissions(socket)) == 1
        assert server._separate_pending == {}

    def test_unacknowledged_response_leaves_no_state_behind(self):
        sim, socket, server, _ = self._separate()
        assert len(server._separate_pending) == 1
        sim.run(until=300)  # every retransmission spent
        assert len(self._transmissions(socket)) == 1 + server.params.max_retransmit
        assert server._separate_pending == {}

class TestFullStackProperties:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(payload=st.binary(min_size=0, max_size=300), seed=st.integers(0, 1000))
    def test_arbitrary_payload_round_trip(self, payload, seed):
        """Any payload survives the full CoAP/6LoWPAN/radio path,
        fragmentation included."""
        sim, topo, client, _ = _setup(seed=seed)
        results = []
        client.request(
            CoapMessage.request(Code.FETCH, "/echo", payload=payload),
            topo.resolver_host.address, 5683,
            lambda r, e: results.append((r, e)),
        )
        sim.run(until=60)
        response, error = results[0]
        assert error is None
        assert response.payload == payload

    @settings(max_examples=10, deadline=None)
    @given(
        name=st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=40
        ).filter(lambda s: not s.startswith("-") and not s.endswith("-")),
        seed=st.integers(0, 100),
    )
    def test_arbitrary_names_resolve(self, name, seed):
        from repro.dns import RecordType, RecursiveResolver, Zone
        from repro.doc import DocClient, DocServer

        sim = Simulator(seed=seed)
        topo = build_figure2_topology(sim)
        zone = Zone()
        fqdn = f"{name}.example.org"
        zone.add_address(fqdn, "2001:db8::1", ttl=60)
        DocServer(sim, topo.resolver_host.bind(5683), RecursiveResolver(zone))
        client = DocClient(
            sim, topo.clients[0].bind(), (topo.resolver_host.address, 5683)
        )
        results = []
        client.resolve(fqdn, RecordType.AAAA,
                       lambda r, e: results.append((r, e)))
        sim.run(until=60)
        result, error = results[0]
        assert error is None
        assert result.addresses == ["2001:db8::1"]
