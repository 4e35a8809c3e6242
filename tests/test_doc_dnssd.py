"""Tests for DNS-SD over multicast DoC with Group OSCORE."""

import pytest

from repro.dns import RecordType
from repro.doc.dnssd import (
    DNSSD_GROUP,
    DnsSdClient,
    DnsSdResponder,
    ServiceInstance,
)
from repro.oscore.group import GroupContext
from repro.sim import Simulator
from repro.stack import Network


def _ctx(member: bytes) -> GroupContext:
    return GroupContext(b"grp", member, b"sd-master-secret", b"salt")


def _star(sim, responders=2, loss=0.0):
    """A browser with *responders* service hosts in radio range."""
    net = Network(sim)
    browser_node = net.add_node("browser")
    hosts = []
    for index in range(responders):
        host = net.add_node(f"host{index}")
        net.connect_radio("browser", host.name, loss=loss)
        hosts.append(host)
    return net, browser_node, hosts


def _light(index=0):
    return ServiceInstance(
        "_coap._udp.local",
        f"Device {index}._coap._udp.local",
        f"device-{index}.local",
        5683,
        (b"version=1",),
    )


class TestDiscovery:
    def test_browse_finds_all_responders(self):
        sim = Simulator(seed=1)
        net, browser_node, hosts = _star(sim, responders=3)
        browser = DnsSdClient(sim, browser_node, _ctx(b"\x01"))
        for index, host in enumerate(hosts):
            responder = DnsSdResponder(sim, host, _ctx(bytes([0x10 + index])))
            responder.register(_light(index))
        done = []
        browser.browse("_coap._udp.local", done.append)
        sim.run(until=5)
        result = done[0]
        assert len(result.answers) == 3
        assert result.instances == [
            "Device 0._coap._udp.local",
            "Device 1._coap._udp.local",
            "Device 2._coap._udp.local",
        ]

    def test_non_matching_service_silent(self):
        sim = Simulator(seed=2)
        net, browser_node, hosts = _star(sim, responders=1)
        browser = DnsSdClient(sim, browser_node, _ctx(b"\x01"))
        responder = DnsSdResponder(sim, hosts[0], _ctx(b"\x10"))
        responder.register(_light())
        done = []
        browser.browse("_mqtt._tcp.local", done.append)
        sim.run(until=5)
        assert done[0].answers == {}
        assert responder.queries_answered == 0

    def test_srv_and_txt_records_returned(self):
        from repro.dns.rdata import PTRData, SRVData, TXTData

        sim = Simulator(seed=3)
        net, browser_node, hosts = _star(sim, responders=1)
        browser = DnsSdClient(sim, browser_node, _ctx(b"\x01"))
        responder = DnsSdResponder(sim, hosts[0], _ctx(b"\x10"))
        responder.register(_light())
        done = []
        browser.browse(
            "Device 0._coap._udp.local", done.append, rtype=RecordType.ANY
        )
        sim.run(until=5)
        records = list(done[0].answers.values())[0]
        types = {type(record.rdata) for record in records}
        assert SRVData in types and TXTData in types

    def test_responder_jitter_applied(self):
        """mDNS-style 20-120 ms answer delay desynchronises responders."""
        sim = Simulator(seed=4)
        net, browser_node, hosts = _star(sim, responders=1)
        browser = DnsSdClient(sim, browser_node, _ctx(b"\x01"))
        responder = DnsSdResponder(sim, hosts[0], _ctx(b"\x10"))
        responder.register(_light())
        done = []
        start = sim.now
        browser.browse("_coap._udp.local", done.append, window=1.0)
        sim.run(until=5)
        response_frames = [
            r for r in net.sniffer.records
            if r.metadata.get("kind") == "dnssd-response"
        ]
        assert response_frames
        assert response_frames[0].time - start >= 0.020

    def test_lossy_medium_partial_discovery(self):
        """Broadcasts are unacknowledged: under heavy loss some
        responders are simply not discovered — no crash, no retry storm."""
        sim = Simulator(seed=6)
        net, browser_node, hosts = _star(sim, responders=4, loss=0.6)
        browser = DnsSdClient(sim, browser_node, _ctx(b"\x01"))
        for index, host in enumerate(hosts):
            responder = DnsSdResponder(sim, host, _ctx(bytes([0x10 + index])))
            responder.register(_light(index))
        done = []
        browser.browse("_coap._udp.local", done.append)
        sim.run(until=5)
        assert 0 <= len(done[0].answers) <= 4

    def test_names_encrypted_on_air(self):
        sim = Simulator(seed=7)
        net, browser_node, hosts = _star(sim, responders=1)
        captured = []

        def spy(time, src, dst, frame, metadata, lost):
            captured.append(bytes(frame))

        net.medium.add_observer(spy)
        browser = DnsSdClient(sim, browser_node, _ctx(b"\x01"))
        responder = DnsSdResponder(sim, hosts[0], _ctx(b"\x10"))
        responder.register(_light())
        browser.browse("_coap._udp.local", lambda r: None)
        sim.run(until=5)
        joined = b"".join(captured)
        assert b"_coap._udp" not in joined
        assert b"Device" not in joined

    def test_outsider_cannot_browse(self):
        """A client with the wrong group secret gets no answers."""
        sim = Simulator(seed=8)
        net, browser_node, hosts = _star(sim, responders=1)
        outsider_ctx = GroupContext(b"grp", b"\x01", b"WRONG", b"salt")
        browser = DnsSdClient(sim, browser_node, outsider_ctx)
        responder = DnsSdResponder(sim, hosts[0], _ctx(b"\x10"))
        responder.register(_light())
        done = []
        browser.browse("_coap._udp.local", done.append)
        sim.run(until=5)
        assert done[0].answers == {}
        assert responder.queries_answered == 0


class TestMulticastStack:
    def test_join_group_required_for_delivery(self):
        sim = Simulator(seed=9)
        net = Network(sim)
        a = net.add_node("a")
        b = net.add_node("b")
        net.connect_radio("a", "b")
        inbox = []
        socket = b.bind(9999)
        socket.on_datagram = lambda src, sport, data, md: inbox.append(data)
        a.bind().sendto(b"hello", DNSSD_GROUP, 9999)
        sim.run(until=1)
        assert inbox == []          # not joined
        b.join_group(DNSSD_GROUP)
        a.bind().sendto(b"hello2", DNSSD_GROUP, 9999)
        sim.run(until=2)
        assert inbox == [b"hello2"]

    def test_multicast_reaches_all_neighbours(self):
        sim = Simulator(seed=10)
        net = Network(sim)
        sender = net.add_node("s")
        inboxes = {}
        for name in ("r1", "r2", "r3"):
            node = net.add_node(name)
            net.connect_radio("s", name)
            node.join_group(DNSSD_GROUP)
            socket = node.bind(7777)
            inboxes[name] = []
            socket.on_datagram = (
                lambda src, sport, data, md, name=name: inboxes[name].append(data)
            )
        sender.bind().sendto(b"announce", DNSSD_GROUP, 7777)
        sim.run(until=1)
        assert all(inbox == [b"announce"] for inbox in inboxes.values())

    def test_multicast_not_forwarded(self):
        """Link-scope multicast must not cross routers."""
        from repro.stack import build_figure2_topology

        sim = Simulator(seed=11)
        topo = build_figure2_topology(sim)
        host = topo.resolver_host
        # Even if the host joined, C1's ff02:: traffic must not arrive
        # (it would need to be forwarded by forwarder + BR).
        inbox = []
        topo.forwarder.join_group(DNSSD_GROUP)
        forwarder_socket = topo.forwarder.bind(7777)
        forwarder_socket.on_datagram = lambda *args: inbox.append(args)
        topo.clients[0].bind().sendto(b"x", DNSSD_GROUP, 7777)
        sim.run(until=1)
        assert len(inbox) == 1      # direct neighbour hears it...
        assert topo.border_router.packets_forwarded == 0  # ...routers don't forward

    def test_join_validates_multicast(self):
        from repro.stack.node import StackError

        sim = Simulator()
        net = Network(sim)
        node = net.add_node("a")
        with pytest.raises(StackError):
            node.join_group("2001:db8::1")

    def test_loopback_to_local_member(self):
        sim = Simulator(seed=12)
        net = Network(sim)
        a = net.add_node("a")
        b = net.add_node("b")
        net.connect_radio("a", "b")
        a.join_group(DNSSD_GROUP)
        inbox = []
        socket = a.bind(7777)
        socket.on_datagram = lambda src, sport, data, md: inbox.append(data)
        a.bind().sendto(b"self", DNSSD_GROUP, 7777)
        sim.run(until=1)
        assert inbox == [b"self"]
