"""Node stack and topology tests: routing, sockets, forwarding."""

import pytest

from repro.net import UdpDatagram
from repro.sim import Simulator
from repro.stack import Network, build_figure2_topology
from repro.stack.node import StackError


class TestNetworkBasics:
    def test_duplicate_node_rejected(self):
        network = Network(Simulator())
        network.add_node("a")
        with pytest.raises(ValueError):
            network.add_node("a")

    def test_unique_addresses_and_macs(self):
        network = Network(Simulator())
        a = network.add_node("a")
        b = network.add_node("b")
        assert a.address != b.address
        assert a.mac != b.mac

    def test_port_binding(self):
        network = Network(Simulator())
        node = network.add_node("a")
        node.bind(5683)
        with pytest.raises(StackError):
            node.bind(5683)

    def test_ephemeral_ports_distinct(self):
        network = Network(Simulator())
        node = network.add_node("a")
        assert node.bind().port != node.bind().port

    def test_ephemeral_ports_stay_in_dynamic_range(self):
        from repro.stack.node import EPHEMERAL_PORT_RANGE

        network = Network(Simulator())
        node = network.add_node("a")
        low, high = EPHEMERAL_PORT_RANGE
        for _ in range(100):
            assert low <= node.bind().port <= high

    def test_ephemeral_allocation_wraps_at_top(self):
        from repro.stack.node import EPHEMERAL_PORT_RANGE

        network = Network(Simulator())
        node = network.add_node("a")
        node._ephemeral_port = EPHEMERAL_PORT_RANGE[1]
        top = node.bind()
        assert top.port == EPHEMERAL_PORT_RANGE[1]
        # The next allocation wraps to the bottom instead of 65536.
        assert node.bind().port == EPHEMERAL_PORT_RANGE[0]

    def test_ephemeral_allocation_skips_bound_ports_after_wrap(self):
        from repro.stack.node import EPHEMERAL_PORT_RANGE

        network = Network(Simulator())
        node = network.add_node("a")
        low, high = EPHEMERAL_PORT_RANGE
        node.bind(low)
        node._ephemeral_port = high
        assert node.bind().port == high
        assert node.bind().port == low + 1  # low itself is taken

    def test_ephemeral_exhaustion_raises(self):
        from repro.stack import node as node_module

        network = Network(Simulator())
        node = network.add_node("a")
        low = node_module.EPHEMERAL_PORT_RANGE[0]
        # Shrink the range so exhaustion is cheap to reach.
        original = node_module.EPHEMERAL_PORT_RANGE
        node_module.EPHEMERAL_PORT_RANGE = (low, low + 3)
        try:
            for _ in range(4):
                node.bind()
            with pytest.raises(StackError, match="exhausted"):
                node.bind()
        finally:
            node_module.EPHEMERAL_PORT_RANGE = original

    def test_no_route_raises(self):
        network = Network(Simulator())
        a = network.add_node("a")
        network.add_node("b")
        socket = a.bind()
        with pytest.raises(StackError):
            socket.sendto(b"x", network.nodes["b"].address, 99)


class TestDelivery:
    def _two_nodes(self, loss=0.0):
        sim = Simulator(seed=1)
        network = Network(sim)
        a, b = network.add_node("a"), network.add_node("b")
        network.connect_radio("a", "b", loss=loss)
        return sim, network, a, b

    def test_neighbour_delivery(self):
        sim, network, a, b = self._two_nodes()
        inbox = []
        server = b.bind(7000)
        server.on_datagram = lambda src, sport, data, md: inbox.append(data)
        a.bind().sendto(b"hello", b.address, 7000)
        sim.run()
        assert inbox == [b"hello"]

    def test_source_address_correct(self):
        sim, network, a, b = self._two_nodes()
        sources = []
        server = b.bind(7000)
        server.on_datagram = lambda src, sport, data, md: sources.append(src)
        a.bind(6000).sendto(b"x", b.address, 7000)
        sim.run()
        assert sources == [a.address]

    def test_unbound_port_dropped(self):
        sim, network, a, b = self._two_nodes()
        a.bind().sendto(b"x", b.address, 9999)
        sim.run()
        assert b.packets_dropped == 1

    def test_fragmented_delivery(self):
        sim, network, a, b = self._two_nodes()
        inbox = []
        server = b.bind(7000)
        server.on_datagram = lambda src, sport, data, md: inbox.append(data)
        payload = bytes(range(256)) * 2
        a.bind().sendto(payload, b.address, 7000)
        sim.run()
        assert inbox == [payload]


class TestMulticastLoopback:
    def test_wired_only_member_gets_loopback_copy(self):
        """A radio-less node that joined the group receives its own
        multicast sends instead of raising StackError."""
        network = Network(Simulator())
        node = network.add_node("wired", wireless=False)
        node.join_group("ff02::fb")
        inbox = []
        server = node.bind(5353)
        server.on_datagram = lambda src, sport, data, md: inbox.append(data)
        node.bind(6000).sendto(b"announce", "ff02::fb", 5353)
        assert inbox == [b"announce"]

    def test_wired_only_non_member_still_raises(self):
        network = Network(Simulator())
        node = network.add_node("wired", wireless=False)
        with pytest.raises(StackError, match="no radio"):
            node.bind(6000).sendto(b"announce", "ff02::fb", 5353)

    def test_wireless_member_still_broadcasts_and_loops_back(self):
        sim = Simulator()
        network = Network(sim)
        a, b = network.add_node("a"), network.add_node("b")
        network.connect_radio("a", "b")
        for node in (a, b):
            node.join_group("ff02::fb")
        inboxes = {"a": [], "b": []}
        for name, node in (("a", a), ("b", b)):
            socket = node.bind(5353)
            socket.on_datagram = (
                lambda src, sport, data, md, name=name:
                inboxes[name].append(data)
            )
        a.bind(6000).sendto(b"hello", "ff02::fb", 5353)
        sim.run()
        assert inboxes["a"] == [b"hello"]
        assert inboxes["b"] == [b"hello"]


class TestLinearTopology:
    def test_one_hop_resolution_path(self):
        from repro.stack import build_linear_topology

        sim = Simulator()
        topo = build_linear_topology(sim, hops=1, clients=2)
        assert topo.relays == []
        assert topo.forwarder is topo.border_router
        inbox = []
        server = topo.resolver_host.bind(7000)
        server.on_datagram = lambda src, sport, data, md: inbox.append(data)
        topo.clients[0].bind().sendto(b"q", topo.resolver_host.address, 7000)
        sim.run()
        assert inbox == [b"q"]

    def test_three_hop_chain_forwards_both_ways(self):
        from repro.stack import build_linear_topology

        sim = Simulator()
        topo = build_linear_topology(sim, hops=3, clients=2)
        assert len(topo.relays) == 2
        assert topo.hops == 3
        echoes = []
        server = topo.resolver_host.bind(7000)

        def echo(src, sport, data, md):
            server.sendto(data + b"!", src, sport)

        server.on_datagram = echo
        client_socket = topo.clients[0].bind(6000)
        client_socket.on_datagram = (
            lambda src, sport, data, md: echoes.append(data)
        )
        client_socket.sendto(b"ping", topo.resolver_host.address, 7000)
        sim.run()
        assert echoes == [b"ping!"]
        # Every hop distance saw traffic.
        for hop in (1, 2, 3):
            assert topo.frames_at_hop(hop) > 0, hop

    def test_wireless_tail_hosts_resolver_on_br(self):
        from repro.stack import build_linear_topology

        sim = Simulator()
        topo = build_linear_topology(sim, hops=2, wired_tail=False)
        assert topo.resolver_host is topo.border_router

    def test_invalid_shapes_rejected(self):
        from repro.stack import build_linear_topology

        with pytest.raises(ValueError):
            build_linear_topology(Simulator(), hops=0)
        with pytest.raises(ValueError):
            build_linear_topology(Simulator(), clients=0)


class TestFigure2Topology:
    def test_multi_hop_forwarding(self):
        sim = Simulator(seed=2)
        topo = build_figure2_topology(sim)
        inbox = []
        server = topo.resolver_host.bind(53)
        server.on_datagram = lambda src, sport, data, md: inbox.append((src, data))
        topo.clients[0].bind().sendto(b"q", topo.resolver_host.address, 53)
        sim.run()
        assert inbox == [(topo.clients[0].address, b"q")]
        assert topo.forwarder.packets_forwarded >= 1
        assert topo.border_router.packets_forwarded >= 1

    def test_reverse_path(self):
        sim = Simulator(seed=3)
        topo = build_figure2_topology(sim)
        inbox = []
        client_sock = topo.clients[1].bind(6000)
        client_sock.on_datagram = lambda src, sport, data, md: inbox.append(data)
        host_sock = topo.resolver_host.bind(53)
        host_sock.sendto(b"resp", topo.clients[1].address, 6000)
        sim.run()
        assert inbox == [b"resp"]

    def test_hop_limit_decrements(self):
        sim = Simulator(seed=4)
        topo = build_figure2_topology(sim)
        # Client -> host passes forwarder + BR: the sniffer sees the
        # frames; we verify the stack forwards rather than re-originates.
        server = topo.resolver_host.bind(53)
        seen = []
        server.on_datagram = lambda src, sport, data, md: seen.append(src)
        topo.clients[0].bind().sendto(b"x", topo.resolver_host.address, 53)
        sim.run()
        assert seen == [topo.clients[0].address]

    def test_sniffer_sees_both_wireless_hops(self):
        sim = Simulator(seed=5)
        topo = build_figure2_topology(sim)
        topo.resolver_host.bind(53).on_datagram = lambda *a: None
        topo.clients[0].bind().sendto(b"x", topo.resolver_host.address, 53)
        sim.run()
        links = [(r.src, r.dst) for r in topo.sniffer.records]
        assert links == [("c1", "forwarder"), ("forwarder", "br")]

    def test_client_count_configurable(self):
        sim = Simulator()
        topo = build_figure2_topology(sim, clients=3)
        assert [c.name for c in topo.clients] == ["c1", "c2", "c3"]

    def test_wired_link_invisible_to_sniffer(self):
        sim = Simulator(seed=6)
        topo = build_figure2_topology(sim)
        topo.resolver_host.bind(53).on_datagram = lambda *a: None
        topo.clients[0].bind().sendto(b"x", topo.resolver_host.address, 53)
        sim.run()
        for record in topo.sniffer.records:
            assert "host" not in (record.src, record.dst)

    def test_metadata_flows_with_frames(self):
        sim = Simulator(seed=7)
        topo = build_figure2_topology(sim)
        topo.resolver_host.bind(53).on_datagram = lambda *a: None
        topo.clients[0].bind().sendto(
            b"x", topo.resolver_host.address, 53, {"kind": "query"}
        )
        sim.run()
        assert all(r.metadata["kind"] == "query" for r in topo.sniffer.records)
