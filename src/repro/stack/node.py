"""A simulated IPv6/6LoWPAN node with UDP sockets and static routing."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.lowpan import LowpanAdaptation, MacFrame
from repro.net.ipv6 import Ipv6Packet, canonical_address, is_multicast
from repro.net.udp import UdpDatagram
from repro.sim.core import Simulator
from repro.sim.medium import RadioMedium

#: IEEE 802.15.4 broadcast address (16-bit 0xFFFF, widened here).
BROADCAST_MAC = 0xFFFF

#: IANA dynamic/private port range used for ephemeral allocation.
EPHEMERAL_PORT_RANGE = (49152, 65535)


class StackError(Exception):
    """Raised on stack misconfiguration (no route, port in use, ...)."""


class UdpSocket:
    """A bound UDP port on a node.

    Attributes
    ----------
    on_datagram:
        Callback ``(src_addr, src_port, payload, metadata)`` invoked for
        every datagram delivered to this port.
    """

    def __init__(self, node: "Node", port: int) -> None:
        self.node = node
        self.port = port
        self.on_datagram: Optional[Callable[[str, int, bytes, dict], None]] = None

    def sendto(
        self,
        payload: bytes,
        dst_addr: str,
        dst_port: int,
        metadata: Optional[dict] = None,
    ) -> None:
        """Send *payload* to ``dst_addr:dst_port``.

        *metadata* is carried with the resulting frames for the sniffer
        (e.g. ``{"kind": "query"}``).
        """
        datagram = UdpDatagram(self.port, dst_port, payload)
        packet = Ipv6Packet(
            self.node.address,
            dst_addr,
            datagram.encode(self.node.address, dst_addr),
        )
        self.node.send_packet(packet, metadata or {})


class Node:
    """One network node: radio or wired attachment, routing, UDP."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        address: str,
        mac: int,
        medium: Optional[RadioMedium] = None,
    ) -> None:
        self.name = name
        self.sim = sim
        self.address = address
        self.mac = mac
        self.medium = medium
        self.lowpan = LowpanAdaptation(mac)
        self._sockets: Dict[int, UdpSocket] = {}
        #: dst address -> next hop address (static RPL stand-in).
        self.routes: Dict[str, str] = {}
        self.default_route: Optional[str] = None
        #: neighbour address -> (is_wireless, mac or peer node)
        self._neighbours: Dict[str, Tuple[bool, object]] = {}
        #: neighbour address -> the name its radio interface is
        #: registered under (filled in by the network object).
        self._neighbour_names: Dict[str, str] = {}
        self._ephemeral_port = EPHEMERAL_PORT_RANGE[0]
        #: Multicast groups this node has joined (ff02::/16 link scope).
        self.multicast_groups: set = set()
        self.packets_forwarded = 0
        self.packets_delivered = 0
        self.packets_dropped = 0
        if medium is not None:
            medium.register(name, self._receive_frame)

    # -- configuration ---------------------------------------------------

    def add_radio_neighbour(self, address: str, mac: int) -> None:
        self._neighbours[address] = (True, mac)

    def add_wired_neighbour(self, address: str, peer: "Node", latency: float) -> None:
        self._neighbours[address] = (False, (peer, latency))

    def set_route(self, dst_addr: str, next_hop_addr: str) -> None:
        self.routes[dst_addr] = next_hop_addr

    def join_group(self, group_addr: str) -> None:
        """Subscribe to a link-local multicast group."""
        if not is_multicast(group_addr):
            raise StackError(f"{group_addr} is not a multicast address")
        self.multicast_groups.add(canonical_address(group_addr))

    def bind(self, port: int = 0) -> UdpSocket:
        """Bind a UDP socket; port 0 picks an ephemeral port."""
        if port == 0:
            port = self._allocate_ephemeral_port()
        if port in self._sockets:
            raise StackError(f"port {port} already bound on {self.name}")
        socket = UdpSocket(self, port)
        self._sockets[port] = socket
        return socket

    def _allocate_ephemeral_port(self) -> int:
        """Next free port in the dynamic range, wrapping at the top."""
        low, high = EPHEMERAL_PORT_RANGE
        span = high - low + 1
        for _ in range(span):
            port = self._ephemeral_port
            self._ephemeral_port = low + (port + 1 - low) % span
            if port not in self._sockets:
                return port
        raise StackError(f"{self.name}: ephemeral ports exhausted")

    # -- sending / forwarding ----------------------------------------------

    def _next_hop(self, dst_addr: str) -> str:
        if dst_addr in self._neighbours:
            return dst_addr
        next_hop = self.routes.get(dst_addr, self.default_route)
        if next_hop is None:
            raise StackError(f"{self.name}: no route to {dst_addr}")
        return next_hop

    def send_packet(self, packet: Ipv6Packet, metadata: dict) -> None:
        """Route *packet* out of this node (also used when forwarding)."""
        # The one defensive copy per packet per hop: the caller's dict
        # (a socket user's, or the one the previous hop put on the air)
        # is never handed on. The fragments of a packet share the copy.
        metadata = dict(metadata)
        if packet.dst == self.address:
            self._deliver(packet, metadata)
            return
        if is_multicast(packet.dst):
            self._send_multicast(packet, metadata)
            return
        next_hop = self._next_hop(packet.dst)
        wireless, info = self._neighbours[next_hop]
        if wireless:
            if self.medium is None:
                raise StackError(f"{self.name} has no radio")
            next_mac = info
            frames = self.lowpan.packet_to_frames(packet, next_mac)
            neighbour_name = self._neighbour_name(next_hop)
            for frame in frames:
                self.medium.transmit(
                    self.name, neighbour_name, frame.encode(), metadata
                )
        else:
            peer, latency = info
            self.sim.schedule(latency, peer._receive_packet, packet, metadata)

    def _send_multicast(self, packet: Ipv6Packet, metadata: dict) -> None:
        """Broadcast a link-scope multicast packet to all neighbours."""
        # Loopback first: members on this node receive the packet even
        # when there is no radio to broadcast it on (wired-only nodes).
        member = str(packet.dst) in self.multicast_groups
        if member:
            self._deliver(packet, metadata)
        if self.medium is None:
            if member:
                return
            raise StackError(f"{self.name} has no radio for multicast")
        frames = self.lowpan.packet_to_frames(packet, BROADCAST_MAC)
        for frame in frames:
            self.medium.broadcast(self.name, frame.encode(), metadata)

    def _neighbour_name(self, address: str) -> str:
        name = self._neighbour_names.get(address)
        if name is None:
            raise StackError(f"{self.name}: unknown neighbour {address}")
        return name

    # -- receiving ------------------------------------------------------------

    def _receive_frame(self, src_name: str, frame_bytes: bytes, metadata: dict) -> None:
        frame = MacFrame.decode(frame_bytes)
        if frame.dst != self.mac and frame.dst != BROADCAST_MAC:
            return  # not for us (promiscuous frames ignored)
        packet = self.lowpan.frame_to_packet(frame, self.sim.now)
        if packet is None:
            return  # awaiting more fragments
        self._receive_packet(packet, metadata)

    def _receive_packet(self, packet: Ipv6Packet, metadata: dict) -> None:
        if packet.dst == self.address:
            self._deliver(packet, metadata)
            return
        if is_multicast(packet.dst):
            # Link-scope multicast is never forwarded; deliver only to
            # joined groups.
            if str(packet.dst) in self.multicast_groups:
                self._deliver(packet, metadata)
            return
        # Forward.
        if packet.hop_limit <= 1:
            self.packets_dropped += 1
            return
        self.packets_forwarded += 1
        self.send_packet(packet.hop_decremented(), metadata)

    def _deliver(self, packet: Ipv6Packet, metadata: dict) -> None:
        try:
            datagram = UdpDatagram.decode(packet.payload)
        except ValueError:
            self.packets_dropped += 1
            return
        socket = self._sockets.get(datagram.dst_port)
        if socket is None or socket.on_datagram is None:
            self.packets_dropped += 1
            return
        self.packets_delivered += 1
        socket.on_datagram(packet.src, datagram.src_port, datagram.payload, metadata)
