"""Topology construction, including the paper's Figure 2 deployment.

The generic builder is :func:`build_linear_topology`: *clients* leaf
nodes reach a resolver host over a chain of wireless relay hops ending
at a border router, optionally followed by a wired BR↔host link (the
testbed's TCP-tunneled UART + Ethernet). The paper's Figure 2 topology
is the two-wireless-hop instance, kept as
:func:`build_figure2_topology` for compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.net.ipv6 import global_address
from repro.sim.core import Simulator
from repro.sim.medium import RadioMedium
from repro.sim.trace import FrameTally, Sniffer

from .node import Node


class Network:
    """A simulation network: one radio medium plus wired attachments.

    Every network keeps the allocation-free :class:`FrameTally` in
    :attr:`tally`, which the aggregate views (per-link counts/bytes,
    per-kind totals, such as :meth:`LinearTopology.frames_at_hop`)
    read. ``capture`` says whether a :class:`Sniffer` keeps every frame
    as well: ``"records"`` (default) attaches one as :attr:`sniffer`,
    ``"counts"`` leaves :attr:`sniffer` ``None`` — measurably cheaper
    per frame, which is what scenario runs use.
    """

    def __init__(
        self, sim: Simulator, l2_retries: int = 3, capture: str = "records"
    ) -> None:
        self.sim = sim
        self.medium = RadioMedium(sim, l2_retries=l2_retries)
        if capture not in ("records", "counts"):
            raise ValueError(
                f"capture must be 'records' or 'counts', got {capture!r}"
            )
        self.tally = FrameTally(self.medium)
        self.sniffer: Optional[Sniffer] = (
            Sniffer(self.medium) if capture == "records" else None
        )
        self.nodes: Dict[str, Node] = {}
        self._next_iid = 1

    def add_node(self, name: str, wireless: bool = True) -> Node:
        """Create a node; wireless nodes attach to the shared medium."""
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        iid = self._next_iid
        self._next_iid += 1
        node = Node(
            name=name,
            sim=self.sim,
            address=global_address(iid),
            mac=0x0200_0000_0000_1000 | iid,
            medium=self.medium if wireless else None,
        )
        self.nodes[name] = node
        return node

    def connect_radio(self, a: str, b: str, loss: float = 0.0) -> None:
        """Radio adjacency with symmetric per-frame loss probability."""
        node_a, node_b = self.nodes[a], self.nodes[b]
        self.medium.connect(a, b, loss)
        node_a.add_radio_neighbour(node_b.address, node_b.mac)
        node_b.add_radio_neighbour(node_a.address, node_a.mac)
        node_a._neighbour_names[node_b.address] = b
        node_b._neighbour_names[node_a.address] = a

    def connect_wired(self, a: str, b: str, latency: float = 0.001) -> None:
        """Lossless wired link (the BR's TCP-tunneled UART + Ethernet)."""
        node_a, node_b = self.nodes[a], self.nodes[b]
        node_a.add_wired_neighbour(node_b.address, node_b, latency)
        node_b.add_wired_neighbour(node_a.address, node_a, latency)

    def set_route(self, node: str, dst: str, via: str) -> None:
        self.nodes[node].set_route(self.nodes[dst].address, self.nodes[via].address)

    def set_default_route(self, node: str, via: str) -> None:
        self.nodes[node].default_route = self.nodes[via].address


@dataclass
class LinearTopology:
    """Clients behind a chain of wireless hops ending at the sink.

    ``relays`` is ordered client-side first; it is empty for a one-hop
    topology where the clients talk to the border router directly. The
    paper's Figure 2 deployment (C1, C2 → P → BR → S) is the two-hop
    instance with a single relay.
    """

    network: Network
    clients: List[Node]
    relays: List[Node]
    border_router: Node
    resolver_host: Node

    @property
    def forwarder(self) -> Node:
        """The node the clients attach to (proxy placement point)."""
        return self.relays[0] if self.relays else self.border_router

    @property
    def hops(self) -> int:
        """Wireless hops between a client and the border router."""
        return len(self.relays) + 1

    @property
    def sniffer(self) -> Optional[Sniffer]:
        return self.network.sniffer

    @property
    def tally(self) -> FrameTally:
        return self.network.tally

    def links_at_hop(self, distance: int) -> List[tuple]:
        """Radio links at *distance* wireless hops from the sink (BR).

        Distance 1 is the bottleneck link into the border router;
        distance ``hops`` is the outermost client links.
        """
        chain = [*self.relays, self.border_router]
        hops = len(chain)
        if distance < 1 or distance > hops:
            return []
        if distance == hops:
            attach = chain[0]
            return [(client.name, attach.name) for client in self.clients]
        index = hops - distance - 1
        return [(chain[index].name, chain[index + 1].name)]

    def frames_at_hop(self, distance: int) -> int:
        return sum(
            self.tally.frame_count(a, b) for a, b in self.links_at_hop(distance)
        )

    def bytes_at_hop(self, distance: int) -> int:
        return sum(
            self.tally.bytes_on_link(a, b) for a, b in self.links_at_hop(distance)
        )

    # -- the Figure 10 accounting views -------------------------------------

    def client_proxy_frames(self) -> int:
        """Frames on the outermost links (clients ↔ first relay)."""
        return self.frames_at_hop(self.hops)

    def proxy_sink_frames(self) -> int:
        """Frames on the 1-hop-distance bottleneck into the BR."""
        return self.frames_at_hop(1)

    def client_proxy_bytes(self) -> int:
        return self.bytes_at_hop(self.hops)

    def proxy_sink_bytes(self) -> int:
        return self.bytes_at_hop(1)


#: Backwards-compatible name: the Figure 2 topology is a two-hop
#: :class:`LinearTopology`.
Figure2Topology = LinearTopology


def build_linear_topology(
    sim: Simulator,
    hops: int = 2,
    clients: int = 2,
    loss: float = 0.0,
    l2_retries: int = 3,
    wired_tail: bool = True,
    capture: str = "records",
) -> LinearTopology:
    """Construct a linear multi-hop topology.

    Clients reach the resolver host via ``hops - 1`` relay nodes and the
    border router (all radio hops), then — when *wired_tail* is true —
    a wired BR↔host link. With ``wired_tail=False`` the border router
    itself hosts the resolver (an all-wireless deployment). Static
    routes model a converged RPL DODAG. *capture* picks the frame
    observer (see :class:`Network`).
    """
    if hops < 1:
        raise ValueError(f"need at least one wireless hop, got {hops}")
    if clients < 1:
        raise ValueError(f"need at least one client, got {clients}")
    network = Network(sim, l2_retries=l2_retries, capture=capture)
    client_nodes = [network.add_node(f"c{i + 1}") for i in range(clients)]
    relay_names = (
        ["forwarder"] if hops == 2 else [f"fwd{i + 1}" for i in range(hops - 1)]
    )
    relays = [network.add_node(name) for name in relay_names]
    border_router = network.add_node("br")

    # Radio chain: clients → relays… → border router.
    chain_names = [*relay_names, "br"]
    for client in client_nodes:
        network.connect_radio(client.name, chain_names[0], loss=loss)
    for near, far in zip(chain_names, chain_names[1:]):
        network.connect_radio(near, far, loss=loss)

    if wired_tail:
        host = network.add_node("host", wireless=False)
        network.connect_wired("br", "host")
    else:
        host = border_router

    # Upward default routes along the chain; downward per-client routes.
    upstream = [*chain_names] + (["host"] if wired_tail else [])
    for client in client_nodes:
        network.set_default_route(client.name, chain_names[0])
    for near, far in zip(upstream, upstream[1:]):
        network.set_default_route(near, far)
    if wired_tail:
        network.set_default_route("host", "br")

    # Downward routes: each node on the path routes to every client via
    # the next node toward the clients.
    downstream = (["host"] if wired_tail else []) + ["br", *reversed(relay_names)]
    for client in client_nodes:
        for node_name, via in zip(downstream, downstream[1:]):
            network.set_route(node_name, client.name, via)
        network.set_route(downstream[-1], client.name, client.name)

    return LinearTopology(
        network=network,
        clients=client_nodes,
        relays=relays,
        border_router=border_router,
        resolver_host=host,
    )


def build_figure2_topology(
    sim: Simulator,
    clients: int = 2,
    loss: float = 0.0,
    l2_retries: int = 3,
) -> LinearTopology:
    """Construct the two-wireless-hop topology of Figure 2.

    Clients reach the resolver host via the forwarder (radio hop), the
    border router (radio hop), and a wired BR↔host link.
    """
    return build_linear_topology(
        sim, hops=2, clients=clients, loss=loss, l2_retries=l2_retries,
    )
