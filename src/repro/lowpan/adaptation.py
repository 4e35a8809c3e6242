"""The per-node 6LoWPAN adaptation: compress → fragment → MAC frames.

One :class:`LowpanAdaptation` per node ties IPHC and fragmentation to
the node's MAC address and produces/consumes the MAC frames the radio
medium moves around.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.ipv6 import Ipv6Packet

from .fragmentation import Fragmenter, Reassembler
from .ieee802154 import FCS_LEN, MacFrame, mac_header_length
from .iphc import compress, decompress


class LowpanAdaptation:
    """6LoWPAN send/receive processing for one interface."""

    def __init__(self, mac: int, reassembly_timeout: float = 60.0) -> None:
        self.mac = mac
        self._fragmenter = Fragmenter(MacFrame.max_payload())
        self._reassembler = Reassembler(reassembly_timeout)
        self._seq = 0

    def packet_to_frames(self, packet: Ipv6Packet, next_hop_mac: int) -> List[MacFrame]:
        """Compress and (if needed) fragment *packet* for one hop."""
        compressed = compress(packet, self.mac, next_hop_mac)
        payloads = self._fragmenter.fragment(compressed, packet.total_length)
        mac, first_seq = self.mac, self._seq
        self._seq = first_seq + len(payloads)
        return [
            MacFrame(mac, next_hop_mac, (first_seq + index) & 0xFF, payload)
            for index, payload in enumerate(payloads)
        ]

    def frame_to_packet(self, frame: MacFrame, now: float) -> Optional[Ipv6Packet]:
        """Feed a received frame; returns the packet when complete."""
        compressed = self._reassembler.push(frame.src, frame.payload, now)
        if compressed is None:
            return None
        return decompress(compressed, frame.src, self.mac)

    def frame_sizes(self, packet: Ipv6Packet, next_hop_mac: int) -> List[int]:
        """PDU sizes (including MAC header + FCS) this packet produces.

        Analytical helper for the packet-size figures; does not consume
        sequence numbers or fragment tags.
        """
        compressed = compress(packet, self.mac, next_hop_mac)
        payloads = Fragmenter(MacFrame.max_payload()).fragment(
            compressed, packet.total_length
        )
        overhead = mac_header_length() + FCS_LEN
        return [overhead + len(payload) for payload in payloads]
