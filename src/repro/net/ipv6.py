"""IPv6 header encoding (RFC 8200) and address helpers.

The simulator shuttles addresses around as presentation-format strings
but needs their binary forms on every frame (IPHC compression, UDP
pseudo-header checksums, multicast routing checks). A simulation uses
a small, fixed set of addresses, so every conversion is memoised —
profiles showed ``ipaddress`` string parsing as one of the costliest
per-frame operations before these caches existed.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass, field
from functools import lru_cache

_HEXTETS = struct.Struct("!8H")

IPV6_HEADER_LEN = 40
NEXT_HEADER_UDP = 17
DEFAULT_HOP_LIMIT = 64


@lru_cache(maxsize=8192)
def address_int(address: str) -> int:
    """*address* as a 128-bit integer (memoised)."""
    return int(ipaddress.IPv6Address(address))


@lru_cache(maxsize=8192)
def packed_address(address: str) -> bytes:
    """*address* in 16-byte network order (memoised)."""
    return ipaddress.IPv6Address(address).packed


@lru_cache(maxsize=8192)
def address_from_int(value: int) -> str:
    """Canonical presentation form of a 128-bit value (memoised)."""
    return address_from_packed(value.to_bytes(16, "big"))


@lru_cache(maxsize=8192)
def address_from_packed(packed: bytes) -> str:
    """Canonical presentation form of 16 network-order bytes (memoised).

    A direct RFC 5952 formatter: lowercase hextets without leading
    zeros and the leftmost longest run of two or more zero hextets
    compressed to ``::``. Byte-identical to ``str(IPv6Address(...))``
    (property-tested) but several times faster — AAAA rdata decoding
    made the ``ipaddress`` round-trip the hottest part of cache-miss
    DNS decodes.
    """
    hextets = _HEXTETS.unpack(packed)
    best_start = -1
    best_len = 0
    run_start = -1
    for index in range(8):
        if hextets[index] == 0:
            if run_start < 0:
                run_start = index
            if index - run_start + 1 > best_len:
                best_start = run_start
                best_len = index - run_start + 1
        else:
            run_start = -1
    if best_len < 2:
        return "%x:%x:%x:%x:%x:%x:%x:%x" % hextets
    head = ":".join("%x" % value for value in hextets[:best_start])
    tail = ":".join("%x" % value for value in hextets[best_start + best_len :])
    return f"{head}::{tail}"


@lru_cache(maxsize=8192)
def canonical_address(address: str) -> str:
    """The canonical (compressed, lowercase) form of *address*."""
    return str(ipaddress.IPv6Address(address))


@lru_cache(maxsize=8192)
def is_multicast(address: str) -> bool:
    """True for ``ff00::/8`` addresses (memoised)."""
    return address_int(address) >> 120 == 0xFF


def global_address(iid: int, prefix: int = 0x2001_0DB8_0000_0000) -> str:
    """A global unicast address ``2001:db8::/64`` with the given IID.

    Global addresses cannot be elided by stateless IPHC (the paper
    deactivates context-based compression, Section 5.1), so they travel
    fully inline — 16 bytes each — which is what pushes several packet
    types of Figure 6 over the fragmentation limit.
    """
    if not 0 <= iid < 1 << 64:
        raise ValueError("interface ID must fit in 64 bits")
    return address_from_int((prefix << 64) | iid)


@dataclass(frozen=True, slots=True)
class Ipv6Packet:
    """An IPv6 packet carrying a UDP payload.

    ``payload`` is the complete next-header payload (e.g. the encoded
    UDP datagram). Traffic class and flow label default to 0, matching
    the paper's setup so IPHC elides them.
    """

    src: str
    dst: str
    payload: bytes
    next_header: int = NEXT_HEADER_UDP
    hop_limit: int = DEFAULT_HOP_LIMIT
    traffic_class: int = 0
    flow_label: int = 0

    def encode(self) -> bytes:
        """Uncompressed wire format (40-byte header + payload)."""
        if len(self.payload) > 0xFFFF:
            raise ValueError("payload too long for IPv6 length field")
        first = (6 << 28) | (self.traffic_class << 20) | self.flow_label
        header = (
            first.to_bytes(4, "big")
            + len(self.payload).to_bytes(2, "big")
            + bytes([self.next_header, self.hop_limit])
            + packed_address(self.src)
            + packed_address(self.dst)
        )
        return header + self.payload

    @property
    def total_length(self) -> int:
        return IPV6_HEADER_LEN + len(self.payload)

    def hop_decremented(self) -> "Ipv6Packet":
        """The packet after one routing hop."""
        if self.hop_limit <= 1:
            raise ValueError("hop limit exhausted")
        return Ipv6Packet(
            self.src,
            self.dst,
            self.payload,
            self.next_header,
            self.hop_limit - 1,
            self.traffic_class,
            self.flow_label,
        )

    @classmethod
    def decode(cls, data: bytes) -> "Ipv6Packet":
        if len(data) < IPV6_HEADER_LEN:
            raise ValueError("truncated IPv6 header")
        first = int.from_bytes(data[0:4], "big")
        version = first >> 28
        if version != 6:
            raise ValueError(f"not an IPv6 packet (version {version})")
        length = int.from_bytes(data[4:6], "big")
        packet = cls(
            src=address_from_packed(bytes(data[8:24])),
            dst=address_from_packed(bytes(data[24:40])),
            payload=bytes(data[40 : 40 + length]),
            next_header=data[6],
            hop_limit=data[7],
            traffic_class=(first >> 20) & 0xFF,
            flow_label=first & 0xFFFFF,
        )
        if len(packet.payload) != length:
            raise ValueError("truncated IPv6 payload")
        return packet
