"""UDP datagram encoding (RFC 768) with the IPv6 pseudo-header checksum."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

from .ipv6 import NEXT_HEADER_UDP, address_int

UDP_HEADER_LEN = 8
#: source port, destination port, length, checksum
_HEADER = struct.Struct("!HHHH")
_PORTS_LENGTH = struct.Struct("!HHH")


@lru_cache(maxsize=1024)
def _pseudo_header_sum(src: str, dst: str) -> int:
    """The address and next-header words of the RFC 8200 §8.1
    pseudo-header, summed; constant per flow (the length is not)."""
    return (address_int(src) + address_int(dst) + NEXT_HEADER_UDP) % 0xFFFF


def udp_checksum(src: str, dst: str, datagram: bytes) -> int:
    """RFC 8200 §8.1 checksum over pseudo-header and UDP datagram.

    Because ``2**16 ≡ 1 (mod 65535)``, the ones'-complement sum of all
    16-bit words of a buffer equals the buffer taken as one big integer
    modulo 0xFFFF, and the sum over pseudo-header ‖ datagram equals the
    sum of their sums — one C-level conversion of the datagram instead
    of a Python loop or a 40-byte concatenation. (The fold maps a word
    sum of 0xFFFF to 0; both invert to the same checksum.)
    """
    length = len(datagram)
    words = int.from_bytes(datagram, "big")
    if length % 2:
        words <<= 8  # the zero pad byte of an odd-length datagram
    total = _pseudo_header_sum(src, dst) + length + words
    checksum = ~(total % 0xFFFF) & 0xFFFF
    return checksum or 0xFFFF  # 0 is transmitted as all-ones


@dataclass(frozen=True, slots=True)
class UdpDatagram:
    """A UDP datagram; checksum is computed on encode."""

    src_port: int
    dst_port: int
    payload: bytes

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"port {port} out of range")

    @property
    def length(self) -> int:
        return UDP_HEADER_LEN + len(self.payload)

    def encode(self, src_addr: str, dst_addr: str) -> bytes:
        ports_length = _PORTS_LENGTH.pack(self.src_port, self.dst_port, self.length)
        checksum = udp_checksum(
            src_addr, dst_addr, ports_length + b"\x00\x00" + self.payload
        )
        return ports_length + checksum.to_bytes(2, "big") + self.payload

    @classmethod
    def decode(cls, data: bytes) -> "UdpDatagram":
        if len(data) < UDP_HEADER_LEN:
            raise ValueError("truncated UDP header")
        src_port, dst_port, length, _checksum = _HEADER.unpack_from(data)
        if length < UDP_HEADER_LEN or length > len(data):
            raise ValueError("invalid UDP length")
        return cls(src_port, dst_port, bytes(data[UDP_HEADER_LEN:length]))
