"""LOWPAN_IPHC header compression (RFC 6282) with UDP NHC.

Configured as the paper does for comparable RIOT/Linux behaviour
(Section 5.1): stateless address compression only (no context IDs),
and traffic class / flow label zeroed so they can be elided.

What :func:`compress` writes is the paper's configuration and nothing
else:

* TF: elided; a packet with a non-zero traffic class or flow label
  raises :class:`IphcError`;
* NH: UDP next-header compression (LOWPAN_NHC, §4.3), both ports and
  the checksum inline; another next header raises;
* HLIM: 1/64/255 compressed into the header, else 1 byte inline;
* SAM/DAM (stateless): fully elided (mode 3) for the link-local address
  derived from the link-layer address, the full 128 bits (mode 0) for
  any other unicast address; DAM 3 for a ``ff02::00XX`` multicast
  destination, 0 for any other.

What :func:`decompress` reads is every stateless layout of RFC 6282,
since the bytes come from another node's stack:

* TF: elided, or 4 bytes inline laid out ECN ‖ DSCP ‖ 4 pad bits ‖
  flow label (§3.2.1); the two partial modes raise;
* NH: a next header inline, or UDP NHC with any of the 4/8/16-bit port
  compression cases; an elided checksum raises;
* HLIM: any of the four modes;
* SAM/DAM: unicast modes 0-3 (128, 64, 16 bits inline, or derived from
  the link-layer address), multicast modes 0-3 (128, 48, 32 or 8 bits:
  ``ffXX::00XX:XXXX:XXXX``, ``ffXX::00XX:XXXX``, ``ff02::00XX``).

The IPHC header is worked out once per flow, not once per packet per
hop. Two bounded memos (1 024 entries each, the idiom of
:mod:`repro.net.ipv6`: a simulation uses a small, fixed set of
addresses) hold it:

* :func:`_header`, on the way out, is keyed on everything the header,
  its inline fields and the NHC ports depend on: ``(src, dst,
  hop_limit, src_mac, dst_mac, src_port, dst_port)``;
* :func:`_parse_header`, on the way in, is keyed on ``(header bytes,
  src_mac, dst_mac)``. The MACs are part of the key because an elided
  IID (SAM/DAM 11) is taken from them: the same header bytes on another
  link name other addresses.

:func:`_walk` validates every input on every call, before either memo
is consulted: dispatch, context flags, TF mode and every bound. What is
memoised is only the decoding of header bytes that passed it; an input
that raises is never cached, so it raises again.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Tuple

from repro.net.ipv6 import (
    NEXT_HEADER_UDP,
    Ipv6Packet,
    address_from_int,
    address_from_packed,
    address_int,
    packed_address,
)

_DISPATCH = 0b011
_LINK_LOCAL_PREFIX = 0xFE80 << 48
_HLIM_MODES = {1: 0b01, 64: 0b10, 255: 0b11}
_HLIM_VALUES = (None, 1, 64, 255)
#: Inline address bytes per SAM/DAM mode 0-3.
_UNICAST_INLINE = (16, 8, 2, 0)
_MULTICAST_INLINE = (16, 6, 4, 1)
_NHC_UDP = 0b11110000
#: Inline port bytes per NHC port mode 0-3.
_NHC_PORT_BYTES = (4, 3, 3, 1)

_PORTS = struct.Struct("!HH")
_NHC_INLINE_PORTS = struct.Struct("!BHH")
_PORT = struct.Struct("!H")
_TF_INLINE = struct.Struct("!I")
_UDP_PORTS_LENGTH = struct.Struct("!HHH")


class IphcError(ValueError):
    """Raised when a header cannot be compressed or parsed."""


def _iid_from_mac(mac: int) -> int:
    """EUI-64 derived IID: the MAC with the U/L bit flipped."""
    return mac ^ (1 << 57)


def _compress_unicast(address: str, mac: int) -> Tuple[int, bytes]:
    """Return (mode, inline_bytes) for a unicast address: elided when it
    is the link-local address derived from *mac*, else all 16 bytes."""
    if address_int(address) == (_LINK_LOCAL_PREFIX << 64) | _iid_from_mac(mac):
        return 3, b""
    return 0, packed_address(address)


def _decompress_unicast(mode: int, inline: bytes, mac: int) -> str:
    if mode == 0:
        return address_from_packed(inline)
    if mode == 1:
        iid = int.from_bytes(inline, "big")
    elif mode == 2:
        iid = (0x000000FFFE00 << 16) | int.from_bytes(inline, "big")
    else:
        iid = _iid_from_mac(mac)
    return address_from_int((_LINK_LOCAL_PREFIX << 64) | iid)


def _decompress_multicast(mode: int, inline: bytes) -> str:
    if mode == 0:
        return address_from_packed(inline)
    if mode == 3:
        return address_from_int((0xFF02 << 112) | inline[0])
    # Modes 1 and 2: the scope byte, then a 40- or 24-bit group.
    group = int.from_bytes(inline[1:], "big")
    return address_from_int((0xFF << 120) | (inline[0] << 112) | group)


@lru_cache(maxsize=1024)
def _header(
    src: str,
    dst: str,
    hop_limit: int,
    src_mac: int,
    dst_mac: int,
    src_port: int,
    dst_port: int,
) -> bytes:
    """The two IPHC bytes, their inline fields and the UDP NHC byte with
    both ports inline, for one flow on one hop."""
    hlim_mode = _HLIM_MODES.get(hop_limit, 0b00)
    value = address_int(dst)
    multicast = value >> 120 == 0xFF
    sam, src_inline = _compress_unicast(src, src_mac)
    if not multicast:
        dam, dst_inline = _compress_unicast(dst, dst_mac)
    elif value >> 8 == 0xFF02 << 104:  # ff02::00XX
        dam, dst_inline = 3, bytes((value & 0xFF,))
    else:
        dam, dst_inline = 0, packed_address(dst)
    # TF elided, NH compressed.
    out = bytearray((
        (_DISPATCH << 5) | 0b11100 | hlim_mode,
        (sam << 4) | (multicast << 3) | dam,
    ))
    if hlim_mode == 0b00:
        out.append(hop_limit)
    out += src_inline
    out += dst_inline
    out += _NHC_INLINE_PORTS.pack(_NHC_UDP, src_port, dst_port)
    return bytes(out)


def compress(packet: Ipv6Packet, src_mac: int, dst_mac: int) -> bytes:
    """Compress the UDP *packet* into IPHC form for one 802.15.4 hop."""
    if packet.traffic_class or packet.flow_label:
        raise IphcError("traffic class and flow label must be 0 to be elided")
    if packet.next_header != NEXT_HEADER_UDP:
        raise IphcError("only UDP is compressed")
    datagram = packet.payload
    if len(datagram) < 8:
        raise IphcError("truncated UDP header")
    # The length field is elided (it follows from the frame); the
    # checksum always travels inline, in front of the payload.
    return _header(
        packet.src, packet.dst, packet.hop_limit, src_mac, dst_mac,
        *_PORTS.unpack_from(datagram),
    ) + datagram[6:]


def _walk(data: bytes) -> Tuple[int, int]:
    """The one header walk: ``(iphc_end, nhc_end)`` of a datagram.

    ``iphc_end`` is the length of the two IPHC bytes and their inline
    fields, ``nhc_end`` additionally covers the UDP NHC byte and its
    inline ports (equal to ``iphc_end`` without NHC); the inline
    checksum, when there is one, is the two bytes at ``nhc_end``.
    Raises :class:`IphcError` for everything this codec does not
    implement and for every field the input is too short to hold.
    """
    size = len(data)
    if size < 2 or data[0] >> 5 != _DISPATCH:
        raise IphcError("not an IPHC header")
    byte1, byte2 = data[0], data[1]
    if byte2 & 0xC4:  # CID, SAC, DAC
        raise IphcError("context-based compression unsupported")
    tf_mode = (byte1 >> 3) & 0b11
    if tf_mode == 0b11:
        end = 2
    elif tf_mode == 0b00:
        end = 6
    else:
        raise IphcError(f"TF mode {tf_mode} unsupported")
    if not byte1 & 0b11:
        end += 1  # hop limit inline
    end += _UNICAST_INLINE[byte2 >> 4 & 0b11]
    end += (_MULTICAST_INLINE if byte2 & 0b1000 else _UNICAST_INLINE)[byte2 & 0b11]
    if not byte1 & 0b100:
        end += 1  # next header inline, no NHC
        if size < end:
            raise IphcError("truncated IPHC input")
        return end, end
    if size <= end:
        raise IphcError("truncated IPHC input")
    nhc = data[end]
    if nhc >> 3 != _NHC_UDP >> 3:
        raise IphcError("not a UDP NHC header")
    if nhc & 0x04:
        raise IphcError("elided UDP checksum unsupported")
    nhc_end = end + 1 + _NHC_PORT_BYTES[nhc & 0b11]
    if size < nhc_end + 2:
        raise IphcError("truncated IPHC input")
    return end, nhc_end


@lru_cache(maxsize=1024)
def _parse_header(
    header: bytes, src_mac: int, dst_mac: int
) -> Tuple[str, str, int, int, int, int]:
    """``(src, dst, next_header, hop_limit, traffic_class, flow_label)``
    of header bytes :func:`_walk` accepted and measured."""
    byte1, byte2 = header[0], header[1]
    offset = 2
    traffic_class = flow_label = 0
    if not byte1 & 0b11000:
        (combined,) = _TF_INLINE.unpack_from(header, 2)
        ecn_dscp = combined >> 24
        traffic_class = ((ecn_dscp & 0x3F) << 2) | (ecn_dscp >> 6)
        flow_label = combined & 0xFFFFF
        offset = 6
    next_header = NEXT_HEADER_UDP
    if not byte1 & 0b100:
        next_header = header[offset]
        offset += 1
    hop_limit = _HLIM_VALUES[byte1 & 0b11]
    if hop_limit is None:
        hop_limit = header[offset]
        offset += 1
    sam, dam = byte2 >> 4 & 0b11, byte2 & 0b11
    dst_at = offset + _UNICAST_INLINE[sam]
    src = _decompress_unicast(sam, header[offset:dst_at], src_mac)
    if byte2 & 0b1000:
        dst = _decompress_multicast(dam, header[dst_at:])
    else:
        dst = _decompress_unicast(dam, header[dst_at:], dst_mac)
    return src, dst, next_header, hop_limit, traffic_class, flow_label


def header_extents(data: bytes) -> Tuple[int, int]:
    """Compressed vs. uncompressed header lengths of an IPHC datagram.

    Parses only the header fields (no payload needed), which lets the
    reassembler compute how many *uncompressed* bytes the FRAG1
    fragment covers: ``len(frag1_chunk) + (uncompressed - compressed)``.
    Rejects exactly what :func:`decompress` rejects.
    """
    iphc_end, nhc_end = _walk(data)
    if nhc_end == iphc_end:
        return iphc_end, 40
    return nhc_end + 2, 48  # checksum inline


def decompress(data: bytes, src_mac: int, dst_mac: int) -> Ipv6Packet:
    """Inverse of :func:`compress` for one hop."""
    iphc_end, nhc_end = _walk(data)
    src, dst, next_header, hop_limit, traffic_class, flow_label = _parse_header(
        bytes(data[:iphc_end]), src_mac, dst_mac
    )
    if nhc_end == iphc_end:
        payload = bytes(data[iphc_end:])
    else:
        ports_mode = data[iphc_end] & 0b11
        at = iphc_end + 1
        if ports_mode == 0b00:
            src_port, dst_port = _PORTS.unpack_from(data, at)
        elif ports_mode == 0b01:
            (src_port,) = _PORT.unpack_from(data, at)
            dst_port = 0xF000 | data[at + 2]
        elif ports_mode == 0b10:
            src_port = 0xF000 | data[at]
            (dst_port,) = _PORT.unpack_from(data, at + 1)
        else:
            src_port = 0xF0B0 | (data[at] >> 4)
            dst_port = 0xF0B0 | (data[at] & 0xF)
        length = 6 + len(data) - nhc_end  # 8 header bytes, 2 of them inline
        if length > 0xFFFF:
            raise IphcError("UDP datagram too long")
        # The checksum carried inline is spliced back in, not recomputed:
        # the pseudo-header inputs did not change on the hop.
        payload = _UDP_PORTS_LENGTH.pack(src_port, dst_port, length) + data[nhc_end:]
    return Ipv6Packet(
        src, dst, payload, next_header, hop_limit, traffic_class, flow_label
    )
