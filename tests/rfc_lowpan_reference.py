"""Plain RFC 768 / 8200 / 6282 / 4944 / IEEE 802.15.4 encoders, the
oracle for ``repro.net.udp`` and ``repro.lowpan``.

Written to share nothing with the code under test: no memo, no
``struct``, no arithmetic on whole addresses. Every function works on
the *uncompressed* wire format (a 40-byte IPv6 header in front of the
payload), reads each field out of it by position and writes each output
field byte by byte, the checksum is the word loop with end-around carry
of RFC 1071, and addresses go through the standard library's
``ipaddress``. Slow and meant to be.

The two fields whose layout differs from the IPv6 header are written as
RFC 6282 has them: TF 00 carries ECN ‖ DSCP ‖ 4 pad bits ‖ flow label
(§3.2.1: the traffic class's two ECN bits move in front of its six DSCP
bits), and a multicast destination in DAM 10 carries flags/scope and a
24-bit group, the form ``ffXX::00XX:XXXX`` (§3.2.4). Neither occurs in
the paper's set-up (TC and flow label zero, only ``ff02::XX`` groups),
so no banked figure depends on them.
"""

import ipaddress
from typing import List, Tuple

UDP = 17


# -- RFC 768 / RFC 8200 ------------------------------------------------------


def _packed(address: str) -> bytes:
    return ipaddress.IPv6Address(address).packed


def _u16(value: int) -> bytes:
    return bytes([(value >> 8) & 0xFF, value & 0xFF])


def udp_checksum(src: str, dst: str, datagram: bytes) -> int:
    """RFC 8200 §8.1 over pseudo-header ‖ datagram, word by word."""
    buffer = (
        _packed(src)
        + _packed(dst)
        + bytes([0, 0]) + _u16(len(datagram))  # 32-bit upper-layer length
        + bytes([0, 0, 0, UDP])
        + bytes(datagram)
    )
    if len(buffer) % 2:
        buffer += b"\x00"
    total = 0
    for index in range(0, len(buffer), 2):
        total += (buffer[index] << 8) | buffer[index + 1]
        if total > 0xFFFF:
            total = (total & 0xFFFF) + 1  # end-around carry
    checksum = total ^ 0xFFFF
    return checksum if checksum else 0xFFFF  # RFC 768: 0 goes as all-ones


def udp_datagram(src: str, dst: str, src_port: int, dst_port: int, payload: bytes) -> bytes:
    length = 8 + len(payload)
    zeroed = _u16(src_port) + _u16(dst_port) + _u16(length) + b"\x00\x00" + payload
    return zeroed[:6] + _u16(udp_checksum(src, dst, zeroed)) + payload


def ipv6_packet(
    src: str, dst: str, payload: bytes, next_header: int = UDP,
    hop_limit: int = 64, traffic_class: int = 0, flow_label: int = 0,
) -> bytes:
    """RFC 8200 §3: version 6, TC, flow label, length, NH, HLIM, addresses."""
    return (
        bytes([
            0x60 | (traffic_class >> 4),
            ((traffic_class & 0xF) << 4) | (flow_label >> 16),
            (flow_label >> 8) & 0xFF,
            flow_label & 0xFF,
        ])
        + _u16(len(payload))
        + bytes([next_header, hop_limit])
        + _packed(src)
        + _packed(dst)
        + payload
    )


# -- RFC 6282 ----------------------------------------------------------------


def _mac_iid(mac: int) -> bytes:
    """RFC 4944 §6: the EUI-64 with the universal/local bit inverted."""
    eui = [(mac >> shift) & 0xFF for shift in range(56, -8, -8)]
    eui[0] ^= 0x02
    return bytes(eui)


_LINK_LOCAL = bytes([0xFE, 0x80, 0, 0, 0, 0, 0, 0])
_SHORT_IID = bytes([0, 0, 0, 0xFF, 0xFE, 0])


def _unicast_mode(address: bytes, mac: int) -> Tuple[int, bytes]:
    """§3.1.1 SAM/DAM with SAC/DAC = 0: (mode, inline bytes)."""
    if address[:8] != _LINK_LOCAL:
        return 0b00, address
    if address[8:] == _mac_iid(mac):
        return 0b11, b""
    if address[8:14] == _SHORT_IID:
        return 0b10, address[14:]
    return 0b01, address[8:]


def _multicast_mode(address: bytes) -> Tuple[int, bytes]:
    """§3.2.4 DAM with M = 1, DAC = 0."""
    if address[1] == 0x02 and not any(address[2:15]):
        return 0b11, address[15:]
    if not any(address[2:13]):
        return 0b10, address[1:2] + address[13:]
    if not any(address[2:11]):
        return 0b01, address[1:2] + address[11:]
    return 0b00, address


def _udp_nhc(datagram: bytes) -> bytes:
    """§4.3.3: 11110 C P P, ports, checksum; the length is elided."""
    src_port = (datagram[0] << 8) | datagram[1]
    dst_port = (datagram[2] << 8) | datagram[3]
    checksum_and_payload = datagram[6:]
    if src_port & 0xFFF0 == 0xF0B0 and dst_port & 0xFFF0 == 0xF0B0:
        ports = bytes([0b11110011, ((src_port & 0xF) << 4) | (dst_port & 0xF)])
    elif dst_port & 0xFF00 == 0xF000:
        ports = bytes([0b11110001]) + datagram[0:2] + datagram[3:4]
    elif src_port & 0xFF00 == 0xF000:
        ports = bytes([0b11110010]) + datagram[1:2] + datagram[2:4]
    else:
        ports = bytes([0b11110000]) + datagram[0:4]
    return ports + checksum_and_payload


def iphc_compress(packet: bytes, src_mac: int, dst_mac: int) -> bytes:
    """§3.1 on an uncompressed IPv6 packet, stateless (CID = SAC = DAC = 0)."""
    traffic_class = ((packet[0] & 0xF) << 4) | (packet[1] >> 4)
    flow_label = ((packet[1] & 0xF) << 16) | (packet[2] << 8) | packet[3]
    next_header, hop_limit = packet[6], packet[7]
    src, dst, payload = packet[8:24], packet[24:40], packet[40:]

    inline = b""
    if traffic_class or flow_label:
        tf = 0b00  # §3.2.1: ECN, DSCP, 4 pad bits, flow label
        ecn, dscp = traffic_class & 0b11, traffic_class >> 2
        inline += bytes([(ecn << 6) | dscp, flow_label >> 16])
        inline += bytes([(flow_label >> 8) & 0xFF, flow_label & 0xFF])
    else:
        tf = 0b11
    nh = 1 if next_header == UDP else 0
    if not nh:
        inline += bytes([next_header])
    hlim = {1: 0b01, 64: 0b10, 255: 0b11}.get(hop_limit, 0b00)
    if hlim == 0b00:
        inline += bytes([hop_limit])
    sam, src_inline = _unicast_mode(src, src_mac)
    multicast = 1 if dst[0] == 0xFF else 0
    dam, dst_inline = _multicast_mode(dst) if multicast else _unicast_mode(dst, dst_mac)
    first = (0b011 << 5) | (tf << 3) | (nh << 2) | hlim
    second = (0 << 7) | (0 << 6) | (sam << 4) | (multicast << 3) | (0 << 2) | dam
    body = _udp_nhc(payload) if nh else payload
    return bytes([first, second]) + inline + src_inline + dst_inline + body


# -- RFC 4944 §5.3 -----------------------------------------------------------


def fragments(compressed: bytes, datagram_size: int, tag: int, mtu: int = 104) -> List[bytes]:
    """FRAG1 + FRAGN payloads; offsets in 8-byte units of the
    *uncompressed* datagram, every fragment but the last as full as a
    multiple of 8 allows."""
    if len(compressed) <= mtu:
        return [compressed]
    size_and_tag = [datagram_size >> 8, datagram_size & 0xFF, tag >> 8, tag & 0xFF]
    elided = datagram_size - len(compressed)  # header bytes IPHC saved
    # FRAG1 covers uncompressed bytes [0, covered): the largest multiple
    # of 8 whose compressed form still fits behind the 4-byte header.
    covered = ((mtu - 4 + elided) // 8) * 8
    out = [bytes([0b11000_000 | size_and_tag[0]] + size_and_tag[1:]) + compressed[: covered - elided]]
    room = ((mtu - 5) // 8) * 8
    while covered < datagram_size:
        chunk = compressed[covered - elided : covered - elided + room]
        out.append(bytes([0b11100_000 | size_and_tag[0]] + size_and_tag[1:] + [covered // 8]) + chunk)
        covered += len(chunk)
    return out


# -- IEEE 802.15.4 -----------------------------------------------------------


def mac_pdu(src: int, dst: int, seq: int, payload: bytes, pan_id: int = 0x23) -> bytes:
    """Data frame, PAN-ID compression, 64-bit addresses, frame version
    2006; every multi-byte field little-endian; 2-byte FCS placeholder."""
    fcf = 0b001 | (1 << 6) | (0b11 << 10) | (0b01 << 12) | (0b11 << 14)

    def little(value: int, count: int) -> bytes:
        return bytes((value >> (8 * index)) & 0xFF for index in range(count))

    return (
        little(fcf, 2) + bytes([seq & 0xFF]) + little(pan_id, 2)
        + little(dst, 8) + little(src, 8) + payload + b"\x00\x00"
    )
