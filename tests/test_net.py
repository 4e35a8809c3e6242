"""IPv6/UDP reference encoding tests."""

import pytest
from hypothesis import given, strategies as st

from repro.net import (
    Ipv6Packet,
    UdpDatagram,
    global_address,
    udp_checksum,
)


class TestAddresses:
    def test_global_format(self):
        assert global_address(1) == "2001:db8::1"

    def test_iid_range_validation(self):
        with pytest.raises(ValueError):
            global_address(-1)


class TestIpv6:
    def test_encode_header_fields(self):
        packet = Ipv6Packet(global_address(1), global_address(2), b"payload")
        wire = packet.encode()
        assert len(wire) == 40 + 7
        assert wire[0] >> 4 == 6
        assert int.from_bytes(wire[4:6], "big") == 7
        assert wire[6] == 17   # UDP
        assert wire[7] == 64   # hop limit

    def test_decode_round_trip(self):
        packet = Ipv6Packet(
            global_address(1), global_address(2), b"data",
            hop_limit=33, traffic_class=8, flow_label=0x12345,
        )
        decoded = Ipv6Packet.decode(packet.encode())
        assert decoded == packet

    def test_total_length(self):
        packet = Ipv6Packet(global_address(1), global_address(2), bytes(10))
        assert packet.total_length == 50

    def test_hop_decrement(self):
        packet = Ipv6Packet(global_address(1), global_address(2), b"", hop_limit=2)
        assert packet.hop_decremented().hop_limit == 1
        with pytest.raises(ValueError):
            packet.hop_decremented().hop_decremented()

    def test_version_check_on_decode(self):
        data = bytearray(Ipv6Packet(global_address(1), global_address(2), b"").encode())
        data[0] = 0x40
        with pytest.raises(ValueError):
            Ipv6Packet.decode(bytes(data))

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            Ipv6Packet.decode(bytes(39))


class TestUdp:
    def test_encode_fields(self):
        datagram = UdpDatagram(5683, 53, b"query")
        wire = datagram.encode(global_address(1), global_address(2))
        assert int.from_bytes(wire[0:2], "big") == 5683
        assert int.from_bytes(wire[2:4], "big") == 53
        assert int.from_bytes(wire[4:6], "big") == 13

    def test_decode_round_trip(self):
        datagram = UdpDatagram(1000, 2000, b"abc")
        wire = datagram.encode(global_address(1), global_address(2))
        assert UdpDatagram.decode(wire) == datagram

    def test_checksum_nonzero(self):
        datagram = UdpDatagram(5683, 53, b"query")
        wire = datagram.encode(global_address(1), global_address(2))
        assert wire[6:8] != b"\x00\x00"

    def test_checksum_depends_on_addresses(self):
        datagram = UdpDatagram(5683, 53, b"query")
        wire1 = datagram.encode(global_address(1), global_address(2))
        wire2 = datagram.encode(global_address(1), global_address(3))
        assert wire1[6:8] != wire2[6:8]

    def test_port_validation(self):
        with pytest.raises(ValueError):
            UdpDatagram(70000, 53, b"")

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            UdpDatagram.decode(bytes(7))

    def test_checksum_ones_complement_rules(self):
        assert udp_checksum(global_address(1), global_address(2), b"") != 0

    @given(st.binary(max_size=200), st.integers(0, 65535), st.integers(0, 65535))
    def test_round_trip_property(self, payload, src_port, dst_port):
        datagram = UdpDatagram(src_port, dst_port, payload)
        wire = datagram.encode(global_address(1), global_address(2))
        assert UdpDatagram.decode(wire) == datagram
