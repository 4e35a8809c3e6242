"""6LoWPAN tests: MAC frames, IPHC modes, fragmentation/reassembly."""

import pytest
from hypothesis import given, settings, strategies as st

import rfc_lowpan_reference as reference
from repro.lowpan import (
    FragmentationError,
    Fragmenter,
    LowpanAdaptation,
    MacFrame,
    Reassembler,
    compress,
    decompress,
    mac_header_length,
)
from repro.lowpan.ieee802154 import FRAME_MAX_PDU
from repro.lowpan.iphc import IphcError, header_extents
from repro.net import Ipv6Packet, UdpDatagram, global_address
from repro.net.ipv6 import address_from_int

MAC_A = 0x0200_0000_0000_1001
MAC_B = 0x0200_0000_0000_1002


def link_local(iid: int) -> str:
    """The address ``fe80::/64`` + *iid*: IPHC compresses link-local
    addresses, though the stack itself only assigns global ones."""
    return address_from_int((0xFE80 << 112) | iid)


def _packet(payload=b"x" * 20, src=None, dst=None, **kwargs):
    src = src or global_address(1)
    dst = dst or global_address(2)
    datagram = UdpDatagram(5683, 5683, payload)
    return Ipv6Packet(src, dst, datagram.encode(src, dst), **kwargs)


def _oracle(packet):
    """The reference encoder's IPHC bytes for *packet*: the layouts
    compress does not write reach decompress from here."""
    return reference.iphc_compress(packet.encode(), MAC_A, MAC_B)


class TestMacFrames:
    def test_header_length_21(self):
        assert mac_header_length() == 21

    def test_max_payload_104(self):
        assert MacFrame.max_payload() == 127 - 21 - 2

    def test_round_trip(self):
        frame = MacFrame(src=MAC_A, dst=MAC_B, seq=7, payload=b"data")
        decoded = MacFrame.decode(frame.encode())
        assert decoded.src == MAC_A and decoded.dst == MAC_B
        assert decoded.seq == 7 and decoded.payload == b"data"

    def test_oversized_payload_rejected(self):
        with pytest.raises(ValueError):
            MacFrame(src=MAC_A, dst=MAC_B, seq=0, payload=bytes(105))

    def test_pdu_limit(self):
        frame = MacFrame(src=MAC_A, dst=MAC_B, seq=0, payload=bytes(104))
        assert len(frame.encode()) == FRAME_MAX_PDU


class TestIphc:
    def test_udp_round_trip_global(self):
        packet = _packet()
        compressed = compress(packet, MAC_A, MAC_B)
        restored = decompress(compressed, MAC_A, MAC_B)
        assert restored.src == packet.src and restored.dst == packet.dst
        assert UdpDatagram.decode(restored.payload).payload == b"x" * 20
        assert restored.hop_limit == 64

    def test_global_addresses_fully_inline(self):
        """Stateless IPHC cannot compress global addresses: 32 bytes
        inline (the Section 5.1 configuration)."""
        packet = _packet()
        compressed = compress(packet, MAC_A, MAC_B)
        # 2 IPHC + 32 address + 1 NHC + 4 ports + 2 checksum + payload
        assert len(compressed) == 2 + 32 + 7 + 20

    def test_link_local_iid_inline(self):
        packet = _packet(src=link_local(0xAA), dst=link_local(0xBB))
        oracle = _oracle(packet)  # SAM/DAM 01: two 64-bit IIDs inline
        assert len(oracle) == 2 + 16 + 7 + 20
        assert decompress(oracle, MAC_A, MAC_B) == packet
        # compress carries an IID the MAC does not derive in full.
        compressed = compress(packet, MAC_A, MAC_B)
        assert len(compressed) == 2 + 32 + 7 + 20
        assert decompress(compressed, MAC_A, MAC_B) == packet

    def test_mac_derived_iid_fully_elided(self):
        src = link_local(MAC_A ^ (1 << 57))
        dst = link_local(MAC_B ^ (1 << 57))
        packet = _packet(src=src, dst=dst)
        compressed = compress(packet, MAC_A, MAC_B)
        assert len(compressed) == 2 + 0 + 7 + 20
        restored = decompress(compressed, MAC_A, MAC_B)
        assert restored.src == src and restored.dst == dst

    def test_16bit_iid_mode(self):
        src = link_local(0x000000FFFE001234)
        packet = _packet(src=src)
        restored = decompress(_oracle(packet), MAC_A, MAC_B)
        assert restored.src == src

    def test_multicast_8bit(self):
        packet = _packet(dst="ff02::1")
        restored = decompress(compress(packet, MAC_A, MAC_B), MAC_A, MAC_B)
        assert restored.dst == "ff02::1"

    def test_multicast_32bit(self):
        packet = _packet(dst="ff05::fb")  # mDNS-style scope-5
        restored = decompress(_oracle(packet), MAC_A, MAC_B)
        assert restored.dst == "ff05::fb"

    def test_hop_limit_compressed_values(self):
        for hlim in (1, 64, 255):
            packet = _packet(hop_limit=hlim)
            restored = decompress(compress(packet, MAC_A, MAC_B), MAC_A, MAC_B)
            assert restored.hop_limit == hlim

    def test_hop_limit_inline(self):
        packet = _packet(hop_limit=63)  # after one forwarding hop
        restored = decompress(compress(packet, MAC_A, MAC_B), MAC_A, MAC_B)
        assert restored.hop_limit == 63

    def test_traffic_class_inline_when_nonzero(self):
        packet = _packet(traffic_class=0x20)
        restored = decompress(_oracle(packet), MAC_A, MAC_B)
        assert restored.traffic_class == 0x20
        # The paper's configuration elides TF: compress refuses to carry it.
        with pytest.raises(IphcError):
            compress(packet, MAC_A, MAC_B)

    def test_udp_checksum_preserved(self):
        packet = _packet(payload=b"checksum-test")
        restored = decompress(compress(packet, MAC_A, MAC_B), MAC_A, MAC_B)
        assert restored.payload == packet.payload

    def test_non_iphc_rejected(self):
        with pytest.raises(IphcError):
            decompress(b"\x41\x00", MAC_A, MAC_B)

    def test_header_extents_match_compression(self):
        packet = _packet(payload=b"")
        compressed = compress(packet, MAC_A, MAC_B)
        compressed_hdr, uncompressed_hdr = header_extents(compressed)
        assert compressed_hdr == len(compressed)
        assert uncompressed_hdr == 48

    @given(st.binary(max_size=120))
    def test_round_trip_property(self, payload):
        packet = _packet(payload=payload)
        restored = decompress(compress(packet, MAC_A, MAC_B), MAC_A, MAC_B)
        assert UdpDatagram.decode(restored.payload).payload == payload


class TestFragmentation:
    def test_no_fragmentation_small(self):
        fragmenter = Fragmenter(MacFrame.max_payload())
        assert len(fragmenter.fragment(bytes(50), 90)) == 1

    def test_fragment_count_and_sizes(self):
        fragmenter = Fragmenter(MacFrame.max_payload())
        packet = _packet(payload=bytes(200))
        compressed = compress(packet, MAC_A, MAC_B)
        fragments = fragmenter.fragment(compressed, packet.total_length)
        assert len(fragments) > 1
        for fragment in fragments:
            assert len(fragment) <= MacFrame.max_payload()

    def test_reassembly_in_order(self):
        adaptation_a, adaptation_b = LowpanAdaptation(MAC_A), LowpanAdaptation(MAC_B)
        packet = _packet(payload=bytes(range(250)))
        frames = adaptation_a.packet_to_frames(packet, MAC_B)
        assert len(frames) >= 3
        result = None
        for frame in frames:
            result = adaptation_b.frame_to_packet(frame, now=0.0)
        assert result is not None
        assert UdpDatagram.decode(result.payload).payload == bytes(range(250))

    def test_reassembly_out_of_order(self):
        adaptation_a, adaptation_b = LowpanAdaptation(MAC_A), LowpanAdaptation(MAC_B)
        packet = _packet(payload=bytes(range(250)))
        frames = adaptation_a.packet_to_frames(packet, MAC_B)
        reordered = [frames[1], frames[0]] + list(frames[2:])
        result = None
        for frame in reordered:
            result = adaptation_b.frame_to_packet(frame, now=0.0)
        assert result is not None

    def test_missing_middle_fragment_no_delivery(self):
        """A hole must never produce a (corrupt) packet — the bug class
        behind DNS RdataErrors in early caching runs."""
        adaptation_a, adaptation_b = LowpanAdaptation(MAC_A), LowpanAdaptation(MAC_B)
        packet = _packet(payload=bytes(300))
        frames = adaptation_a.packet_to_frames(packet, MAC_B)
        assert len(frames) >= 3
        result = None
        for frame in frames[:1] + frames[2:]:  # drop the middle one
            result = adaptation_b.frame_to_packet(frame, now=0.0)
        assert result is None

    def test_interleaved_datagrams(self):
        adaptation_a, adaptation_b = LowpanAdaptation(MAC_A), LowpanAdaptation(MAC_B)
        packet1 = _packet(payload=b"\x01" * 200)
        packet2 = _packet(payload=b"\x02" * 200)
        frames1 = adaptation_a.packet_to_frames(packet1, MAC_B)
        frames2 = adaptation_a.packet_to_frames(packet2, MAC_B)
        results = []
        for f1, f2 in zip(frames1, frames2):
            for frame in (f1, f2):
                result = adaptation_b.frame_to_packet(frame, now=0.0)
                if result is not None:
                    results.append(UdpDatagram.decode(result.payload).payload)
        assert sorted(results) == [b"\x01" * 200, b"\x02" * 200]

    def test_reassembly_timeout(self):
        adaptation_a, adaptation_b = LowpanAdaptation(MAC_A), LowpanAdaptation(MAC_B)
        packet = _packet(payload=bytes(250))
        frames = adaptation_a.packet_to_frames(packet, MAC_B)
        adaptation_b.frame_to_packet(frames[0], now=0.0)
        # After the 60 s timeout the partial state is discarded, so
        # feeding the remaining fragments cannot complete the datagram.
        result = None
        for frame in frames[1:]:
            result = adaptation_b.frame_to_packet(frame, now=120.0)
        assert result is None

    def test_datagram_size_cap(self):
        fragmenter = Fragmenter(MacFrame.max_payload())
        with pytest.raises(FragmentationError):
            fragmenter.fragment(bytes(2100), 2100)

    def test_distinct_tags_per_datagram(self):
        fragmenter = Fragmenter(MacFrame.max_payload())
        f1 = fragmenter.fragment(bytes(150), 190)
        f2 = fragmenter.fragment(bytes(150), 190)
        tag1 = f1[0][2:4]
        tag2 = f2[0][2:4]
        assert tag1 != tag2

    def test_empty_payload_rejected(self):
        with pytest.raises(FragmentationError):
            Reassembler().push(1, b"", now=0.0)

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=800), st.integers(0, 2**16 - 1))
    def test_fragment_reassemble_property(self, size, seed):
        import random as _random

        rng = _random.Random(seed)
        payload = bytes(rng.randrange(256) for _ in range(size))
        adaptation_a = LowpanAdaptation(MAC_A)
        adaptation_b = LowpanAdaptation(MAC_B)
        packet = _packet(payload=payload)
        frames = adaptation_a.packet_to_frames(packet, MAC_B)
        result = None
        for frame in frames:
            result = adaptation_b.frame_to_packet(frame, now=0.0)
        assert result is not None
        assert UdpDatagram.decode(result.payload).payload == payload
