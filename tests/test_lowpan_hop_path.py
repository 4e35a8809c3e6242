"""The 6LoWPAN hop path: what its rewrite must not change, and what it fixes.

* byte identity of IPHC (in the paper's configuration), NHC,
  fragmentation, MAC frames and the UDP checksum against
  ``rfc_lowpan_reference`` (field-by-field encoders that share nothing
  with the code under test), and every stateless IPHC layout that
  oracle writes decoded back;
* memo safety of the per-flow IPHC header memos;
* every frame on the air of two banked cells, hashed;
* reassembly state bounded under loss, and ``header_extents`` rejecting
  what ``decompress`` rejects.
"""

import hashlib
from ipaddress import ip_address

import pytest
from hypothesis import given, settings, strategies as st

import rfc_lowpan_reference as reference
from repro.api import RunSpec, run
from repro.lowpan import (
    FragmentationError,
    Fragmenter,
    LowpanAdaptation,
    MacFrame,
    Reassembler,
    compress,
    decompress,
)
from repro.lowpan.iphc import IphcError, header_extents
from repro.net import Ipv6Packet, UdpDatagram, global_address
from repro.net.ipv6 import address_from_int
from repro.net.udp import udp_checksum
from repro.sim import Simulator
from repro.sim.medium import RadioMedium
from repro.stack.node import Node, StackError

MAC_A = 0x0200_0000_0000_1001
MAC_B = 0x0200_0000_0000_1002
MAC_C = 0x0200_0000_0000_2001
MAC_D = 0x0200_0000_0000_2002


def link_local(iid: int) -> str:
    """The address ``fe80::/64`` + *iid*: IPHC compresses link-local
    addresses, though the stack itself only assigns global ones."""
    return address_from_int((0xFE80 << 112) | iid)


def _mac_derived(mac: int) -> str:
    return link_local(mac ^ (1 << 57))


def _multicast(flags_scope: int, group: int) -> str:
    return address_from_int((0xFF << 120) | (flags_scope << 112) | group)


iids = st.integers(1, (1 << 64) - 1)
#: One strategy per stateless SAM/DAM mode 0-3: every layout decompress
#: reads, fed to it from the oracle's bytes.
sources = st.one_of(
    iids.map(global_address),
    iids.map(link_local),
    st.integers(0, 0xFFFF).map(lambda low: link_local(0x000000FFFE000000 | low)),
    st.just(_mac_derived(MAC_A)),
)
destinations = st.one_of(
    iids.map(global_address),
    iids.map(link_local),
    st.integers(0, 0xFFFF).map(lambda low: link_local(0x000000FFFE000000 | low)),
    st.just(_mac_derived(MAC_B)),
    # Multicast DAM 3, 2, 1, 0.
    st.integers(0, 0xFF).map(lambda group: _multicast(0x02, group)),
    st.builds(_multicast, st.integers(0, 0xFF), st.integers(0x100, (1 << 24) - 1)),
    st.builds(_multicast, st.integers(0, 0xFF), st.integers(1 << 24, (1 << 40) - 1)),
    st.builds(_multicast, st.integers(0, 0xFF), st.integers(1 << 40, (1 << 112) - 1)),
)
hop_limits = st.one_of(st.sampled_from([1, 64, 255]), st.integers(0, 255))
ports = st.integers(0, 0xFFFF)
#: The four NHC port forms of RFC 6282 §4.3.3.
port_pairs = st.one_of(
    st.tuples(st.integers(0xF0B0, 0xF0BF), st.integers(0xF0B0, 0xF0BF)),
    st.tuples(ports, st.integers(0xF000, 0xF0FF)),
    st.tuples(st.integers(0xF000, 0xF0FF), ports),
    st.tuples(ports, ports),
)
payloads = st.binary(max_size=1200)

#: The paper's configuration (Section 5.1), where the oracle picks the
#: modes compress writes: SAM/DAM 3 or 0, multicast DAM 3 or 0, TF
#: elided, UDP with both ports inline.
paper_sources = st.one_of(iids.map(global_address), st.just(_mac_derived(MAC_A)))
paper_destinations = st.one_of(
    iids.map(global_address),
    st.just(_mac_derived(MAC_B)),
    st.integers(0, 0xFF).map(lambda group: _multicast(0x02, group)),
    st.builds(_multicast, st.integers(0, 0xFF), st.integers(1 << 40, (1 << 112) - 1)),
)
inline_ports = st.integers(0, 0xFFFF).filter(lambda port: port >> 8 != 0xF0)


@st.composite
def packets(draw, paper=False):
    """``(Ipv6Packet, the oracle's uncompressed bytes)``; with *paper*,
    one in the paper's configuration."""
    src = draw(paper_sources if paper else sources)
    dst = draw(paper_destinations if paper else destinations)
    payload = draw(payloads)
    next_header = 17 if paper else draw(st.one_of(st.just(17), st.integers(0, 255)))
    if next_header == 17:
        src_port, dst_port = draw(
            st.tuples(inline_ports, inline_ports) if paper else port_pairs
        )
        body = UdpDatagram(src_port, dst_port, payload).encode(src, dst)
        assert body == reference.udp_datagram(src, dst, src_port, dst_port, payload)
    else:
        body = payload
    fields = dict(
        next_header=next_header,
        hop_limit=draw(hop_limits),
        traffic_class=0 if paper else draw(st.sampled_from([0, 0, 0x03, 0x20, 0xB9, 0xFF])),
        flow_label=0 if paper else draw(st.sampled_from([0, 0, 1, 0xFFFFF])),
    )
    packet = Ipv6Packet(src, dst, body, **fields)
    return packet, reference.ipv6_packet(src, dst, body, **fields)


def _round_trips_or_refuses(packet):
    """``compress`` writes what ``decompress`` reads back, or refuses a
    packet outside the paper's configuration: a traffic class or flow
    label to carry, or a next header other than UDP."""
    if packet.traffic_class or packet.flow_label or packet.next_header != 17:
        with pytest.raises(IphcError):
            compress(packet, MAC_A, MAC_B)
        return None
    compressed = compress(packet, MAC_A, MAC_B)
    assert decompress(compressed, MAC_A, MAC_B) == packet
    return compressed


class TestByteIdentity:
    """compress writes the oracle's bytes in the paper's configuration,
    and decompress reads every stateless layout the oracle writes."""

    @settings(max_examples=300, deadline=None)
    @given(packets())
    def test_every_stateless_layout_decodes_from_the_oracle(self, drawn):
        packet, uncompressed = drawn
        assert packet.encode() == uncompressed
        oracle = reference.iphc_compress(uncompressed, MAC_A, MAC_B)
        assert decompress(oracle, MAC_A, MAC_B) == packet
        compressed_header, uncompressed_header = header_extents(oracle)
        assert uncompressed_header == 40 + (8 if packet.next_header == 17 else 0)
        assert len(oracle) - compressed_header == len(uncompressed) - uncompressed_header
        _round_trips_or_refuses(packet)

    @settings(max_examples=300, deadline=None)
    @given(packets(paper=True))
    def test_iphc_fragments_and_frames_match_the_reference(self, drawn):
        packet, uncompressed = drawn
        assert packet.encode() == uncompressed
        compressed = compress(packet, MAC_A, MAC_B)
        assert compressed == reference.iphc_compress(uncompressed, MAC_A, MAC_B)
        assert decompress(compressed, MAC_A, MAC_B) == packet

        compressed_header, uncompressed_header = header_extents(compressed)
        assert uncompressed_header == 48
        assert (
            len(compressed) - compressed_header
            == len(uncompressed) - uncompressed_header
        )

        expected = reference.fragments(compressed, len(uncompressed), tag=0)
        assert Fragmenter(MacFrame.max_payload()).fragment(
            compressed, packet.total_length
        ) == expected

        sender, receiver = LowpanAdaptation(MAC_A), LowpanAdaptation(MAC_B)
        # frame_sizes consumes neither sequence numbers nor fragment
        # tags: the frames after it start at sequence 0 and carry tag 0.
        sizes = sender.frame_sizes(packet, MAC_B)
        frames = sender.packet_to_frames(packet, MAC_B)
        pdus = [frame.encode() for frame in frames]
        assert pdus == [
            reference.mac_pdu(MAC_A, MAC_B, seq, payload)
            for seq, payload in enumerate(expected)
        ]
        assert sizes == [len(pdu) for pdu in pdus]
        delivered = [
            receiver.frame_to_packet(MacFrame.decode(pdu), now=0.0) for pdu in pdus
        ]
        assert delivered[:-1] == [None] * (len(pdus) - 1)
        assert delivered[-1] == packet

    def test_sequence_numbers_and_tags_run_on_across_packets(self):
        sender = LowpanAdaptation(MAC_A)
        src, dst = global_address(1), global_address(2)
        seen = []
        for index in range(130):  # 520 frames: the 8-bit sequence wraps
            body = UdpDatagram(5683, 5683, bytes(250)).encode(src, dst)
            packet = Ipv6Packet(src, dst, body)
            compressed = compress(packet, MAC_A, MAC_B)
            expected = reference.fragments(compressed, packet.total_length, tag=index)
            for frame, payload in zip(sender.packet_to_frames(packet, MAC_B), expected):
                assert frame.encode() == reference.mac_pdu(
                    MAC_A, MAC_B, len(seen), payload
                )
                seen.append(frame.seq)
        assert seen == [index & 0xFF for index in range(520)]

    @given(sources, destinations, st.binary(max_size=301))
    def test_udp_checksum_is_the_word_loop(self, src, dst, datagram):
        expected = reference.udp_checksum(src, dst, datagram)
        assert udp_checksum(src, dst, datagram) == expected
        assert udp_checksum(src, dst, memoryview(datagram)) == expected

    @given(sources, destinations, st.binary(max_size=64))
    def test_udp_checksum_zero_goes_as_all_ones(self, src, dst, datagram):
        """A buffer that carries its own checksum sums to 0xFFFF, whose
        complement, 0, is transmitted as 0xFFFF (RFC 768)."""
        if len(datagram) % 2:
            datagram += b"\x00"
        carried = reference.udp_checksum(src, dst, datagram + b"\x00\x00")
        whole = datagram + carried.to_bytes(2, "big")
        assert reference.udp_checksum(src, dst, whole) == 0xFFFF
        assert udp_checksum(src, dst, whole) == 0xFFFF


class TestRfc6282Layouts:
    """TF 00 (§3.2.1) and the multicast DAM modes (§3.2.4) byte for byte:
    the oracle writes the RFC's layout and the codec reads it back. The
    header runs from source MAC_A's elided address, hop limit 64 and UDP
    NHC. compress writes none of these layouts: it carries these
    multicast groups in full (DAM 00) and refuses a traffic class or
    flow label, which the paper's configuration elides."""

    @pytest.mark.parametrize(
        "dst,traffic_class,flow_label,header",
        [
            # TF 11 | NH | HLIM 10; SAM 11, M, DAM 10: flags/scope, 24 bits.
            ("ff05::fb", 0, 0, "7e3a" "050000fb"),
            ("ff05::1:3", 0, 0, "7e3a" "05010003"),
            # A group past 24 bits takes DAM 01: flags/scope, 40 bits.
            ("ff05::100:0", 0, 0, "7e39" "050001000000"),
            # TF 00: ECN ‖ DSCP (0xb9 is DSCP 46, ECN 01), pad, flow label.
            (_mac_derived(MAC_B), 0xB9, 0x12345, "6633" "6e012345"),
            (_mac_derived(MAC_B), 0x03, 0, "6633" "c0000000"),
        ],
        ids=["ff05::fb", "ff05::1:3", "dam01", "dscp-ecn-flow", "ecn-only"],
    )
    def test_codec_and_oracle_write_the_rfc_bytes(
        self, dst, traffic_class, flow_label, header
    ):
        src = _mac_derived(MAC_A)
        body = UdpDatagram(5683, 5683, b"q").encode(src, dst)
        fields = dict(traffic_class=traffic_class, flow_label=flow_label)
        packet = Ipv6Packet(src, dst, body, **fields)
        expected = bytes.fromhex(header)
        oracle = reference.iphc_compress(
            reference.ipv6_packet(src, dst, body, **fields), MAC_A, MAC_B
        )
        assert oracle[: len(expected)] == expected
        assert oracle[len(expected)] == 0b11110000  # NHC, ports inline
        assert header_extents(oracle) == (len(expected) + 7, 48)
        assert decompress(oracle, MAC_A, MAC_B) == packet

        if traffic_class or flow_label:
            with pytest.raises(IphcError):
                compress(packet, MAC_A, MAC_B)
            return
        compressed = compress(packet, MAC_A, MAC_B)
        # SAM 11, M, DAM 00: the group's 16 bytes inline.
        assert compressed[:18] == bytes.fromhex("7e38") + ip_address(dst).packed
        assert decompress(compressed, MAC_A, MAC_B) == packet


class TestMemoSafety:
    def _elided(self):
        """A datagram whose two addresses are elided: taken from the MACs."""
        src, dst = _mac_derived(MAC_A), _mac_derived(MAC_B)
        body = UdpDatagram(5683, 5683, b"x").encode(src, dst)
        return compress(Ipv6Packet(src, dst, body), MAC_A, MAC_B)

    def test_same_header_bytes_on_two_links_name_two_addresses(self):
        compressed = self._elided()
        for _ in range(2):  # the second round is served from the memo
            first = decompress(compressed, MAC_A, MAC_B)
            second = decompress(compressed, MAC_C, MAC_D)
            assert (first.src, first.dst) == (_mac_derived(MAC_A), _mac_derived(MAC_B))
            assert (second.src, second.dst) == (_mac_derived(MAC_C), _mac_derived(MAC_D))

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"\x7a",
            b"\x41\x00",  # not the IPHC dispatch
            b"\x7a\x00" + bytes(20),  # two 16-byte addresses do not fit
            b"\x7e\x33\xe0" + bytes(8),  # NHC, but not the UDP one
            b"\x7e\x33\xf4" + bytes(8),  # UDP NHC with the checksum elided
            b"\x7e\x33\xf0" + bytes(5),  # ports present, checksum cut
        ],
    )
    def test_an_input_that_raises_raises_again(self, data):
        for function in (header_extents, lambda d: decompress(d, MAC_A, MAC_B)):
            for _ in range(2):
                with pytest.raises(IphcError):
                    function(data)

    @settings(max_examples=60, deadline=None)
    @given(packets())
    def test_every_prefix_decodes_or_raises_the_documented_error(self, drawn):
        packet, uncompressed = drawn
        compressed = reference.iphc_compress(uncompressed, MAC_A, MAC_B)
        header_end, _ = header_extents(compressed)
        for cut in range(len(compressed)):
            prefix = compressed[:cut]
            if cut < header_end:
                with pytest.raises(IphcError):
                    decompress(prefix, MAC_A, MAC_B)
                with pytest.raises(IphcError):
                    header_extents(prefix)
            else:  # cut inside the payload: a shorter, valid datagram
                assert header_extents(prefix)[0] == header_end
                assert decompress(prefix, MAC_A, MAC_B).payload != packet.payload

    def test_every_prefix_of_a_fragment_and_a_frame_raises_cleanly(self):
        src, dst = global_address(1), global_address(2)
        body = UdpDatagram(5683, 5683, bytes(range(200))).encode(src, dst)
        frames = LowpanAdaptation(MAC_A).packet_to_frames(
            Ipv6Packet(src, dst, body), MAC_B
        )
        assert len(frames) == 3
        for frame in frames:
            for cut in range(len(frame.payload)):
                try:  # a fragment cut short is an incomplete datagram
                    assert Reassembler().push(MAC_A, frame.payload[:cut], 0.0) is None
                except FragmentationError:
                    assert cut < 5
            pdu = frame.encode()
            for cut in range(len(pdu)):
                if cut < 23:
                    with pytest.raises(ValueError):
                        MacFrame.decode(pdu[:cut])
                else:
                    assert MacFrame.decode(pdu[:cut]).src == MAC_A
        for cut in range(len(body)):
            with pytest.raises(ValueError):
                UdpDatagram.decode(body[:cut])

    @settings(max_examples=60, deadline=None)
    @given(packets())
    def test_bytes_and_memoryview_inputs_give_equal_results(self, drawn):
        packet, uncompressed = drawn
        oracle = reference.iphc_compress(uncompressed, MAC_A, MAC_B)
        view = memoryview(oracle)
        assert decompress(view, MAC_A, MAC_B) == decompress(oracle, MAC_A, MAC_B)
        assert header_extents(view) == header_extents(oracle)
        compressed = _round_trips_or_refuses(packet)
        if compressed is None:
            return
        sender = LowpanAdaptation(MAC_A)
        as_bytes, as_views = Reassembler(), Reassembler()
        for frame in sender.packet_to_frames(packet, MAC_B):
            pdu = frame.encode()
            assert MacFrame.decode(memoryview(pdu)) == MacFrame.decode(pdu) == frame
            whole = as_bytes.push(MAC_A, frame.payload, 0.0)
            viewed = as_views.push(MAC_A, memoryview(frame.payload), 0.0)
            assert (whole is None) == (viewed is None)
        assert bytes(viewed) == whole == compressed


class TestHeaderWalk:
    """``header_extents`` and ``decompress`` reject the same inputs."""

    UNSUPPORTED = {
        "CID": b"\x7a\x80" + bytes(40),
        "SAC": b"\x7a\x40" + bytes(40),
        "DAC": b"\x7a\x04" + bytes(40),
        "TF 01": b"\x6a\x00" + bytes(43),
        "TF 10": b"\x72\x00" + bytes(41),
    }

    @pytest.mark.parametrize("mode", sorted(UNSUPPORTED))
    def test_unsupported_modes_raise_from_both(self, mode):
        data = self.UNSUPPORTED[mode]
        with pytest.raises(IphcError):
            decompress(data, MAC_A, MAC_B)
        with pytest.raises(IphcError):
            header_extents(data)

    @pytest.mark.parametrize("mode", sorted(UNSUPPORTED))
    def test_frag1_with_an_unsupported_header_never_completes(self, mode):
        chunk = self.UNSUPPORTED[mode] + bytes(54)  # 96 bytes
        size = 96 + 8
        reassembler = Reassembler()
        frag1 = bytes([0xC0 | size >> 8, size & 0xFF, 0, 7]) + chunk
        fragn = bytes([0xE0 | size >> 8, size & 0xFF, 0, 7, 96 // 8]) + bytes(8)
        assert reassembler.push(MAC_A, frag1, now=0.0) is None
        assert reassembler.push(MAC_A, fragn, now=0.1) is None
        assert len(reassembler._partial) == 1
        # ... and it expires like any other partial datagram.
        other = bytes([0xC0, 200, 0, 8]) + bytes(96)
        assert reassembler.push(MAC_A, other, now=61.0) is None
        assert len(reassembler._partial) == 1


class TestReassemblyStateIsBounded:
    def test_partials_past_their_time_leave_when_the_next_is_stored(self):
        reassembler = Reassembler()
        for tag in range(500):  # each datagram loses its second fragment
            frag1 = bytes([0xC0, 200, tag >> 8, tag & 0xFF]) + bytes(96)
            assert reassembler.push(MAC_A, frag1, now=float(tag)) is None
            assert len(reassembler._partial) <= 61
        assert len(reassembler._partial) == 61

    def test_a_partial_past_its_time_completes_nothing(self):
        sender, receiver = LowpanAdaptation(MAC_A), LowpanAdaptation(MAC_B)
        src, dst = global_address(1), global_address(2)
        body = UdpDatagram(5683, 5683, bytes(150)).encode(src, dst)
        first, second = sender.packet_to_frames(Ipv6Packet(src, dst, body), MAC_B)
        assert receiver.frame_to_packet(first, now=0.0) is None
        assert receiver.frame_to_packet(second, now=60.5) is None
        assert receiver.frame_to_packet(first, now=60.6) is not None

    def test_every_node_stays_bounded_over_3000_lossy_queries(self, monkeypatch):
        reassemblers = []
        init = Reassembler.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            reassemblers.append(self)

        monkeypatch.setattr(Reassembler, "__init__", recording_init)
        report = run(RunSpec.from_spec(
            "figure2,transport=coap,loss=0.25,queries=3000,duration=1260,seed=20230"
        ))
        assert report.metrics["queries.issued"] == 3000
        assert len(reassemblers) >= 4
        held = 0
        for reassembler in reassemblers:
            arrivals = [p.first_arrival for p in reassembler._partial.values()]
            held += len(arrivals)
            # Nothing older than the timeout was left when the youngest
            # partial was stored (the parent tree held 23 at the
            # forwarder here, the oldest from the first minute).
            assert arrivals == sorted(arrivals)
            assert not arrivals or arrivals[-1] - arrivals[0] <= 60.0
            assert len(reassembler._partial) <= 4
        assert held > 0  # the cell does lose fragments for good


def _on_air_digest(spec: str, monkeypatch) -> str:
    """SHA-256 over every frame an observer of *spec*'s medium sees."""
    digest = hashlib.sha256()

    def observe(time, src, dst, frame, metadata, lost):
        seen = (time, src, dst, bytes(frame), sorted(metadata.items(), key=repr), lost)
        digest.update(repr(seen).encode())

    init = RadioMedium.__init__

    def observed_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.add_observer(observe)

    with monkeypatch.context() as patch:
        patch.setattr(RadioMedium, "__init__", observed_init)
        run(RunSpec.from_spec(spec))
    return digest.hexdigest()


class TestOnTheAir:
    #: Banked from the tree before the rewrite (commit 019d203).
    BANKED = {
        "figure2,transport=coap,loss=0.25,queries=200,seed=20230":
            "0657a2094f5e065235cc62ef71ebe0fbb85c2e21ca6af1274e2aedc3aa265449",
        "figure2,transport=oscore,loss=0.05,cache=all,zipf=1.0,queries=100,seed=20230":
            "a040a61594468fdf474cf65df92d8b0209c880e50e7c1ead7b5c7c02c6b5578f",
    }

    @pytest.mark.parametrize("spec", sorted(BANKED))
    def test_every_frame_time_and_annotation_is_the_banked_one(self, spec, monkeypatch):
        assert _on_air_digest(spec, monkeypatch) == self.BANKED[spec]

    def test_a_receiver_mutating_its_metadata_does_not_reach_the_sender(self):
        sim = Simulator(seed=1)
        medium = RadioMedium(sim)
        seen = []
        medium.add_observer(lambda *event: seen.append(dict(event[4])))
        a = Node("a", sim, global_address(1), MAC_A, medium)
        b = Node("b", sim, global_address(2), MAC_B, medium)
        medium.connect("a", "b")
        a.add_radio_neighbour(b.address, b.mac)
        a._neighbour_names[b.address] = "b"

        def scribble(src_addr, src_port, payload, metadata):
            metadata["kind"] = "scribbled"

        b.bind(5683).on_datagram = scribble
        loopback = a.bind(5683)
        loopback.on_datagram = scribble
        mine = {"kind": "query"}
        socket = a.bind()
        socket.sendto(bytes(150), b.address, 5683, mine)  # two fragments
        socket.sendto(b"x", a.address, 5683, mine)  # delivered on the node itself
        sim.run()
        assert b.packets_delivered == 1 and a.packets_delivered == 1
        assert mine == {"kind": "query"}
        assert seen == [{"kind": "query"}] * 2


def test_a_node_built_directly_reports_an_unknown_neighbour():
    sim = Simulator(seed=1)
    node = Node("a", sim, global_address(1), MAC_A, RadioMedium(sim))
    node.add_radio_neighbour(global_address(2), MAC_B)
    with pytest.raises(StackError, match="unknown neighbour"):
        node.bind().sendto(b"x", global_address(2), 5683)
