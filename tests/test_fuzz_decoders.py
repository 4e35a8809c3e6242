"""Decoder fuzzing: arbitrary bytes must fail *cleanly*.

Every wire-format decoder in the repository is fed random and mutated
inputs; the contract is that they either return a valid object or raise
their documented error type — never IndexError/KeyError/struct.error,
which on a constrained device would be the moral equivalent of a crash.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cborlib import CBORDecodeError, loads
from repro.coap.message import CoapMessage, CoapMessageError
from repro.coap.options import OptionError, decode_options
from repro.dns.message import Message, MessageError
from repro.dns.name import NameError_, decode_name
from repro.dtls.record import DtlsError, RecordLayer, split_records
from repro.lowpan.fragmentation import FragmentationError, Reassembler
from repro.lowpan.iphc import IphcError, decompress, header_extents
from repro.oscore.option import OscoreOptionValue
from repro.oscore.context import OscoreError


@given(st.binary(max_size=200))
@example(b"")
@example(b"\xff" * 16)
def test_cbor_loads_clean_errors(data):
    try:
        loads(data)
    except CBORDecodeError:
        pass


@given(st.binary(max_size=200))
@example(b"")
def test_dns_message_decode_clean_errors(data):
    try:
        Message.decode(data)
    except (MessageError, NameError_, ValueError):
        pass


@given(st.binary(max_size=120), st.integers(0, 119))
def test_dns_name_decode_clean_errors(data, offset):
    try:
        decode_name(data, min(offset, len(data)))
    except (NameError_, ValueError):
        pass


@given(st.binary(max_size=200))
@example(b"")
@example(b"\x40\x01\x00\x00")
def test_coap_message_decode_clean_errors(data):
    try:
        CoapMessage.decode(data)
    except (CoapMessageError, OptionError, ValueError):
        pass


@given(st.binary(max_size=100))
def test_coap_options_decode_clean_errors(data):
    try:
        decode_options(data)
    except (OptionError, ValueError):
        pass


@given(st.binary(max_size=64))
def test_oscore_option_decode_clean_errors(data):
    try:
        OscoreOptionValue.decode(data)
    except OscoreError:
        pass


@given(st.binary(max_size=200))
def test_dtls_record_open_clean_errors(data):
    layer = RecordLayer()
    try:
        layer.open(data)
    except (DtlsError, ValueError):
        pass


@given(st.binary(max_size=300))
def test_dtls_split_records_clean_errors(data):
    try:
        split_records(data)
    except DtlsError:
        pass


@given(st.binary(min_size=1, max_size=150))
def test_iphc_decompress_clean_errors(data):
    try:
        decompress(data, 0x1111, 0x2222)
    except (IphcError, ValueError):
        pass


@given(st.binary(min_size=2, max_size=150))
def test_iphc_header_extents_clean_errors(data):
    try:
        header_extents(data)
    except IphcError:
        # The reassembler, its only caller, treats exactly this error
        # as "never completes"; nothing else may escape.
        pass


@given(st.binary(min_size=1, max_size=150), st.integers(0, 3))
def test_reassembler_push_clean_errors(data, sender):
    reassembler = Reassembler()
    try:
        reassembler.push(sender, data, now=0.0)
    except (FragmentationError, IphcError, ValueError):
        pass


class TestBytesMemoryviewParity:
    """The zero-copy contract: ``bytes`` and ``memoryview`` inputs are
    interchangeable — identical decode results, and on bad input the
    identical documented error type."""

    @staticmethod
    def _outcomes_match(decode, data, errors):
        """Decode *data* as bytes and as a memoryview; both sides must
        produce equal results or raise the same error type."""
        outcomes = []
        for variant in (data, memoryview(data)):
            try:
                outcomes.append(("ok", repr(decode(variant))))
            except errors as exc:
                outcomes.append(("err", type(exc).__name__))
        assert outcomes[0] == outcomes[1], outcomes
        return outcomes[0]

    @given(st.binary(max_size=200))
    @example(b"")
    def test_dns_parity(self, data):
        self._outcomes_match(
            Message.decode, data, (MessageError, NameError_, ValueError)
        )

    @given(st.binary(max_size=200))
    @example(b"")
    @example(b"\x40\x01\x00\x00")
    def test_coap_parity(self, data):
        self._outcomes_match(
            CoapMessage.decode, data,
            (CoapMessageError, OptionError, ValueError),
        )

    @given(st.binary(max_size=200))
    @example(b"")
    @example(b"\xff" * 16)
    def test_cbor_parity(self, data):
        self._outcomes_match(loads, data, (CBORDecodeError,))

    @given(st.integers(0, 80))
    def test_truncated_valid_dns_parity(self, cut):
        from repro.experiments.packet_sizes import canonical_messages

        wire = canonical_messages()["response_aaaa"].encode()
        self._outcomes_match(
            Message.decode, wire[: min(cut, len(wire))],
            (MessageError, NameError_, ValueError),
        )

    @given(st.integers(0, 60))
    def test_truncated_valid_coap_parity(self, cut):
        from repro.coap import Code

        wire = CoapMessage.request(
            Code.FETCH, "/dns", mid=7, token=b"\x01", payload=b"abc"
        ).with_uint_option(12, 553).encode()
        self._outcomes_match(
            CoapMessage.decode, wire[: min(cut, len(wire))],
            (CoapMessageError, OptionError, ValueError),
        )

    @given(st.integers(0, 30))
    def test_truncated_valid_cbor_parity(self, cut):
        # {1: b"key", "name": ["example.org", 28]}, deterministically
        # encoded: maps are decoded only, so the bytes are written out.
        wire = bytes.fromhex(
            "a201436b6579646e616d65826b6578616d706c652e6f7267181c"
        )
        self._outcomes_match(
            loads, wire[: min(cut, len(wire))], (CBORDecodeError,)
        )


class TestMutatedValidMessages:
    """Bit-flip valid messages and require clean handling."""

    @given(st.integers(0, 60), st.integers(0, 7))
    def test_mutated_dns_response(self, position, bit):
        from repro.experiments.packet_sizes import canonical_messages

        wire = bytearray(canonical_messages()["response_aaaa"].encode())
        position = min(position, len(wire) - 1)
        wire[position] ^= 1 << bit
        try:
            Message.decode(bytes(wire))
        except (MessageError, NameError_, ValueError):
            pass

    @given(st.integers(0, 40), st.integers(0, 7))
    def test_mutated_coap_message(self, position, bit):
        from repro.coap import Code

        message = CoapMessage.request(
            Code.FETCH, "/dns", mid=7, token=b"\x01", payload=b"abc"
        ).with_uint_option(12, 553)
        wire = bytearray(message.encode())
        position = min(position, len(wire) - 1)
        wire[position] ^= 1 << bit
        try:
            CoapMessage.decode(bytes(wire))
        except (CoapMessageError, OptionError, ValueError):
            pass
