"""Tests for the CBOR codec (RFC 8949 vectors and round trips)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.cborlib import (
    CBORDecodeError,
    CBOREncodeError,
    Simple,
    Tag,
    UNDEFINED,
    dumps,
    loads,
)


# RFC 8949 Appendix A test vectors (encode direction).
RFC_VECTORS = [
    (0, "00"),
    (1, "01"),
    (10, "0a"),
    (23, "17"),
    (24, "1818"),
    (25, "1819"),
    (100, "1864"),
    (1000, "1903e8"),
    (1000000, "1a000f4240"),
    (1000000000000, "1b000000e8d4a51000"),
    (18446744073709551615, "1bffffffffffffffff"),
    (-1, "20"),
    (-10, "29"),
    (-100, "3863"),
    (-1000, "3903e7"),
    (False, "f4"),
    (True, "f5"),
    (None, "f6"),
    (b"", "40"),
    (bytes.fromhex("01020304"), "4401020304"),
    ("", "60"),
    ("a", "6161"),
    ("IETF", "6449455446"),
    ("ü", "62c3bc"),
    ("水", "63e6b0b4"),
    ([], "80"),
    ([1, 2, 3], "83010203"),
    ([1, [2, 3], [4, 5]], "8301820203820405"),
]

# Maps, tags and floats are decoded (they may arrive from outside) but
# never encoded: nothing the toolkit sends carries one.
RFC_DECODE_ONLY_VECTORS = [
    ({}, "a0"),
    ({1: 2, 3: 4}, "a201020304"),
    ({"a": 1, "b": [2, 3]}, "a26161016162820203"),
    (Tag(1, 1363896240), "c11a514b67b0"),
    (1.5, "f93e00"),
    (-4.1, "fbc010666666666666"),
    (100000.0, "fa47c35000"),
]


@pytest.mark.parametrize("value,expected_hex", RFC_VECTORS)
def test_rfc8949_encode_vectors(value, expected_hex):
    assert dumps(value).hex() == expected_hex


@pytest.mark.parametrize("value,expected_hex", RFC_VECTORS + RFC_DECODE_ONLY_VECTORS)
def test_rfc8949_decode_vectors(value, expected_hex):
    assert loads(bytes.fromhex(expected_hex)) == value


def test_long_array_25_items():
    value = list(range(1, 26))
    assert loads(dumps(value)) == value
    assert dumps(value).startswith(b"\x98\x19")


def test_undefined_round_trip():
    assert loads(bytes.fromhex("f7")) == UNDEFINED


def test_simple_value_range_validation():
    with pytest.raises(ValueError):
        Simple(24)
    with pytest.raises(ValueError):
        Simple(256)


def test_nan_half_precision():
    assert math.isnan(loads(bytes.fromhex("f97e00")))


def test_unencodable_type_raises():
    # Maps, tags and simple values other than false/true/null are
    # decoded only.
    for value in (object(), 1.5, {1: 2}, Tag(1, 0), UNDEFINED, Simple(16), [1, {}]):
        with pytest.raises(CBOREncodeError):
            dumps(value)


def test_trailing_bytes_rejected():
    with pytest.raises(CBORDecodeError):
        loads(b"\x00\x00")


def test_truncated_input_rejected():
    with pytest.raises(CBORDecodeError):
        loads(b"\x18")  # uint8 follows, missing


def test_reserved_additional_info_rejected():
    with pytest.raises(CBORDecodeError):
        loads(bytes([0x1C]))  # info 28 is reserved


def test_unexpected_break_rejected():
    with pytest.raises(CBORDecodeError):
        loads(b"\xff")


def test_indefinite_text_string():
    # 0x7f "strea" "ming" 0xff
    data = bytes.fromhex("7f657374726561646d696e67ff")
    assert loads(data) == "streaming"


def test_indefinite_array():
    data = bytes.fromhex("9f018202039f0405ffff")
    assert loads(data) == [1, [2, 3], [4, 5]]


def test_indefinite_map():
    data = bytes.fromhex("bf61610161629f0203ffff")
    assert loads(data) == {"a": 1, "b": [2, 3]}


def test_invalid_utf8_rejected():
    with pytest.raises(CBORDecodeError):
        loads(b"\x61\xff")


def test_unhashable_map_key_rejected():
    # {[1]: 2}
    with pytest.raises(CBORDecodeError):
        loads(bytes.fromhex("a1810102"))


def test_bytes_like_inputs_encode():
    assert dumps(bytearray(b"ab")) == dumps(b"ab")
    assert dumps(memoryview(b"ab")) == dumps(b"ab")


_scalars = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    st.binary(max_size=64),
    st.text(max_size=32),
    st.booleans(),
    st.none(),
)
# Maps are decoded only: the RFC decode vectors, test_indefinite_map,
# test_unhashable_map_key_rejected and the fuzz tests drive them.
_values = st.recursive(
    _scalars, lambda children: st.lists(children, max_size=6), max_leaves=20
)


@given(_values)
def test_round_trip_property(value):
    decoded = loads(dumps(value))
    # Lists come back as lists; tuples are encoded as arrays.
    assert decoded == value


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_uint_shortest_form(value):
    encoded = dumps(value)
    if value < 24:
        assert len(encoded) == 1
    elif value < 256:
        assert len(encoded) == 2
    elif value < 65536:
        assert len(encoded) == 3
