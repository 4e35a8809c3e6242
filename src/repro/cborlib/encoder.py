"""Deterministic CBOR encoding (RFC 8949 §4.2 core requirements).

Integers use the shortest form, and indefinite-length items are never
produced. The encoder writes what the stack sends: integers, byte and
text strings, arrays, ``None`` and booleans -- every item of OSCORE's
``info`` and AAD structures (RFC 8613 §3.2.1, §5.4) and of the DoC
CBOR format (:mod:`repro.doc.cbor_format`). Maps, tags and other
simple values are only decoded (:mod:`repro.cborlib.decoder`); encoding
one raises :class:`CBOREncodeError`.

Encoding appends into one ``bytearray`` end to end (:func:`dump_into`);
:func:`dumps` is the materialising wrapper.
"""

from __future__ import annotations

from typing import Any

_MT_UNSIGNED = 0
_MT_NEGATIVE = 1
_MT_BYTES = 2
_MT_TEXT = 3
_MT_ARRAY = 4


class CBOREncodeError(ValueError):
    """Raised when a value cannot be represented in CBOR."""


def _head_into(out: bytearray, major: int, argument: int) -> None:
    """Append the initial byte(s): major type plus shortest-form argument."""
    if argument < 0:
        raise CBOREncodeError("argument must be non-negative")
    mt = major << 5
    if argument < 24:
        out.append(mt | argument)
    elif argument < 0x100:
        out.append(mt | 24)
        out.append(argument)
    elif argument < 0x10000:
        out.append(mt | 25)
        out += argument.to_bytes(2, "big")
    elif argument < 0x100000000:
        out.append(mt | 26)
        out += argument.to_bytes(4, "big")
    elif argument < 0x10000000000000000:
        out.append(mt | 27)
        out += argument.to_bytes(8, "big")
    else:
        raise CBOREncodeError("integer too large for CBOR head")


def dump_into(out: bytearray, value: Any) -> None:
    """Append the deterministic CBOR encoding of *value* to *out*."""
    if value is False:
        out.append(0xF4)
    elif value is True:
        out.append(0xF5)
    elif value is None:
        out.append(0xF6)
    elif isinstance(value, int):
        if value >= 0:
            _head_into(out, _MT_UNSIGNED, value)
        else:
            _head_into(out, _MT_NEGATIVE, -1 - value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        _head_into(out, _MT_BYTES, len(value))
        out += value
    elif isinstance(value, str):
        data = value.encode("utf-8")
        _head_into(out, _MT_TEXT, len(data))
        out += data
    elif isinstance(value, (list, tuple)):
        _head_into(out, _MT_ARRAY, len(value))
        for item in value:
            dump_into(out, item)
    else:
        raise CBOREncodeError(f"cannot encode {type(value).__name__} in CBOR")


def dumps(value: Any) -> bytes:
    """Serialise *value* to deterministic CBOR bytes.

    Raises
    ------
    CBOREncodeError
        If the value (or a nested element) has no CBOR representation.
    """
    out = bytearray()
    dump_into(out, value)
    return bytes(out)
