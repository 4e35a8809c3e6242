"""CoAP options: registry, value codecs, and delta encoding (RFC 7252 §3.1).

Options are modelled as ``(number, bytes)`` pairs at the wire level with
helpers to convert uint/string values. The delta/extended-length scheme
is implemented exactly, since option overhead is part of every packet
size the paper reports.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Iterable, List, Tuple


class OptionNumber(enum.IntEnum):
    """IANA CoAP option numbers used in this repository."""

    IF_MATCH = 1
    URI_HOST = 3
    ETAG = 4
    IF_NONE_MATCH = 5
    OBSERVE = 6
    URI_PORT = 7
    LOCATION_PATH = 8
    OSCORE = 9
    URI_PATH = 11
    CONTENT_FORMAT = 12
    MAX_AGE = 14
    URI_QUERY = 15
    ACCEPT = 17
    LOCATION_QUERY = 20
    BLOCK2 = 23
    BLOCK1 = 27
    SIZE2 = 28
    PROXY_URI = 35
    PROXY_SCHEME = 39
    SIZE1 = 60
    ECHO = 252
    NO_RESPONSE = 258


class ContentFormat(enum.IntEnum):
    """Content-Format registry entries relevant to DoC.

    ``DNS_MESSAGE`` is the ``application/dns-message`` format registered
    by draft-ietf-core-dns-over-coap; ``DNS_CBOR`` stands for the
    compressed ``application/dns+cbor`` format of Section 7
    (draft-lenders-dns-cbor).
    """

    TEXT_PLAIN = 0
    LINK_FORMAT = 40
    OCTET_STREAM = 42
    CBOR = 60
    DNS_MESSAGE = 553
    DNS_CBOR = 554


class OptionError(ValueError):
    """Raised on malformed option encodings."""


def encode_uint(value: int) -> bytes:
    """Encode a CoAP uint option value (shortest form; 0 is empty)."""
    if value < 0:
        raise OptionError("uint option value must be non-negative")
    if value == 0:
        return b""
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def decode_uint(data: bytes) -> int:
    """Decode a CoAP uint option value."""
    return int.from_bytes(data, "big")


def _nibble(value: int) -> Tuple[int, bytes]:
    """Split delta/length into its 4-bit nibble and extension bytes."""
    if value < 13:
        return value, b""
    if value < 269:
        return 13, bytes([value - 13])
    if value < 65805:
        return 14, (value - 269).to_bytes(2, "big")
    raise OptionError("option delta/length too large")


def encode_options_into(
    out: bytearray, options: Iterable[Tuple[int, bytes]]
) -> None:
    """Serialise options into *out* (sorted by number, stable).

    Appending into the caller's buffer avoids the intermediate
    per-message allocation on the encode hot path; small deltas and
    lengths (< 13, the overwhelmingly common case) take the no-extension
    fast branch. The order is checked in one pass and only options out
    of wire order are sorted (into a copy).
    """
    options = tuple(options)  # the tuple a CoapMessage holds is not copied
    previous = 0
    for number, _ in options:
        if number < previous:
            options = sorted(options, key=itemgetter(0))
            break
        previous = number
    previous = 0
    for number, value in options:
        delta = number - previous
        length = len(value)
        if delta < 13 and length < 13:
            out.append((delta << 4) | length)
        else:
            delta_nibble, delta_ext = _nibble(delta)
            length_nibble, length_ext = _nibble(length)
            out.append((delta_nibble << 4) | length_nibble)
            out += delta_ext
            out += length_ext
        out += value
        previous = number


def encode_options(options: Iterable[Tuple[int, bytes]]) -> bytes:
    """Serialise options (sorted by number, stable for equal numbers)."""
    out = bytearray()
    encode_options_into(out, options)
    return bytes(out)


def decode_options(data, offset: int = 0) -> Tuple[List[Tuple[int, bytes]], int]:
    """Parse options starting at *offset*.

    *data* may be ``bytes`` or a ``memoryview`` and is never mutated;
    option values are materialised to owned ``bytes``. Returns the
    option list and the offset of the payload (just past the 0xFF
    payload marker if present, else end of data).
    """
    options, payload_offset = _decode_options(data, offset)
    return list(options), payload_offset


def _decode_options(data, offset: int = 0) -> Tuple[Tuple[Tuple[int, bytes], ...], int]:
    """:func:`decode_options` returning the tuple the hot path stores.

    ``CoapMessage.decode`` keeps options as a tuple; building it here
    skips a list-to-tuple copy per message.
    """
    options: List[Tuple[int, bytes]] = []
    number = 0
    size = len(data)
    append = options.append
    while offset < size:
        byte = data[offset]
        if byte == 0xFF:
            offset += 1
            if offset >= size:
                raise OptionError("payload marker with empty payload")
            return tuple(options), offset
        offset += 1
        delta = byte >> 4
        length = byte & 0x0F
        if delta >= 13:
            if delta == 13:
                if offset >= size:
                    raise OptionError("truncated option extension")
                delta = data[offset] + 13
                offset += 1
            elif delta == 14:
                if offset + 2 > size:
                    raise OptionError("truncated option extension")
                delta = int.from_bytes(data[offset : offset + 2], "big") + 269
                offset += 2
            else:
                raise OptionError("reserved option nibble 15")
        if length >= 13:
            if length == 13:
                if offset >= size:
                    raise OptionError("truncated option extension")
                length = data[offset] + 13
                offset += 1
            elif length == 14:
                if offset + 2 > size:
                    raise OptionError("truncated option extension")
                length = int.from_bytes(data[offset : offset + 2], "big") + 269
                offset += 2
            else:
                raise OptionError("reserved option nibble 15")
        number += delta
        end = offset + length
        if end > size:
            raise OptionError("truncated option value")
        append((number, bytes(data[offset:end])))
        offset = end
    return tuple(options), size
