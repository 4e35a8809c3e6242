"""Domain-name encoding and decoding with RFC 1035 compression pointers.

Name encoding sits on the hot path of every DNS message the simulator
moves (and, through the deterministic DoC cache keys, of every cache
lookup), so the per-name work is memoised: :func:`_name_parts` caches
the validated label split with each suffix's wire bytes, and the full
uncompressed wire form is cached per name. A simulation draws from a
small fixed name population, so hit rates are effectively 100%.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

from .enums import MAX_LABEL_LENGTH, MAX_NAME_LENGTH


class NameError_(ValueError):
    """Raised for malformed domain names or name encodings.

    Named with a trailing underscore to avoid clashing with the built-in
    :class:`NameError`.
    """


def split_name(name: str) -> List[str]:
    """Split a presentation-format name into labels, validating lengths.

    The root name is represented by ``""`` or ``"."`` and yields an empty
    label list.
    """
    name = name.rstrip(".")
    if not name:
        return []
    if len(name) > MAX_NAME_LENGTH:
        raise NameError_(f"name exceeds {MAX_NAME_LENGTH} characters: {name!r}")
    labels = name.split(".")
    for label in labels:
        if not label:
            raise NameError_(f"empty label in {name!r}")
        if len(label) > MAX_LABEL_LENGTH:
            raise NameError_(f"label exceeds {MAX_LABEL_LENGTH} chars: {label!r}")
    return labels


@lru_cache(maxsize=4096)
def _name_parts(name: str) -> Tuple[Tuple[str, bytes], ...]:
    """Per-label ``(lowercased suffix, wire label)`` pairs, memoised.

    The suffix strings are what compression maps key on; the wire
    label is the length byte plus the ASCII label. Validation errors
    from :func:`split_name` propagate (and are not cached).
    """
    labels = split_name(name)
    lowered = [label.lower() for label in labels]
    return tuple(
        (
            ".".join(lowered[index:]),
            bytes([len(label)]) + label.encode("ascii"),
        )
        for index, label in enumerate(labels)
    )


@lru_cache(maxsize=4096)
def _uncompressed(name: str) -> bytes:
    """*name*'s wire form without compression, memoised."""
    return b"".join(wire for _, wire in _name_parts(name)) + b"\x00"


def encode_name(
    name: str,
    compress: Dict[str, int] | None = None,
    offset: int = 0,
) -> bytes:
    """Encode *name* in DNS wire format.

    Parameters
    ----------
    name:
        Presentation-format domain name (trailing dot optional).
    compress:
        Optional mutable mapping of already-emitted suffixes to their
        offsets in the enclosing message. When given, compression
        pointers are emitted for known suffixes and new suffixes are
        registered at ``offset`` + their position within this encoding.
        Without one the name is written in full, from a memo.
    offset:
        Wire offset at which this encoding will be placed (used only to
        register suffixes in *compress*).
    """
    if compress is None:
        return _uncompressed(name)
    out = bytearray()
    for suffix, wire in _name_parts(name):
        if suffix in compress:
            pointer = compress[suffix]
            out += bytes([0xC0 | (pointer >> 8), pointer & 0xFF])
            return bytes(out)
        position = offset + len(out)
        # Pointers only reach 14 bits; skip registration beyond that.
        if position < 0x4000:
            compress[suffix] = position
        out += wire
    out += b"\x00"
    return bytes(out)


def decode_name(data, offset: int) -> Tuple[str, int]:
    """Decode a wire-format name from *data* starting at *offset*.

    *data* may be ``bytes`` or a ``memoryview``; it is only indexed and
    read, never mutated. Returns the presentation-format name (without
    trailing dot, ``""`` for the root) and the offset just past the
    name's first encoding (i.e. past the pointer if the name was
    compressed). A label :func:`encode_name` could not write back, one
    with an octet above 0x7F or a ``.``, raises :class:`NameError_`.
    """
    labels: List[str] = []
    label_append = labels.append
    size = len(data)
    jumps = 0
    end_offset = -1
    position = offset
    decoded_length = 0
    while True:
        if position >= size:
            raise NameError_("truncated name")
        length = data[position]
        if length & 0xC0:
            if length & 0xC0 != 0xC0:
                raise NameError_(f"reserved label type 0x{length:02x}")
            if position + 1 >= size:
                raise NameError_("truncated compression pointer")
            target = ((length & 0x3F) << 8) | data[position + 1]
            if end_offset < 0:
                end_offset = position + 2
            if target >= position:
                raise NameError_("forward compression pointer")
            position = target
            jumps += 1
            if jumps > 128:
                raise NameError_("compression pointer loop")
            continue
        position += 1
        if length == 0:
            break
        next_position = position + length
        if next_position > size:
            raise NameError_("truncated label")
        # ``str(buffer, ...)`` decodes straight from the buffer, so the
        # label slice is the only intermediate and works for views too.
        try:
            label = str(data[position:next_position], "ascii")
        except UnicodeDecodeError:
            raise NameError_("octet above 0x7F in a label") from None
        if "." in label:
            raise NameError_("'.' inside a label")
        label_append(label)
        position = next_position
        decoded_length += length + 1
        if decoded_length > MAX_NAME_LENGTH:
            raise NameError_("decoded name too long")
    if end_offset < 0:
        end_offset = position
    return ".".join(labels), end_offset
