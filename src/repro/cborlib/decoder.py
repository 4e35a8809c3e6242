"""CBOR decoding (RFC 8949), including indefinite-length items."""

from __future__ import annotations

import struct
from typing import Any

from repro.net.buffers import BufReader, Buffer
from .types import Simple, Tag

_BREAK = object()


class CBORDecodeError(ValueError):
    """Raised on malformed or truncated CBOR input."""


class _Decoder(BufReader):
    """A :class:`BufReader` walking CBOR items in place.

    The input buffer (``bytes`` or ``memoryview``) is never copied as a
    whole and never mutated; byte/text strings are materialised exactly
    once when they become decoded values.
    """

    __slots__ = ()

    def __init__(self, data: Buffer) -> None:
        super().__init__(data, error=CBORDecodeError)

    def _argument(self, info: int) -> int:
        if info < 24:
            return info
        if info == 24:
            return self.u8()
        if info == 25:
            return self.u16()
        if info == 26:
            return self.u32()
        if info == 27:
            return self.u64()
        raise CBORDecodeError(f"reserved additional info {info}")

    def decode_item(self, allow_break: bool = False) -> Any:
        initial = self.u8()
        major, info = initial >> 5, initial & 0x1F

        if initial == 0xFF:
            if allow_break:
                return _BREAK
            raise CBORDecodeError("unexpected break code")

        if major == 0:
            return self._argument(info)
        if major == 1:
            return -1 - self._argument(info)
        if major == 2:
            return self._decode_string(info, text=False)
        if major == 3:
            return self._decode_string(info, text=True)
        if major == 4:
            return self._decode_array(info)
        if major == 5:
            return self._decode_map(info)
        if major == 6:
            return Tag(self._argument(info), self.decode_item())
        return self._decode_simple(info)

    def _decode_string(self, info: int, text: bool) -> Any:
        if info == 31:  # indefinite length: concatenation of definite chunks
            chunks = []
            while True:
                initial = self.u8()
                if initial == 0xFF:
                    break
                major, chunk_info = initial >> 5, initial & 0x1F
                expected = 3 if text else 2
                if major != expected or chunk_info == 31:
                    raise CBORDecodeError("invalid indefinite string chunk")
                chunks.append(self.take(self._argument(chunk_info)))
            data = b"".join(chunks)
        else:
            data = self.take(self._argument(info))
        if text:
            try:
                return str(data, "utf-8")
            except UnicodeDecodeError as exc:
                raise CBORDecodeError("invalid UTF-8 in text string") from exc
        return bytes(data)

    def _decode_array(self, info: int) -> list:
        if info == 31:
            items = []
            while True:
                item = self.decode_item(allow_break=True)
                if item is _BREAK:
                    return items
                items.append(item)
        return [self.decode_item() for _ in range(self._argument(info))]

    def _decode_map(self, info: int) -> dict:
        result: dict = {}

        def add(key: Any, value: Any) -> None:
            # A Tag is hashable only if its value is (frozen dataclass
            # hashing descends into the fields), so the isinstance
            # check alone cannot reject e.g. Tag(0, {}) keys.
            try:
                result[key] = value
            except TypeError:
                raise CBORDecodeError("unhashable map key") from None

        if info == 31:
            while True:
                key = self.decode_item(allow_break=True)
                if key is _BREAK:
                    return result
                add(key, self.decode_item())
        for _ in range(self._argument(info)):
            key = self.decode_item()
            add(key, self.decode_item())
        return result

    def _decode_simple(self, info: int) -> Any:
        if info == 20:
            return False
        if info == 21:
            return True
        if info == 22:
            return None
        if info == 23:
            return Simple(23)
        if info == 24:
            value = self.u8()
            if value < 32:
                raise CBORDecodeError("invalid two-byte simple value")
            return Simple(value)
        if info == 25:
            return struct.unpack(">e", self.take(2))[0]
        if info == 26:
            return struct.unpack(">f", self.take(4))[0]
        if info == 27:
            return struct.unpack(">d", self.take(8))[0]
        if info < 20:
            return Simple(info)
        raise CBORDecodeError(f"invalid simple/float info {info}")


def loads(data: Buffer) -> Any:
    """Decode a single CBOR item, requiring all input to be consumed.

    Accepts ``bytes | memoryview`` and parses in place — no whole-input
    copy is made, and the input is never mutated.
    """
    decoder = _Decoder(data)
    value = decoder.decode_item()
    if decoder.pos != len(data):
        raise CBORDecodeError(
            f"{len(data) - decoder.pos} trailing bytes after CBOR item"
        )
    return value
