"""Zero-copy parse cursors and the codecs' buffer conventions.

The wire codecs (DNS, CoAP, CBOR, 6LoWPAN, DTLS) share two hot-path
conventions, both provided here:

* **Decode** works over a flat byte buffer — ``bytes`` or
  ``memoryview`` — indexed in place. Multi-byte fields come out of
  ``struct.unpack_from`` (or :class:`BufReader` where a cursor reads
  better than explicit offsets), and sub-slices stay views until a
  value is *stored* in a decoded object, at which point it is
  materialised exactly once with ``bytes(...)``. Decoders never mutate
  their input.
* **Encode** appends into a single ``bytearray`` end to end
  (``encode_into(out, ...)`` style).

Nothing here imports from the codec packages, so every codec may import
from this module without cycles.
"""

from __future__ import annotations

import struct
from typing import Type, Union

Buffer = Union[bytes, bytearray, memoryview]

_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")

unpack_u16 = _U16.unpack_from
unpack_u32 = _U32.unpack_from


def materialize(data: Buffer) -> bytes:
    """*data* as ``bytes``, copying only when it is not already bytes.

    This is the single boundary materialisation decoders perform before
    storing a value (or memoising on it); ``bytes`` input passes through
    untouched.
    """
    return data if type(data) is bytes else bytes(data)


class BufReader:
    """A bounds-checked forward cursor over a byte buffer.

    All reads advance the cursor; underflow raises the ``error`` class
    the reader was constructed with (a :class:`ValueError` subclass per
    codec), never ``IndexError``/``struct.error``. Slices returned by
    :meth:`take` are views into the underlying buffer —
    :func:`materialize` one for an owned copy at a storage boundary.
    """

    __slots__ = ("data", "pos", "end", "error")

    def __init__(
        self,
        data: Buffer,
        pos: int = 0,
        end: int | None = None,
        error: Type[ValueError] = ValueError,
    ) -> None:
        self.data = data
        self.pos = pos
        self.end = len(data) if end is None else end
        self.error = error

    def need(self, count: int) -> None:
        if self.pos + count > self.end:
            raise self.error(
                f"need {count} byte(s) at offset {self.pos}, "
                f"have {self.end - self.pos}"
            )

    def u8(self) -> int:
        if self.pos >= self.end:
            raise self.error(f"need 1 byte at offset {self.pos}, have 0")
        value = self.data[self.pos]
        self.pos += 1
        return value

    def u16(self) -> int:
        self.need(2)
        (value,) = _U16.unpack_from(self.data, self.pos)
        self.pos += 2
        return value

    def u32(self) -> int:
        self.need(4)
        (value,) = _U32.unpack_from(self.data, self.pos)
        self.pos += 4
        return value

    def u64(self) -> int:
        self.need(8)
        (value,) = _U64.unpack_from(self.data, self.pos)
        self.pos += 8
        return value

    def take(self, count: int) -> Buffer:
        """The next *count* bytes as a zero-copy slice (view for views)."""
        self.need(count)
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk
