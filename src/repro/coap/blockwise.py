"""Block-wise transfer (RFC 7959): the Block1/Block2 option value codec
plus helpers to slice bodies into blocks and reassemble them.

The paper's Appendix A/D evaluates block sizes 16, 32, and 64 bytes for
DoC queries (Block1) and responses (Block2); Figure 14 and Figure 15
are regenerated from this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .options import OptionError, decode_uint, encode_uint

#: Valid block sizes are powers of two from 16 to 1024 (SZX 0..6).
VALID_BLOCK_SIZES = tuple(16 << szx for szx in range(7))


class BlockError(ValueError):
    """Raised on invalid block option values or inconsistent transfers."""


@dataclass(frozen=True)
class Block:
    """A decoded Block1/Block2 option value: NUM / M / SZX.

    Attributes
    ----------
    number:
        Block number (NUM), counting blocks of the given size.
    more:
        The M bit — whether more blocks follow.
    size:
        Block size in bytes (16..1024, power of two).
    """

    number: int
    more: bool
    size: int

    def __post_init__(self) -> None:
        if self.size not in VALID_BLOCK_SIZES:
            raise BlockError(f"invalid block size {self.size}")
        if self.number < 0 or self.number >= 1 << 20:
            raise BlockError(f"block number {self.number} out of range")

    @property
    def szx(self) -> int:
        return VALID_BLOCK_SIZES.index(self.size)

    def encode(self) -> bytes:
        return encode_uint((self.number << 4) | (int(self.more) << 3) | self.szx)

    @classmethod
    def decode(cls, data: bytes) -> "Block":
        if len(data) > 3:
            raise BlockError("block option longer than 3 bytes")
        value = decode_uint(data)
        szx = value & 0x7
        if szx == 7:
            raise BlockError("SZX 7 is reserved")
        return cls(number=value >> 4, more=bool(value & 0x8), size=16 << szx)


def split_body(body: bytes, size: int) -> List[bytes]:
    """Slice *body* into blocks of *size* bytes (last may be shorter)."""
    if size not in VALID_BLOCK_SIZES:
        raise BlockError(f"invalid block size {size}")
    if not body:
        return [b""]
    return [body[i : i + size] for i in range(0, len(body), size)]


def block_for(body: bytes, number: int, size: int) -> tuple:
    """Return ``(Block, chunk)`` for block *number* of *body*."""
    blocks = split_body(body, size)
    if number >= len(blocks):
        raise BlockError(f"block {number} beyond body of {len(blocks)} blocks")
    more = number < len(blocks) - 1
    return Block(number, more, size), blocks[number]


class BlockAssembler:
    """Reassembles a body from in-order block transfers.

    RFC 7959 requires blocks to arrive in order within one transfer
    (each request names the next block); out-of-order or size-switched
    continuations restart per §2.5 semantics here simplified to an
    error, which the endpoints translate to 4.08.
    """

    def __init__(self) -> None:
        self._chunks: List[bytes] = []
        self._size: Optional[int] = None
        self._complete = False

    def add(self, block: Block, chunk: bytes) -> bool:
        """Add one block; returns True when the body is complete."""
        if self._complete:
            raise BlockError("transfer already complete")
        if self._size is None:
            if block.number != 0:
                raise BlockError("transfer must start at block 0")
            self._size = block.size
        elif block.size != self._size:
            raise BlockError("block size changed mid-transfer")
        if block.number != len(self._chunks):
            raise BlockError(
                f"expected block {len(self._chunks)}, got {block.number}"
            )
        if block.more and len(chunk) != block.size:
            raise BlockError("non-final block must be full-sized")
        self._chunks.append(chunk)
        if not block.more:
            self._complete = True
        return self._complete

    def body(self) -> bytes:
        if not self._complete:
            raise BlockError("transfer incomplete")
        return b"".join(self._chunks)
