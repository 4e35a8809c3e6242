"""IEEE 802.15.4 data frames (2015 revision, data frame subset).

The testbed radios use 64-bit extended addresses with PAN-ID
compression; that yields a 21-byte MAC header plus the 2-byte FCS,
leaving 104 bytes of the 127-byte PDU for the 6LoWPAN payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

#: FCF, sequence number, PAN ID, destination, source
_HEADER = struct.Struct("<HBHQQ")

#: Maximum PHY payload (PDU) of IEEE 802.15.4 (Table 2b).
FRAME_MAX_PDU = 127
#: Frame check sequence appended to every frame.
FCS_LEN = 2


def mac_header_length(extended: bool = True) -> int:
    """MAC header length: FCF(2) + seq(1) + PAN(2) + dst + src.

    With 64-bit extended addresses and PAN-ID compression this is
    2 + 1 + 2 + 8 + 8 = 21 bytes.
    """
    address_len = 8 if extended else 2
    return 2 + 1 + 2 + 2 * address_len


_MAC_HEADER_LEN = _HEADER.size
_MAX_PAYLOAD = FRAME_MAX_PDU - _MAC_HEADER_LEN - FCS_LEN

# FCF: frame type data (0b001), PAN ID compression, dst/src addressing
# mode 'extended' (0b11 each), frame version 2006.
_FCF = 0b001 | (1 << 6) | (0b11 << 10) | (0b01 << 12) | (0b11 << 14)
_FCS_PLACEHOLDER = b"\x00\x00"  # computed by hardware


@dataclass(frozen=True, slots=True)
class MacFrame:
    """A data frame with extended (EUI-64) addressing."""

    src: int  # 64-bit extended address
    dst: int
    seq: int
    payload: bytes
    pan_id: int = 0x23

    def __post_init__(self) -> None:
        if len(self.payload) > _MAX_PAYLOAD:
            raise ValueError(
                f"payload {len(self.payload)} exceeds {_MAX_PAYLOAD}"
            )

    @staticmethod
    def max_payload() -> int:
        """Per-frame 6LoWPAN capacity: 127 - header(21) - FCS(2) = 104."""
        return _MAX_PAYLOAD

    def encode(self) -> bytes:
        """Wire format including the FCS placeholder (PDU bytes)."""
        return b"".join(
            (
                _HEADER.pack(_FCF, self.seq & 0xFF, self.pan_id, self.dst, self.src),
                self.payload,
                _FCS_PLACEHOLDER,
            )
        )

    @classmethod
    def decode(cls, data) -> "MacFrame":
        """Parse a frame from ``bytes | memoryview`` (input never mutated)."""
        if len(data) < _MAC_HEADER_LEN + FCS_LEN:
            raise ValueError("frame shorter than MAC header")
        _fcf, seq, pan_id, dst, src = _HEADER.unpack_from(data)
        return cls(src, dst, seq, bytes(data[_MAC_HEADER_LEN:-FCS_LEN]), pan_id)
