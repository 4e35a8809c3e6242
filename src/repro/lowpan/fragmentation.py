"""6LoWPAN fragmentation (RFC 4944 §5.3).

When the compressed packet exceeds the MAC payload, it is split into a
FRAG1 fragment (4-byte header, carries the compressed headers) and
FRAGN fragments (5-byte headers). ``datagram_size`` and the offsets
count *uncompressed* IPv6 bytes; offsets are in 8-byte units, so
fragment payloads are sized to multiples of 8.

The paper's Figure 6 represents "each additional fragment with its
headers above the red marker line"; the per-fragment arithmetic here
is what produces those fragment counts.

Partial datagrams are discarded 60 s after their first fragment (RFC
4944 §5.3). The timeout is one constant and the clock never runs
backwards, so the order in which partials were stored is the order in
which they expire: the expired ones sit at the front of the table and
are dropped there whenever a new one is stored — no timer, no size
limit to tune, and a datagram that lost a fragment for good does not
stay until its 16-bit tag wraps.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from .iphc import IphcError, header_extents

FRAG1_HEADER_LEN = 4
FRAGN_HEADER_LEN = 5
_FRAG1_DISPATCH = 0b11000
_FRAGN_DISPATCH = 0b11100
#: dispatch + datagram_size, datagram_tag (, datagram_offset)
_FRAG1_HEADER = struct.Struct("!HH")
_FRAGN_HEADER = struct.Struct("!HHB")


class FragmentationError(ValueError):
    """Raised on malformed fragments or failed reassembly."""


class Fragmenter:
    """Splits compressed datagrams into per-hop fragment payloads."""

    def __init__(self, max_frame_payload: int) -> None:
        self._max_payload = max_frame_payload
        self._next_tag = 0

    def fragment(
        self, compressed: bytes, uncompressed_size: int
    ) -> List[bytes]:
        """Return the MAC payloads for one datagram (1 entry if no
        fragmentation is needed).

        Parameters
        ----------
        compressed:
            The IPHC-compressed datagram.
        uncompressed_size:
            Size of the original IPv6 packet; fragment offsets are
            expressed in these uncompressed bytes.
        """
        if len(compressed) <= self._max_payload:
            return [compressed]

        tag = self._next_tag & 0xFFFF
        self._next_tag += 1
        if uncompressed_size >= 1 << 11:
            raise FragmentationError("datagram larger than 2047 bytes")

        # The compression saves (uncompressed - compressed) bytes, all
        # in the first fragment. Offsets count uncompressed bytes.
        savings = uncompressed_size - len(compressed)
        # FRAG1: fill to a payload whose *uncompressed* extent is a
        # multiple of 8: choose c1 (compressed bytes in FRAG1) so
        # c1 + savings ≡ 0 (mod 8).
        frag1_capacity = self._max_payload - FRAG1_HEADER_LEN
        c1 = frag1_capacity - ((frag1_capacity + savings) % 8)
        fragn_capacity = self._max_payload - FRAGN_HEADER_LEN
        fragn_capacity -= fragn_capacity % 8
        fragn_first = (_FRAGN_DISPATCH << 11) | uncompressed_size
        fragments = [
            _FRAG1_HEADER.pack((_FRAG1_DISPATCH << 11) | uncompressed_size, tag)
            + compressed[:c1]
        ]
        fragments += [
            _FRAGN_HEADER.pack(fragn_first, tag, (position + savings) // 8)
            + compressed[position : position + fragn_capacity]
            for position in range(c1, len(compressed), fragn_capacity)
        ]
        return fragments


@dataclass(slots=True)
class _PartialDatagram:
    received: Dict[int, bytes]
    first_arrival: float
    #: Uncompressed extent of the FRAG1 chunk, computed once — FRAGN
    #: arrivals re-check completeness but need not re-parse the IPHC
    #: header every time.
    frag1_extent: Optional[int] = None


class Reassembler:
    """Per-link-neighbour reassembly buffers with timeout.

    RFC 4944 recommends discarding partial datagrams after 60 s. A
    partial past its time never completes a datagram (its key starts a
    new one), and it leaves the table when the next partial is stored.
    """

    def __init__(self, timeout: float = 60.0) -> None:
        self._timeout = timeout
        #: (sender, tag) -> partial, in insertion order, which is expiry
        #: order (module docstring); an ``OrderedDict`` because a plain
        #: ``dict`` popped from the front walks its tombstones.
        self._partial: OrderedDict = OrderedDict()

    def push(
        self, sender: int, payload: bytes, now: float
    ) -> Optional[bytes]:
        """Feed one MAC payload; returns the complete compressed
        datagram when reassembly finishes, else ``None``.

        Unfragmented payloads are returned immediately.
        """
        if not payload:
            raise FragmentationError("empty MAC payload")
        dispatch5 = payload[0] >> 3
        if dispatch5 == _FRAG1_DISPATCH:
            if len(payload) < FRAG1_HEADER_LEN:
                raise FragmentationError("truncated fragment header")
            first, tag = _FRAG1_HEADER.unpack_from(payload)
            offset_units = 0
            chunk = payload[FRAG1_HEADER_LEN:]
        elif dispatch5 == _FRAGN_DISPATCH:
            if len(payload) < FRAGN_HEADER_LEN:
                raise FragmentationError("truncated FRAGN header")
            first, tag, offset_units = _FRAGN_HEADER.unpack_from(payload)
            chunk = payload[FRAGN_HEADER_LEN:]
        else:
            return payload  # not fragmented
        size = first & 0x7FF
        key = (sender, tag)

        partials = self._partial
        partial = partials.get(key)
        if partial is not None and now - partial.first_arrival > self._timeout:
            del partials[key]
            partial = None
        if partial is None:
            while partials:
                oldest = next(iter(partials.values()))
                if now - oldest.first_arrival <= self._timeout:
                    break
                partials.popitem(last=False)
            partial = partials[key] = _PartialDatagram({}, now)
        received = partial.received
        received[offset_units] = chunk

        # Completeness: the fragments must tile [0, size) exactly in
        # uncompressed bytes. The FRAG1 chunk's uncompressed extent is
        # its length plus the IPHC compression savings, recovered by
        # parsing the compressed header it carries.
        frag1 = received.get(0)
        if frag1 is None:
            return None
        position = partial.frag1_extent
        if position is None:
            try:
                compressed_hdr, uncompressed_hdr = header_extents(frag1)
            except IphcError:
                return None  # never completes; expires like any partial
            position = len(frag1) + (uncompressed_hdr - compressed_hdr)
            partial.frag1_extent = position
        chunks = []
        for units in sorted(received):
            chunk = received[units]
            if units:  # FRAG1, at offset 0, is already counted
                if units * 8 != position:
                    return None  # hole: a fragment is still missing
                position += len(chunk)
            chunks.append(chunk)
        if position != size:
            return None
        del partials[key]
        return b"".join(chunks)
