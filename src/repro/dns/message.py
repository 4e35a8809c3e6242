"""DNS message codec (RFC 1035 §4) with compression on encode.

The paper's DoC design (Section 4.2) requires two message-level
manipulations, both provided here:

* ``Message.with_id(0)`` — zeroing the transaction ID for deterministic
  CoAP cache keys,
* ``Message.with_ttls(ttl)`` / ``Message.adjust_ttls(delta)`` — the
  EOL-TTLs rewrite and the client-side TTL restore from Max-Age.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.net.buffers import Buffer, materialize
from .enums import _RECORD_TYPE_BY_VALUE, DNSClass, Opcode, Rcode, RecordType
from .name import decode_name, encode_name
from .rdata import decode_rdata

_HEADER = struct.Struct("!HHHHHH")
_QUESTION_FIXED = struct.Struct("!HH")
_RECORD_FIXED = struct.Struct("!HHIH")


class MessageError(ValueError):
    """Raised on malformed DNS messages."""


def _out_of_range(fields: Dict[str, int]) -> MessageError:
    """Name the 16-bit field(s) ``struct`` refused to pack."""
    bad = [
        name for name, value in fields.items()
        if not (isinstance(value, int) and 0 <= value <= 0xFFFF)
    ]
    return MessageError(f"{' and '.join(bad)} out of 16-bit range")


@dataclass(frozen=True, slots=True)
class Flags:
    """The 16 header flag bits following the transaction ID."""

    qr: bool = False
    opcode: int = Opcode.QUERY
    aa: bool = False
    tc: bool = False
    rd: bool = True
    ra: bool = False
    ad: bool = False
    cd: bool = False
    rcode: int = Rcode.NOERROR

    def encode(self) -> int:
        return (
            self.qr << 15 | (self.opcode & 0xF) << 11 | self.aa << 10
            | self.tc << 9 | self.rd << 8 | self.ra << 7
            | self.ad << 5 | self.cd << 4 | self.rcode & 0xF
        )


@lru_cache(maxsize=1024)
def _decode_flags(value: int) -> Flags:
    # Real traffic uses a handful of distinct flag words; memoising
    # skips the nine-field frozen-dataclass build on the decode path.
    return Flags(
        qr=bool(value & 0x8000),
        opcode=(value >> 11) & 0xF,
        aa=bool(value & 0x0400),
        tc=bool(value & 0x0200),
        rd=bool(value & 0x0100),
        ra=bool(value & 0x0080),
        ad=bool(value & 0x0020),
        cd=bool(value & 0x0010),
        rcode=value & 0xF,
    )


@dataclass(frozen=True, slots=True)
class Question:
    """An entry of the question section."""

    name: str
    rtype: int = RecordType.AAAA
    rclass: int = DNSClass.IN

    def encode_into(
        self, out: bytearray, compress: Dict[str, int] | None
    ) -> None:
        """Append this question's wire form to *out*, the message being
        built: ``len(out)`` is the wire offset compression registers."""
        out += encode_name(self.name, compress, len(out))
        try:
            out += _QUESTION_FIXED.pack(self.rtype, self.rclass)
        except struct.error:
            raise _out_of_range(
                {"type": self.rtype, "class": self.rclass}
            ) from None

    def cache_key(self) -> Tuple[str, int, int]:
        """Key identifying this question for DNS caches."""
        return (self.name.lower(), int(self.rtype), int(self.rclass))


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    """A resource record of the answer/authority/additional sections."""

    name: str
    rtype: int
    rclass: int
    ttl: int
    rdata: object

    def encode_into(
        self,
        out: bytearray,
        compress: Dict[str, int] | None,
        ttl: Optional[int] = None,
    ) -> None:
        """Append this record's wire form to *out* (see Question),
        with *ttl* in place of its own unless it is an OPT record."""
        out += encode_name(self.name, compress, len(out))
        if ttl is None or self.rtype == RecordType.OPT:
            ttl = self.ttl
        rdata = self.rdata.encode(compress, len(out) + 10)
        try:
            out += _RECORD_FIXED.pack(
                self.rtype, self.rclass, ttl & 0xFFFFFFFF, len(rdata)
            )
        except struct.error:
            raise _out_of_range({
                "type": self.rtype, "class": self.rclass,
                "rdata length": len(rdata),
            }) from None
        out += rdata


@dataclass(frozen=True)
class Message:
    """A complete DNS message."""

    id: int = 0
    flags: Flags = field(default_factory=Flags)
    questions: Tuple[Question, ...] = ()
    answers: Tuple[ResourceRecord, ...] = ()
    authorities: Tuple[ResourceRecord, ...] = ()
    additionals: Tuple[ResourceRecord, ...] = ()

    # -- construction helpers -------------------------------------------

    def with_id(self, new_id: int) -> "Message":
        """Return a copy with the transaction ID replaced.

        DoC zeroes the ID (Section 4.2) so that equal queries serialise
        to equal bytes and hit the same CoAP cache entry.
        """
        return Message(
            new_id & 0xFFFF, self.flags, self.questions,
            self.answers, self.authorities, self.additionals,
        )

    def with_ttls(self, ttl: int) -> "Message":
        """Return a copy with every record's TTL set to *ttl*.

        With ``ttl=0`` this is the server-side EOL-TTLs rewrite.
        """
        return self._map_ttl(ttl, None)

    def adjust_ttls(self, delta: int) -> "Message":
        """Return a copy with *delta* added to every TTL (floored at 0).

        Used by clients to restore TTLs from the CoAP Max-Age option and
        by DNS caches to age records.
        """
        return self._map_ttl(None, delta)

    def _map_ttl(self, ttl: Optional[int], delta: Optional[int]) -> "Message":
        """Every non-OPT record with TTL *ttl*, or its own plus *delta*."""
        sections = []
        for section in (self.answers, self.authorities, self.additionals):
            records = []
            for r in section:
                if r.rtype != RecordType.OPT:
                    new = ttl if delta is None else max(0, r.ttl + delta)
                    r = ResourceRecord(r.name, r.rtype, r.rclass, new, r.rdata)
                records.append(r)
            sections.append(tuple(records))
        return Message(self.id, self.flags, self.questions, *sections)

    def min_ttl(self) -> Optional[int]:
        """Minimum TTL over all non-OPT records, or ``None`` if empty."""
        lowest = None
        for section in (self.answers, self.authorities, self.additionals):
            for record in section:
                if record.rtype != RecordType.OPT and (
                    lowest is None or record.ttl < lowest
                ):
                    lowest = record.ttl
        return lowest

    # -- wire format -----------------------------------------------------

    def encode(self, compress: bool = True, ttl: Optional[int] = None) -> bytes:
        """Serialise to DNS wire format.

        Name compression is on by default, matching common resolver
        behaviour and the sizes reported in the paper. With *ttl*, every
        non-OPT record is written with that TTL — the bytes of
        ``with_ttls(ttl).encode()`` without building that message (the
        server-side EOL-TTLs rewrite is ``encode(ttl=0)``).
        """
        sections = (self.answers, self.authorities, self.additionals)
        try:
            out = bytearray(_HEADER.pack(
                self.id & 0xFFFF, self.flags.encode(), len(self.questions),
                len(sections[0]), len(sections[1]), len(sections[2]),
            ))
        except struct.error:
            raise MessageError("section count exceeds 16 bits") from None
        table: Dict[str, int] | None = {} if compress else None
        # Sections append into the one message buffer; ``len(out)`` is
        # each element's wire offset, so compression sees true offsets
        # without any per-question/per-record intermediate bytes.
        for question in self.questions:
            question.encode_into(out, table)
        for section in sections:
            for record in section:
                record.encode_into(out, table, ttl)
        return bytes(out)

    @classmethod
    def decode(cls, data: Buffer) -> "Message":
        """Parse a wire-format DNS message from ``bytes | memoryview``.

        Decoding is a pure function of the wire bytes and a message is
        immutable all the way down (frozen dataclasses over tuples), so
        results are memoised: caching schemes decode the same response
        bytes many times over (revalidations, retransmissions, shared
        zone data). The input is materialised exactly once here — the
        memo key must own its bytes — and never mutated.
        """
        return _decode_cached(materialize(data))

    @classmethod
    def _decode(cls, data: bytes) -> "Message":
        size = len(data)
        if size < 12:
            raise MessageError("message shorter than header")
        msg_id, flags_raw, qdcount, ancount, nscount, arcount = (
            _HEADER.unpack_from(data)
        )
        flags = _decode_flags(flags_raw)
        offset = 12

        rtype_of = _RECORD_TYPE_BY_VALUE.get
        #: offset -> the name written out in full there (no pointer in
        #: it), so a two-byte pointer to it costs one lookup.
        names: Dict[int, str] = {}
        questions: List[Question] = []
        for _ in range(qdcount):
            start = offset
            name, offset = decode_name(data, offset)
            if offset - start == len(name) + 2:
                names[start] = name
            if offset + 4 > size:
                raise MessageError("truncated question")
            rtype, rclass = _QUESTION_FIXED.unpack_from(data, offset)
            offset += 4
            questions.append(Question(name, rtype_of(rtype, rtype), rclass))
        if not (ancount or nscount or arcount):
            return cls(msg_id, flags, tuple(questions))

        sections: List[Tuple[ResourceRecord, ...]] = []
        for count in (ancount, nscount, arcount):
            records: List[ResourceRecord] = []
            for _ in range(count):
                start = offset
                # An owner that is nothing but a pointer to such a name
                # is what ``decode_name`` would make of it in one jump;
                # every other shape (and every truncation) is its to judge.
                name = (
                    names.get(((data[start] & 0x3F) << 8) | data[start + 1])
                    if start + 1 < size and data[start] >= 0xC0
                    else None
                )
                if name is not None:
                    offset += 2
                else:
                    name, offset = decode_name(data, offset)
                    if offset - start == len(name) + 2:
                        names[start] = name
                if offset + 10 > size:
                    raise MessageError("truncated resource record")
                rtype, rclass, ttl, rdlength = _RECORD_FIXED.unpack_from(
                    data, offset
                )
                offset += 10
                if offset + rdlength > size:
                    raise MessageError("truncated rdata")
                rdata = decode_rdata(rtype, data, offset, rdlength)
                offset += rdlength
                records.append(ResourceRecord(
                    name, rtype_of(rtype, rtype), rclass, ttl, rdata
                ))
            sections.append(tuple(records))
        return cls(msg_id, flags, tuple(questions), *sections)


@lru_cache(maxsize=2048)
def _decode_cached(data: bytes) -> Message:
    return Message._decode(data)
