"""Plain RFC 1035 §4.1 message encoder and decoder, the oracle for
``repro.dns.message``.

Written to share nothing with the code under test: no memo, no
``struct``, no rdata classes. A message is a plain dict::

    {"id": 0x1234, "flags": 0x8180,
     "questions": [(name, rtype, rclass), ...],
     "answers" | "authorities" | "additionals":
         [(name, rtype, rclass, ttl, rdata), ...]}

Names are presentation format without the trailing dot (``""`` is the
root). To :func:`encode_message`, *rdata* is a list of parts in wire
order — ``bytes`` copied as they are, ``("name", n)`` a name that takes
part in compression (NS, CNAME, PTR, SOA; RFC 1035 §4.1.4 allows it for
the types it defines) and ``("plain-name", n)`` one that must not (SRV,
RFC 2782; HTTPS, RFC 9460). :func:`decode_message` returns rdata as
bytes with every name in it written out in full, whatever the wire
compressed.

Compression is §4.1.4 read literally: before each label, if the rest of
the name (compared without case, §2.3.3) was written earlier at an
offset a 14-bit pointer can reach, a pointer to it ends the name.
"""

from typing import Dict, List, Tuple

POINTER_LIMIT = 0x4000  # 14 bits of offset

# Types whose rdata holds names, and where: each entry is the layout of
# the rdata as (kind, size) steps; "name" is one domain name.
_NS, _CNAME, _SOA, _PTR, _SRV, _HTTPS = 2, 5, 6, 12, 33, 65
_RDATA_LAYOUT = {
    _NS: ["name"],
    _CNAME: ["name"],
    _PTR: ["name"],
    _SOA: ["name", "name", 20],
    _SRV: [6, "name"],
    _HTTPS: [2, "name", "rest"],
}


def _u16(value: int) -> bytes:
    if not 0 <= value <= 0xFFFF:
        raise ValueError(f"{value} does not fit 16 bits")
    return bytes([value >> 8, value & 0xFF])


def _u32(value: int) -> bytes:
    return bytes([
        (value >> 24) & 0xFF, (value >> 16) & 0xFF, (value >> 8) & 0xFF,
        value & 0xFF,
    ])


def _labels(name: str) -> List[str]:
    return name.split(".") if name else []


# -- encoding ----------------------------------------------------------------


def _write_name(
    out: bytearray, name: str, seen: Dict[Tuple[str, ...], int] | None
) -> None:
    """Append *name* at ``len(out)``; *seen* maps a lower-cased label
    suffix to the offset it was first written at (None: no compression)."""
    labels = _labels(name)
    for index in range(len(labels)):
        if seen is not None:
            suffix = tuple(label.lower() for label in labels[index:])
            if suffix in seen:
                pointer = seen[suffix]
                out.append(0xC0 | (pointer >> 8))
                out.append(pointer & 0xFF)
                return
            if len(out) < POINTER_LIMIT:
                seen[suffix] = len(out)
        label = labels[index].encode("ascii")
        if not 1 <= len(label) <= 63:
            raise ValueError(f"label of {len(label)} bytes")
        out.append(len(label))
        out.extend(label)
    out.append(0)


def encode_message(message: dict, compress: bool = True) -> bytes:
    sections = [message.get(key, []) for key in (
        "answers", "authorities", "additionals"
    )]
    out = bytearray()
    out += _u16(message["id"]) + _u16(message["flags"])
    out += _u16(len(message.get("questions", [])))
    for section in sections:
        out += _u16(len(section))
    seen: Dict[Tuple[str, ...], int] | None = {} if compress else None
    for name, rtype, rclass in message.get("questions", []):
        _write_name(out, name, seen)
        out += _u16(rtype) + _u16(rclass)
    for section in sections:
        for name, rtype, rclass, ttl, rdata in section:
            _write_name(out, name, seen)
            out += _u16(rtype) + _u16(rclass) + _u32(ttl)
            length_at = len(out)
            out += b"\x00\x00"  # RDLENGTH, known once the rdata is written
            for part in rdata:
                if isinstance(part, bytes):
                    out += part
                elif part[0] == "name":
                    _write_name(out, part[1], seen)
                else:
                    _write_name(out, part[1], None)
            out[length_at:length_at + 2] = _u16(len(out) - length_at - 2)
    return bytes(out)


# -- decoding ----------------------------------------------------------------


def _byte(wire: bytes, offset: int) -> int:
    if offset >= len(wire):
        raise ValueError(f"truncated at offset {offset}")
    return wire[offset]


def read_name(wire: bytes, offset: int) -> Tuple[str, int]:
    """The name at *offset* and the offset behind its first encoding."""
    labels: List[str] = []
    behind = None
    while True:
        length = _byte(wire, offset)
        if length >= 0xC0:
            target = ((length & 0x3F) << 8) | _byte(wire, offset + 1)
            if behind is None:
                behind = offset + 2
            if target >= offset:  # §4.1.4: a *prior* occurrence
                raise ValueError(f"pointer at {offset} does not point back")
            offset = target
        elif length >= 0x40:
            raise ValueError(f"reserved label type at {offset}")
        elif length == 0:
            return ".".join(labels), offset + 1 if behind is None else behind
        else:
            _byte(wire, offset + length)
            labels.append(wire[offset + 1:offset + 1 + length].decode("ascii"))
            offset += 1 + length


def _plain_name(name: str) -> bytes:
    out = bytearray()
    _write_name(out, name, None)
    return bytes(out)


def _expand_rdata(wire: bytes, rtype: int, offset: int, length: int) -> bytes:
    """The rdata with each name in it uncompressed."""
    end = offset + length
    out = b""
    for step in _RDATA_LAYOUT.get(rtype, ["rest"]):
        if step == "name":
            name, offset = read_name(wire, offset)
            out += _plain_name(name)
        else:
            size = end - offset if step == "rest" else step
            out += wire[offset:offset + size]
            offset += size
    return out


def decode_message(wire: bytes) -> dict:
    if len(wire) < 12:
        raise ValueError("shorter than a header")
    words = [(wire[i] << 8) | wire[i + 1] for i in range(0, 12, 2)]
    message = {"id": words[0], "flags": words[1], "questions": []}
    offset = 12
    for _ in range(words[2]):
        name, offset = read_name(wire, offset)
        _byte(wire, offset + 3)
        message["questions"].append((
            name,
            (wire[offset] << 8) | wire[offset + 1],
            (wire[offset + 2] << 8) | wire[offset + 3],
        ))
        offset += 4
    for key, count in zip(("answers", "authorities", "additionals"), words[3:]):
        message[key] = []
        for _ in range(count):
            name, offset = read_name(wire, offset)
            _byte(wire, offset + 9)
            fixed = wire[offset:offset + 10]
            rtype = (fixed[0] << 8) | fixed[1]
            rclass = (fixed[2] << 8) | fixed[3]
            ttl = (fixed[4] << 24) | (fixed[5] << 16) | (fixed[6] << 8) | fixed[7]
            length = (fixed[8] << 8) | fixed[9]
            offset += 10
            if offset + length > len(wire):
                raise ValueError("truncated rdata")
            message[key].append((
                name, rtype, rclass, ttl,
                _expand_rdata(wire, rtype, offset, length),
            ))
            offset += length
    return message
