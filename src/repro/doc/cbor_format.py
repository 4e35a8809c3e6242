"""The compressed CBOR DNS message format of Section 7
(draft-lenders-dns-cbor).

Queries become a CBOR array of up to three entries::

    [name]                       — type defaults to AAAA, class to IN
    [name, type]                 — class defaults to IN
    [name, type, class]

Responses exploit the transactional context of CoAP: the question is
implied by the request, so a response is just the answer section — an
array of answer arrays. Each answer is::

    [ttl, rdata]                 — name and type inherited from the question
    [ttl, rdata, type]           — name inherited
    [name, ttl, rdata, type]     — fully explicit

where rdata is a byte string (the record's wire rdata). A response
that carries its question (e.g. out-of-transaction use) is the
two-array wrapper ``[question, answers]``; it is decoded, never sent.

Section 7 reports the 70-byte wire-format AAAA response compressing to
24 bytes (−66%); ``benchmarks/test_sec7_cbor_compression.py`` checks
this against these codecs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.cborlib import dumps, loads
from repro.dns.enums import DNSClass, RecordType
from repro.dns.message import Flags, Message, Question, ResourceRecord
from repro.dns.rdata import decode_rdata


class CborFormatError(ValueError):
    """Raised on malformed CBOR DNS messages."""


def encode_query(question: Question) -> bytes:
    """Encode *question* as a CBOR query array with elision."""
    items: List[object] = [question.name]
    include_class = question.rclass != DNSClass.IN
    if include_class:
        items += [int(question.rtype), int(question.rclass)]
    elif question.rtype != RecordType.AAAA:
        items.append(int(question.rtype))
    return dumps(items)


def decode_query(data: bytes) -> Question:
    """Decode a CBOR query array back into a :class:`Question`."""
    items = loads(data)
    if not isinstance(items, list) or not 1 <= len(items) <= 3:
        raise CborFormatError("query must be an array of 1..3 items")
    if not isinstance(items[0], str):
        raise CborFormatError("query name must be a text string")
    name = items[0]
    rtype = items[1] if len(items) > 1 else int(RecordType.AAAA)
    rclass = items[2] if len(items) > 2 else int(DNSClass.IN)
    if not isinstance(rtype, int) or not isinstance(rclass, int):
        raise CborFormatError("type/class must be unsigned integers")
    return Question(name, RecordType.from_value(rtype), rclass)


def _encode_answer(
    record: ResourceRecord, question: Question, ttl: Optional[int]
) -> list:
    rdata = record.rdata.encode(None, 0)
    if ttl is None or record.rtype == RecordType.OPT:
        ttl = record.ttl
    same_name = record.name.lower() == question.name.lower()
    same_type = int(record.rtype) == int(question.rtype)
    if same_name and same_type:
        return [ttl, rdata]
    if same_name:
        return [ttl, rdata, int(record.rtype)]
    return [record.name, ttl, rdata, int(record.rtype)]


def encode_response(
    response: Message,
    question: Optional[Question] = None,
    ttl: Optional[int] = None,
) -> bytes:
    """Encode the answer section of *response* as CBOR.

    The question defaults to the response's own question section. With
    *ttl*, answers carry it in place of their own, as
    ``Message.encode(ttl=...)`` writes them (the EOL-TTLs rewrite).
    """
    if question is None:
        if not response.questions:
            raise CborFormatError("no question to elide against")
        question = response.questions[0]
    return dumps([
        _encode_answer(record, question, ttl) for record in response.answers
    ])


def _decode_answer(item: list, question: Question) -> ResourceRecord:
    if not isinstance(item, list) or not 2 <= len(item) <= 4:
        raise CborFormatError("answer must be an array of 2..4 items")
    if isinstance(item[0], str):
        if len(item) != 4:
            raise CborFormatError("named answer must have 4 items")
        name, ttl, rdata, rtype = item
    elif len(item) == 2:
        name, (ttl, rdata), rtype = question.name, item, int(question.rtype)
    else:
        name, (ttl, rdata, rtype) = question.name, item
    if not isinstance(ttl, int) or not isinstance(rdata, bytes):
        raise CborFormatError("ttl must be uint, rdata must be bytes")
    decoded = decode_rdata(int(rtype), rdata, 0, len(rdata))
    return ResourceRecord(
        name, RecordType.from_value(int(rtype)), int(DNSClass.IN), ttl, decoded
    )


def decode_response(data: bytes, question: Optional[Question] = None) -> Message:
    """Decode a CBOR response; *question* supplies the elided context."""
    items = loads(data)
    if not isinstance(items, list):
        raise CborFormatError("response must be an array")
    if (
        len(items) == 2
        and isinstance(items[0], list)
        and items[0]
        and isinstance(items[0][0], str)
        and isinstance(items[1], list)
        and (not items[1] or isinstance(items[1][0], list))
    ):
        question = decode_query(dumps(items[0]))
        answers_items = items[1]
    else:
        answers_items = items
    if question is None:
        raise CborFormatError("question context required to decode response")
    answers = tuple(_decode_answer(item, question) for item in answers_items)
    return Message(
        id=0,
        flags=Flags(qr=True, ra=True),
        questions=(question,),
        answers=answers,
    )


def compression_ratio(wire: bytes, cbor: bytes) -> float:
    """Fractional size reduction of *cbor* relative to *wire*."""
    if not wire:
        raise ValueError("empty wire message")
    return 1.0 - len(cbor) / len(wire)
