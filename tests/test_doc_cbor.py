"""Tests for the Section 7 compressed CBOR DNS format."""

import pytest
from hypothesis import given, strategies as st

from repro.cborlib import dumps, loads
from repro.dns import (
    AData,
    AAAAData,
    DNSClass,
    Flags,
    Message,
    Question,
    RecordType,
    ResourceRecord,
)
from repro.doc.cbor_format import (
    CborFormatError,
    compression_ratio,
    decode_query,
    decode_response,
    encode_query,
    encode_response,
)
from repro.experiments.packet_sizes import MEDIAN_NAME, canonical_messages


class TestQueryEncoding:
    def test_default_type_class_elided(self):
        data = encode_query(Question("example.org", RecordType.AAAA, DNSClass.IN))
        question = decode_query(data)
        assert question.name == "example.org"
        assert question.rtype == RecordType.AAAA
        assert question.rclass == DNSClass.IN
        # Array of one text string only.
        assert data[0] == 0x81

    def test_non_default_type_included(self):
        data = encode_query(Question("example.org", RecordType.A))
        assert decode_query(data).rtype == RecordType.A
        assert data[0] == 0x82

    def test_non_default_class_includes_type_too(self):
        question = Question("example.org", RecordType.AAAA, DNSClass.CH)
        decoded = decode_query(encode_query(question))
        assert decoded.rclass == DNSClass.CH
        assert decoded.rtype == RecordType.AAAA

    def test_query_much_smaller_than_wire(self):
        from repro.dns import make_query

        wire = make_query(MEDIAN_NAME, RecordType.AAAA, txid=0).encode()
        cbor = encode_query(Question(MEDIAN_NAME, RecordType.AAAA))
        assert len(cbor) < len(wire) * 0.7

    def test_malformed_rejected(self):
        with pytest.raises(CborFormatError):
            decode_query(b"\x00")  # uint, not array
        with pytest.raises(CborFormatError):
            decode_query(b"\x81\x01")  # name not a string

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz.-0123456789", min_size=1, max_size=60))
    def test_query_round_trip_property(self, name):
        question = Question(name, RecordType.AAAA)
        assert decode_query(encode_query(question)).name == name


class TestResponseEncoding:
    def _question(self):
        return Question(MEDIAN_NAME, RecordType.AAAA)

    def _response(self):
        return Message(
            flags=Flags(qr=True),
            questions=(self._question(),),
            answers=(
                ResourceRecord(MEDIAN_NAME, RecordType.AAAA, DNSClass.IN, 300,
                               AAAAData("2001:db8::1")),
            ),
        )

    def test_round_trip(self):
        data = encode_response(self._response())
        decoded = decode_response(data, self._question())
        assert decoded.answers[0].rdata.address == "2001:db8::1"
        assert decoded.answers[0].ttl == 300
        assert decoded.answers[0].name == MEDIAN_NAME

    def test_paper_compression_claim(self):
        """Section 7: the 70-byte AAAA wire response compresses to
        ~24 bytes, a reduction around 66%."""
        response = canonical_messages()["response_aaaa"]
        wire = response.encode()
        assert len(wire) == 70
        cbor = encode_response(response)
        assert len(cbor) <= 26
        assert compression_ratio(wire, cbor) >= 0.6

    def test_mixed_type_answer_keeps_type(self):
        response = Message(
            flags=Flags(qr=True),
            questions=(Question("example.org", RecordType.ANY),),
            answers=(
                ResourceRecord("example.org", RecordType.A, DNSClass.IN, 60,
                               AData("192.0.2.1")),
                ResourceRecord("example.org", RecordType.AAAA, DNSClass.IN, 60,
                               AAAAData("2001:db8::1")),
            ),
        )
        decoded = decode_response(
            encode_response(response), Question("example.org", RecordType.ANY)
        )
        assert decoded.answers[0].rtype == RecordType.A
        assert decoded.answers[1].rtype == RecordType.AAAA

    def test_foreign_name_answer_explicit(self):
        response = Message(
            flags=Flags(qr=True),
            questions=(Question("alias.example.org", RecordType.AAAA),),
            answers=(
                ResourceRecord("canonical.example.org", RecordType.AAAA,
                               DNSClass.IN, 60, AAAAData("2001:db8::1")),
            ),
        )
        decoded = decode_response(
            encode_response(response), response.questions[0]
        )
        assert decoded.answers[0].name == "canonical.example.org"

    def test_ttl_rewrite_while_encoding_equals_encoding_the_rewritten_copy(self):
        """All three answer shapes: bare, typed, fully explicit."""
        response = Message(
            flags=Flags(qr=True),
            questions=(self._question(),),
            answers=(
                ResourceRecord(MEDIAN_NAME, RecordType.AAAA, DNSClass.IN, 300,
                               AAAAData("2001:db8::1")),
                ResourceRecord(MEDIAN_NAME, RecordType.A, DNSClass.IN, 60,
                               AData("192.0.2.1")),
                ResourceRecord("other.example.org", RecordType.A, DNSClass.IN,
                               90, AData("192.0.2.2")),
            ),
        )
        for ttl in (0, 41):
            assert encode_response(response, ttl=ttl) == encode_response(
                response.with_ttls(ttl)
            )
        assert encode_response(response, ttl=None) == encode_response(response)

    def test_self_contained_two_array_form(self):
        # [question, answers]: decoded, never sent, so built here.
        data = dumps([
            loads(encode_query(self._question())),
            loads(encode_response(self._response())),
        ])
        decoded = decode_response(data)   # no external question needed
        assert decoded.questions[0].name == MEDIAN_NAME
        assert decoded.answers[0].rdata.address == "2001:db8::1"

    def test_question_required_without_context(self):
        data = encode_response(self._response())
        with pytest.raises(CborFormatError):
            decode_response(data)

    def test_empty_answer_section(self):
        response = Message(flags=Flags(qr=True), questions=(self._question(),))
        decoded = decode_response(encode_response(response), self._question())
        assert decoded.answers == ()

    def test_no_question_to_elide_against(self):
        with pytest.raises(CborFormatError):
            encode_response(Message(flags=Flags(qr=True)))

    def test_compression_ratio_validation(self):
        with pytest.raises(ValueError):
            compression_ratio(b"", b"x")

    def test_multi_record_response_compresses(self):
        response = Message(
            flags=Flags(qr=True),
            questions=(self._question(),),
            answers=tuple(
                ResourceRecord(MEDIAN_NAME, RecordType.AAAA, DNSClass.IN, 300,
                               AAAAData(f"2001:db8::{i}"))
                for i in range(1, 5)
            ),
        )
        wire = response.encode()
        cbor = encode_response(response)
        assert compression_ratio(wire, cbor) > 0.4
        decoded = decode_response(cbor, self._question())
        assert len(decoded.answers) == 4
