"""Builders of the golden codec vectors.

The CoAP and DNS codecs are on the hottest paths and get rewritten for
speed; ``tests/golden_codec_vectors.json`` pins their wire output down
to the byte (the hex was captured from the seed codecs, before any fast
path). This module holds the other half: one message builder per vector
name. ``tests/test_golden_codec.py`` checks, per vector, that encoding
the built message gives exactly the banked bytes and that decoding
those bytes and re-encoding reproduces them (the round-trip property
the caches and deterministic cache keys rely on).
"""

from repro.coap.codes import Code
from repro.coap.message import CoapMessage, MessageType
from repro.coap.options import ContentFormat, OptionNumber
from repro.dns.enums import DNSClass, RecordType
from repro.dns.message import Flags, Message, Question, ResourceRecord
from repro.dns.rdata import AAAAData, AData, NSData

_NAME = "name0000.example-iot.org"


def _dns_query():
    return Message(id=0, questions=(Question(_NAME, RecordType.AAAA),))


def _dns_response():
    return Message(
        id=0,
        flags=Flags(qr=True, ra=True),
        questions=(Question(_NAME, RecordType.AAAA),),
        answers=(
            ResourceRecord(
                _NAME, RecordType.AAAA, DNSClass.IN, 300, AAAAData("2001:db8::1:1")
            ),
            ResourceRecord(
                _NAME, RecordType.A, DNSClass.IN, 300, AData("192.0.2.1")
            ),
        ),
    )


def _dns_referral():
    return Message(
        id=0,
        flags=Flags(qr=True, aa=True),
        questions=(Question("device.example-iot.org", RecordType.AAAA),),
        answers=(
            ResourceRecord(
                "device.example-iot.org", RecordType.AAAA, DNSClass.IN, 120,
                AAAAData("2001:db8::2:7"),
            ),
        ),
        authorities=(
            ResourceRecord(
                "example-iot.org", RecordType.NS, DNSClass.IN, 3600,
                NSData("ns1.example-iot.org"),
            ),
        ),
    )


def _coap_fetch_request():
    return (
        CoapMessage(
            mtype=MessageType.CON,
            code=Code.FETCH,
            mid=0x1234,
            token=b"\xca\xfe",
            payload=_dns_query().encode(),
        )
        .with_uri_path("/dns")
        .with_uint_option(OptionNumber.CONTENT_FORMAT, ContentFormat.DNS_MESSAGE)
        .with_uint_option(OptionNumber.ACCEPT, ContentFormat.DNS_MESSAGE)
    )


def _coap_content_response():
    return (
        CoapMessage(
            mtype=MessageType.ACK,
            code=Code.CONTENT,
            mid=0x1234,
            token=b"\xca\xfe",
            payload=_dns_response().encode(),
        )
        .with_option(OptionNumber.ETAG, b"\x01\x02\x03\x04")
        .with_uint_option(OptionNumber.CONTENT_FORMAT, ContentFormat.DNS_MESSAGE)
        .with_uint_option(OptionNumber.MAX_AGE, 300)
    )


def _coap_blockwise_get():
    return (
        CoapMessage(
            mtype=MessageType.CON,
            code=Code.GET,
            mid=0xBEEF,
            token=b"\x42",
        )
        .with_uri_path("/dns/cached")
        .with_uint_option(OptionNumber.BLOCK2, 0x06)
        .with_option(OptionNumber.URI_QUERY, b"dns=AAAA")
    )


def _coap_empty_ack():
    return CoapMessage(mtype=MessageType.ACK, code=Code.EMPTY, mid=0x0001)


#: Vector name (as in ``golden_codec_vectors.json``) → message builder.
BUILDERS = {
    "dns_query_aaaa": _dns_query,
    "dns_response_two_answers": _dns_response,
    "dns_referral": _dns_referral,
    "coap_fetch_request": _coap_fetch_request,
    "coap_content_response": _coap_content_response,
    "coap_blockwise_get": _coap_blockwise_get,
    "coap_empty_ack": _coap_empty_ack,
}
