"""DNS substrate: wire format (RFC 1035), caching, and resolution.

This package is a from-scratch DNS implementation sufficient to act as
both endpoint roles the paper needs:

* the *stub resolver* side embedded in constrained clients (composing
  queries, parsing responses, maintaining a small TTL-aware cache), and
* the *recursive resolver* side (the DoC server's upstream), backed by a
  zone database that stands in for the paper's mocked resolver.

Wire-format features: domain-name compression pointers, the full header
bit layout, question/answer/authority/additional sections, and rdata
codecs for the record types observed in the paper's Section 3 datasets
(A, AAAA, NS, CNAME, SOA, PTR, TXT, SRV, HTTPS, OPT).
"""

from .enums import DNSClass, Opcode, Rcode, RecordType
from .name import NameError_, decode_name, encode_name, split_name
from .message import Flags, Message, Question, ResourceRecord
from .rdata import (
    AData,
    AAAAData,
    HTTPSData,
    NSData,
    CNAMEData,
    OPTData,
    PTRData,
    RawData,
    SOAData,
    SRVData,
    TXTData,
)
from .cache import DNSCache, CacheEntry
from .zone import Zone, ZoneRecord
from .resolver import RecursiveResolver, StubResolver, make_query

__all__ = [
    "AAAAData",
    "AData",
    "CNAMEData",
    "CacheEntry",
    "DNSCache",
    "DNSClass",
    "Flags",
    "HTTPSData",
    "Message",
    "NSData",
    "NameError_",
    "OPTData",
    "Opcode",
    "PTRData",
    "Question",
    "RawData",
    "Rcode",
    "RecordType",
    "RecursiveResolver",
    "ResourceRecord",
    "SOAData",
    "SRVData",
    "StubResolver",
    "TXTData",
    "Zone",
    "ZoneRecord",
    "decode_name",
    "encode_name",
    "make_query",
    "split_name",
]
