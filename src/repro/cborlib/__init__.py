"""Concise Binary Object Representation (CBOR, RFC 8949) — minimal codec.

This is a from-scratch implementation of the CBOR subset required by the
rest of the repository:

* COSE_Encrypt0 objects for OSCORE (:mod:`repro.oscore`),
* the compressed DNS message format of Section 7 of the paper
  (:mod:`repro.doc.cbor_format`).

Decoded major types: unsigned/negative integers, byte strings, text
strings, arrays, maps, tags, simple values (false/true/null), and floats;
indefinite-length items too. Encoded: integers, byte and text strings,
arrays, ``None`` and booleans, deterministically (RFC 8949 §4.2) -- what
those two users send.

Example
-------
>>> from repro.cborlib import dumps, loads
>>> dumps(["example.org", 28])
b'\\x82kexample.org\\x18\\x1c'
>>> loads(bytes.fromhex("a10143") + b"key")
{1: b'key'}
"""

from .encoder import CBOREncodeError, dump_into, dumps
from .decoder import CBORDecodeError, loads
from .types import Tag, Simple, UNDEFINED

__all__ = [
    "CBORDecodeError",
    "CBOREncodeError",
    "Simple",
    "Tag",
    "UNDEFINED",
    "dump_into",
    "dumps",
    "loads",
]
