"""CoAP substrate (RFC 7252) with the extensions DoC relies on.

Implemented here:

* the 4-byte-header message codec with delta-encoded options,
* methods GET/POST/PUT/DELETE plus FETCH/PATCH/iPATCH (RFC 8132),
* block-wise transfer options Block1/Block2 (RFC 7959),
* the freshness/validation cache model (Max-Age, ETag, 2.03 Valid),
* the reliability layer (CON/ACK, exponential back-off, RFC 7252 §4.2),
* a caching forward proxy (Proxy-Uri handling),
* a URI-Template processor (RFC 6570 level 1) for GET-based DoC.

The client/server endpoints are transport-agnostic: they talk to any
object with a datagram ``send`` and a receive callback, which is how
plain UDP, DTLS, and the simulator all plug in underneath.
"""

from .codes import Code, CodeClass
from .options import ContentFormat, OptionNumber, encode_options, decode_options
from .message import CoapMessage, CoapMessageError, MessageType
from .blockwise import Block, BlockError
from .cache import CoapCache, CacheKey, cache_key_for
from .reliability import ReliabilityParams, TransmissionState
from .uri import UriTemplate, base64url_decode, base64url_encode

__all__ = [
    "Block",
    "BlockError",
    "CacheKey",
    "Code",
    "CodeClass",
    "CoapCache",
    "CoapMessage",
    "CoapMessageError",
    "ContentFormat",
    "MessageType",
    "OptionNumber",
    "ReliabilityParams",
    "TransmissionState",
    "UriTemplate",
    "base64url_decode",
    "base64url_encode",
    "cache_key_for",
    "decode_options",
    "encode_options",
]
