"""CoAP message codec (RFC 7252 §3) and convenience accessors."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .codes import CODE_BY_VALUE, Code
from .options import (
    OptionNumber,
    _decode_options,
    decode_uint,
    encode_options_into,
    encode_uint,
)

COAP_VERSION = 1
COAP_DEFAULT_PORT = 5683
COAPS_DEFAULT_PORT = 5684


class CoapMessageError(ValueError):
    """Raised on malformed CoAP messages."""


class MessageType(enum.IntEnum):
    """The four CoAP message types."""

    CON = 0
    NON = 1
    ACK = 2
    RST = 3


# Decode-path lookup tables: IntEnum constructors cost ~1 µs per call,
# a dict hit is ~20x cheaper and the value sets are tiny and fixed.
_MESSAGE_TYPE_BY_VALUE = {int(member): member for member in MessageType}
_CODE_BY_VALUE = CODE_BY_VALUE


@dataclass(frozen=True, slots=True)
class CoapMessage:
    """A CoAP message.

    Options are stored as a tuple of ``(number, raw_value)`` pairs in
    wire order; typed accessors are provided for the options DoC uses.
    """

    mtype: MessageType = MessageType.CON
    code: Code = Code.EMPTY
    mid: int = 0
    token: bytes = b""
    options: Tuple[Tuple[int, bytes], ...] = ()
    payload: bytes = b""

    # -- option helpers ---------------------------------------------------

    def option_values(self, number: int) -> List[bytes]:
        return [value for num, value in self.options if num == number]

    def option(self, number: int) -> Optional[bytes]:
        for num, value in self.options:
            if num == number:
                return value
        return None

    def uint_option(self, number: int) -> Optional[int]:
        value = self.option(number)
        if value is None:
            return None
        return decode_uint(value)

    def with_option(self, number: int, value: bytes) -> "CoapMessage":
        """Copy with one more option appended (kept sorted on encode)."""
        return CoapMessage(
            self.mtype, self.code, self.mid, self.token,
            self.options + ((number, value),), self.payload,
        )

    def with_uint_option(self, number: int, value: int) -> "CoapMessage":
        return self.with_option(number, encode_uint(value))

    def without_option(self, number: int) -> "CoapMessage":
        return CoapMessage(
            self.mtype, self.code, self.mid, self.token,
            tuple((n, v) for n, v in self.options if n != number),
            self.payload,
        )

    def replace_uint_option(self, number: int, value: int) -> "CoapMessage":
        return self.without_option(number).with_uint_option(number, value)

    # Typed accessors for frequently used options --------------------------

    @property
    def max_age(self) -> Optional[int]:
        return self.uint_option(OptionNumber.MAX_AGE)

    @property
    def etag(self) -> Optional[bytes]:
        return self.option(OptionNumber.ETAG)

    @property
    def etags(self) -> List[bytes]:
        """All ETag options (requests may carry several for validation)."""
        return self.option_values(OptionNumber.ETAG)

    @property
    def uri_path(self) -> str:
        return "/" + "/".join(
            value.decode("utf-8", "replace")
            for value in self.option_values(OptionNumber.URI_PATH)
        )

    def with_uri_path(self, path: str) -> "CoapMessage":
        message = self
        for segment in path.strip("/").split("/"):
            if segment:
                message = message.with_option(
                    OptionNumber.URI_PATH, segment.encode("utf-8")
                )
        return message

    # -- wire format -------------------------------------------------------

    def encode(self) -> bytes:
        if not 0 <= self.mid <= 0xFFFF:
            raise CoapMessageError("message ID out of range")
        token = self.token
        if len(token) > 8:
            raise CoapMessageError("token longer than 8 bytes")
        # One buffer end to end: header, token, options, and payload
        # are appended in place (no per-section intermediates).
        out = bytearray(
            (
                (COAP_VERSION << 6) | (self.mtype << 4) | len(token),
                int(self.code),
                self.mid >> 8,
                self.mid & 0xFF,
            )
        )
        out += token
        encode_options_into(out, self.options)
        if self.payload:
            out += b"\xff"
            out += self.payload
        return bytes(out)

    @classmethod
    def decode(cls, data) -> "CoapMessage":
        """Parse a CoAP message from ``bytes | memoryview``.

        The input is only read (never mutated); the token, option
        values, and payload are each materialised to owned ``bytes``
        exactly once, at the point they are stored on the message.
        """
        size = len(data)
        if size < 4:
            raise CoapMessageError("message shorter than header")
        first = data[0]
        version = first >> 6
        if version != COAP_VERSION:
            raise CoapMessageError(f"unsupported CoAP version {version}")
        mtype = _MESSAGE_TYPE_BY_VALUE[(first >> 4) & 0x3]
        token_length = first & 0x0F
        if token_length > 8:
            raise CoapMessageError("token length 9-15 is reserved")
        code = _CODE_BY_VALUE.get(data[1])
        if code is None:
            raise CoapMessageError(f"unknown code 0x{data[1]:02x}")
        mid = (data[2] << 8) | data[3]
        if 4 + token_length > size:
            raise CoapMessageError("truncated token")
        token = bytes(data[4 : 4 + token_length]) if token_length else b""
        options, payload_offset = _decode_options(data, 4 + token_length)
        # Single boundary materialisation: everything after the 0xFF
        # marker becomes the owned payload in one copy (empty-payload
        # messages share the b"" singleton instead of allocating).
        payload = bytes(data[payload_offset:]) if payload_offset < size else b""
        if code is Code.EMPTY and (token or options or payload):
            raise CoapMessageError("empty message with content")
        return cls(mtype, code, mid, token, options, payload)

    # -- message factories -------------------------------------------------

    @classmethod
    def request(
        cls,
        code: Code,
        path: str = "",
        *,
        mtype: MessageType = MessageType.CON,
        mid: int = 0,
        token: bytes = b"",
        payload: bytes = b"",
        confirmable: bool = True,
    ) -> "CoapMessage":
        if not code.is_request:
            raise CoapMessageError(f"{code!r} is not a request code")
        message = cls(
            mtype=mtype if confirmable else MessageType.NON,
            code=code,
            mid=mid,
            token=token,
            payload=payload,
        )
        if path:
            message = message.with_uri_path(path)
        return message

    def make_response(
        self,
        code: Code,
        *,
        payload: bytes = b"",
        piggybacked: bool = True,
        options: Tuple[Tuple[int, bytes], ...] = (),
    ) -> "CoapMessage":
        """Build a response matching this request's token.

        Piggybacked responses ride on the ACK (same MID); separate
        responses get a fresh CON/NON exchange. *options* given in
        option-number order spare the encoder its sort.
        """
        if piggybacked and self.mtype == MessageType.CON:
            mtype = MessageType.ACK
        else:
            mtype = MessageType.NON
        return CoapMessage(mtype, code, self.mid, self.token, options, payload)

    def make_ack(self) -> "CoapMessage":
        """An empty ACK for this CON message."""
        return CoapMessage(mtype=MessageType.ACK, code=Code.EMPTY, mid=self.mid)
