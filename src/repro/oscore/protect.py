"""OSCORE message protection and verification (RFC 8613 §8).

The transformation:

* **inner (plaintext)** — the real code, the Class-E options, and the
  payload, serialised as ``code || options || 0xFF payload``;
* **outer** — a new CoAP message exposing only Class-U options (proxy
  routing options, and the OSCORE option itself); its code is POST for
  requests and 2.04 Changed for responses, hiding the real semantics;
* **COSE_Encrypt0** — the inner bytes encrypted with AES-CCM under the
  RFC 8613 §5.4 AAD; the raw ciphertext is the outer payload.

Responses reuse the request's nonce: no Partial IV on the wire, which
is the size Figure 6 shows. A response that carries a Partial IV (RFC
8613 §8.3) is still verified, with the nonce it names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from repro.cborlib import dumps
from repro.coap.codes import CODE_BY_VALUE, Code
from repro.crypto import AEADError
from repro.coap.message import CoapMessage, MessageType
from repro.coap.options import OptionNumber, decode_options, encode_options

from .context import (
    AES_CCM_16_64_128_ALG,
    OscoreError,
    SecurityContext,
    decode_partial_iv,
    encode_partial_iv,
)
from .option import OscoreOptionValue

#: Options processed by proxies, therefore visible on the outer message
#: (Class U, RFC 8613 §4.1.2).
_CLASS_U = frozenset(
    {
        OptionNumber.URI_HOST,
        OptionNumber.URI_PORT,
        OptionNumber.PROXY_URI,
        OptionNumber.PROXY_SCHEME,
    }
)


@dataclass(frozen=True)
class RequestBinding:
    """The (kid, Partial IV) pair binding a response to its request."""

    kid: bytes
    partial_iv: bytes


def _split_options(message: CoapMessage) -> Tuple[list, list]:
    """Partition options into (outer/Class-U, inner/Class-E)."""
    outer, inner = [], []
    for number, value in message.options:
        if number in _CLASS_U:
            outer.append((number, value))
        else:
            inner.append((number, value))
    return outer, inner


def encode_plaintext(code: Code, inner_options, payload: bytes) -> bytes:
    """``code || options || 0xFF payload``: the OSCORE plaintext, laid
    out like a CoAP body (RFC 8613 §5.3)."""
    out = bytearray([int(code)])
    out += encode_options(inner_options)
    if payload:
        out += b"\xff" + payload
    return bytes(out)


def _parse_plaintext(data: bytes) -> Tuple[Code, tuple, bytes]:
    """``(code, options, payload)`` of a plaintext or CoAP body; raises
    :class:`OscoreError` for a code no registry knows and
    :class:`~repro.coap.options.OptionError` for malformed options."""
    if not data:
        raise OscoreError("empty OSCORE plaintext")
    code = CODE_BY_VALUE.get(data[0])
    if code is None:
        raise OscoreError(f"invalid inner code 0x{data[0]:02x}")
    options, payload_offset = decode_options(data, 1)
    return code, tuple(options), bytes(data[payload_offset:])


@lru_cache(maxsize=4096)
def _external_aad(request_kid: bytes, request_piv: bytes) -> bytes:
    """RFC 8613 §5.4 external_aad (I options empty, single algorithm).

    A pure function of (kid, Partial IV), and every exchange needs it
    twice (seal and open) — memoised to skip the repeated CBOR encode.
    """
    external = dumps(
        [1, [AES_CCM_16_64_128_ALG], request_kid, request_piv, b""]
    )
    return dumps(["Encrypt0", b"", external])


def protect_request(
    context: SecurityContext, request: CoapMessage,
    outer_code: Code = Code.POST,
) -> Tuple[CoapMessage, RequestBinding]:
    """Encrypt *request*; returns the outer message and the binding
    needed to verify/produce the matching response.

    ``outer_code`` is POST per RFC 8613 §4.1.3.5; cacheable OSCORE uses
    FETCH so proxies may cache the protected exchange.
    """
    if not request.code.is_request:
        raise OscoreError("protect_request needs a request")
    sequence = context.next_sequence()
    partial_iv = encode_partial_iv(sequence)
    outer_options, inner_options = _split_options(request)

    plaintext = encode_plaintext(request.code, inner_options, request.payload)
    nonce = context.nonce(context.sender_id, partial_iv)
    aad = _external_aad(context.sender_id, partial_iv)
    ciphertext = context.sender_aead().encrypt(nonce, plaintext, aad)

    option_value = OscoreOptionValue(
        partial_iv=partial_iv, kid=context.sender_id,
        kid_context=context.context_id,
    )
    outer = CoapMessage(
        mtype=request.mtype,
        code=outer_code,
        mid=request.mid,
        token=request.token,
        options=tuple(outer_options)
        + ((OptionNumber.OSCORE, option_value.encode()),),
        payload=ciphertext,
    )
    return outer, RequestBinding(context.sender_id, partial_iv)


def open_request(
    context: SecurityContext, outer: CoapMessage, enforce_replay: bool = True
) -> Tuple[bytes, RequestBinding]:
    """Verify and decrypt an incoming protected request.

    Returns the plaintext (``code || options || 0xFF payload``, laid
    out like a CoAP body) and the binding; :func:`unprotect_request`
    parses it into the inner request.
    """
    option_data = outer.option(OptionNumber.OSCORE)
    if option_data is None:
        raise OscoreError("missing OSCORE option")
    value = OscoreOptionValue.decode(option_data)
    if value.kid is None:
        raise OscoreError("request without kid")
    if value.kid != context.recipient_id:
        raise OscoreError(
            f"unknown kid {value.kid!r} (expected {context.recipient_id!r})"
        )
    sequence = decode_partial_iv(value.partial_iv)
    if enforce_replay and not context.replay_window.check(sequence):
        raise OscoreError(f"replayed Partial IV {sequence}")

    nonce = context.nonce(value.kid, value.partial_iv)
    aad = _external_aad(value.kid, value.partial_iv)
    try:
        plaintext = context.recipient_aead().decrypt(nonce, outer.payload, aad)
    except AEADError as exc:
        raise OscoreError("request authentication failed") from exc
    if enforce_replay:
        context.replay_window.accept(sequence)
    return plaintext, RequestBinding(value.kid, value.partial_iv)


def request_from_plaintext(outer: CoapMessage, plaintext: bytes) -> CoapMessage:
    """The inner request of *outer*, whose decrypted body is *plaintext*."""
    code, inner_options, payload = _parse_plaintext(plaintext)
    if not code.is_request:
        raise OscoreError("inner message is not a request")
    outer_options = tuple(
        (n, v) for n, v in outer.options if n in _CLASS_U
    )
    return CoapMessage(
        mtype=outer.mtype,
        code=code,
        mid=outer.mid,
        token=outer.token,
        options=outer_options + inner_options,
        payload=payload,
    )


def unprotect_request(
    context: SecurityContext, outer: CoapMessage, enforce_replay: bool = True
) -> Tuple[CoapMessage, RequestBinding]:
    """Verify and decrypt an incoming protected request."""
    plaintext, binding = open_request(context, outer, enforce_replay)
    return request_from_plaintext(outer, plaintext), binding


def protect_response(
    context: SecurityContext,
    response: CoapMessage,
    binding: RequestBinding,
    outer_code: Code = Code.CHANGED,
    outer_options: Tuple[Tuple[int, bytes], ...] = (),
) -> CoapMessage:
    """Encrypt *response* bound to the request identified by *binding*,
    reusing the request's nonce (no Partial IV on the wire)."""
    if not response.code.is_response:
        raise OscoreError("protect_response needs a response")
    outer_class_u, inner_options = _split_options(response)
    return seal_response(
        context,
        encode_plaintext(response.code, inner_options, response.payload),
        binding,
        response.mtype,
        response.mid,
        response.token,
        outer_code=outer_code,
        outer_options=tuple(outer_class_u) + tuple(outer_options),
    )


def seal_response(
    context: SecurityContext,
    plaintext: bytes,
    binding: RequestBinding,
    mtype: MessageType,
    mid: int,
    token: bytes,
    outer_code: Code = Code.CHANGED,
    outer_options: Tuple[Tuple[int, bytes], ...] = (),
) -> CoapMessage:
    """The seal step of :func:`protect_response`: encrypt a response
    already laid out as *plaintext* (``code || options || 0xFF
    payload``) into the outer message.

    The outer message has type *mtype*, *mid* and *token*, and carries
    *outer_options* and the OSCORE option. A server that keeps the
    plaintexts of its responses seals one here without building the
    inner response.
    """
    aad = _external_aad(binding.kid, binding.partial_iv)
    nonce = context.nonce(binding.kid, binding.partial_iv)
    ciphertext = context.sender_aead().encrypt(nonce, plaintext, aad)
    option_value = OscoreOptionValue().encode()
    return CoapMessage(
        mtype=mtype,
        code=outer_code,
        mid=mid,
        token=token,
        options=outer_options + ((OptionNumber.OSCORE, option_value),),
        payload=ciphertext,
    )


def unprotect_response(
    context: SecurityContext, outer: CoapMessage, binding: RequestBinding
) -> CoapMessage:
    """Verify and decrypt a protected response for our request."""
    option_data = outer.option(OptionNumber.OSCORE)
    if option_data is None:
        raise OscoreError("missing OSCORE option")
    value = OscoreOptionValue.decode(option_data)
    aad = _external_aad(binding.kid, binding.partial_iv)
    if value.partial_iv:
        nonce = context.nonce(context.recipient_id, value.partial_iv)
    else:
        nonce = context.nonce(binding.kid, binding.partial_iv)
    try:
        plaintext = context.recipient_aead().decrypt(nonce, outer.payload, aad)
    except AEADError as exc:
        raise OscoreError("response authentication failed") from exc
    code, inner_options, payload = _parse_plaintext(plaintext)
    if not code.is_response:
        raise OscoreError("inner message is not a response")
    outer_options = tuple((n, v) for n, v in outer.options if n in _CLASS_U)
    return CoapMessage(
        mtype=outer.mtype,
        code=code,
        mid=outer.mid,
        token=outer.token,
        options=outer_options + inner_options,
        payload=payload,
    )
