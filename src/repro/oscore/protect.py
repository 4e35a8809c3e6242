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
from typing import Callable, Optional, Tuple

from repro.coap.codes import CODE_BY_VALUE, Code
from repro.crypto import AEADError
from repro.coap.message import CoapMessage
from repro.coap.options import (
    OptionError,
    OptionNumber,
    decode_options,
    encode_options,
)

from .context import (
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


#: The options of a reply under the request's nonce: an empty OSCORE
#: option, and nothing else.
_EMPTY_OSCORE_OPTION = ((OptionNumber.OSCORE, b""),)


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


def _external_aad(request_kid: bytes, request_piv: bytes) -> bytes:
    """The RFC 8613 §5.4 AAD: the CBOR ``["Encrypt0", h'', external]``,
    *external* the bstr of ``[1, [10], kid, Partial IV, h'']`` (a single
    algorithm, AES-CCM-16-64-128, and no I options).

    Written from a byte template. A kid and a Partial IV that fit a
    nonce (at most 7 and 5 bytes) have one-byte bstr heads, and so does
    the external_aad they make (at most 19 bytes).
    """
    external = (
        b"\x85\x01\x81\x0a" + bytes((0x40 | len(request_kid),)) + request_kid
        + bytes((0x40 | len(request_piv),)) + request_piv + b"\x40"
    )
    return b"\x83\x68Encrypt0\x40" + bytes((0x40 | len(external),)) + external


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
    outer_options, inner_options = _split_options(request)
    option, ciphertext, binding, _, _ = _seal_request(
        context, encode_plaintext(request.code, inner_options, request.payload)
    )
    outer = CoapMessage(
        mtype=request.mtype,
        code=outer_code,
        mid=request.mid,
        token=request.token,
        options=tuple(outer_options) + ((OptionNumber.OSCORE, option),),
        payload=ciphertext,
    )
    return outer, binding


def seal_request(
    context: SecurityContext, plaintext: bytes
) -> Tuple[bytes, RequestBinding, Callable[[bytes], Optional[bytes]]]:
    """:func:`protect_request` in bytes, for a request whose options
    are all Class E and laid out as *plaintext* (``code || options ||
    0xFF payload``, which is also its CoAP body).

    Returns the body of the outer POST, ``0x02 || OSCORE option || 0xFF
    ciphertext``; the binding; and the reply opener. The opener takes
    the body of a reply, ``code || options || 0xFF payload``, and
    returns the plaintext :func:`unprotect_response` would decrypt from
    it, under the request's nonce and AAD. It returns ``None`` for a
    reply that is not ``code || 0x90 || 0xFF ciphertext`` (an empty
    OSCORE option and nothing else) or does not verify:
    :func:`unprotect_response` reads that one, or refuses it.
    """
    option, ciphertext, binding, nonce, aad = _seal_request(context, plaintext)
    aead = context.recipient_aead()

    def open_reply(body: bytes) -> Optional[bytes]:
        try:
            _, options, ciphertext = _parse_plaintext(body)
            return (
                aead.decrypt(nonce, ciphertext, aad)
                if options == _EMPTY_OSCORE_OPTION else None
            )
        except (AEADError, OptionError, OscoreError):
            return None

    body = encode_plaintext(Code.POST, ((OptionNumber.OSCORE, option),), ciphertext)
    return body, binding, open_reply


def _seal_request(context: SecurityContext, plaintext: bytes):
    """Encrypt a request's *plaintext* under the next sequence number:
    ``(OSCORE option value, ciphertext, binding, nonce, AAD)``."""
    partial_iv = encode_partial_iv(context.next_sequence())
    kid = context.sender_id
    nonce = context.nonce(kid, partial_iv)
    aad = _external_aad(kid, partial_iv)
    option = OscoreOptionValue(
        partial_iv=partial_iv, kid=kid, kid_context=context.context_id,
    ).encode()
    ciphertext = context.sender_aead().encrypt(nonce, plaintext, aad)
    return option, ciphertext, RequestBinding(kid, partial_iv), nonce, aad


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
    plaintext, _, _ = open_ciphertext(
        context, value.partial_iv, outer.payload, enforce_replay
    )
    return plaintext, RequestBinding(value.kid, value.partial_iv)


def open_ciphertext(
    context: SecurityContext, partial_iv: bytes, ciphertext: bytes,
    enforce_replay: bool = True,
) -> Tuple[bytes, bytes, bytes]:
    """Open the *ciphertext* of a request that the peer of *context*
    sent under *partial_iv*: check the replay window, decrypt and verify,
    and only then accept the Partial IV. Returns the plaintext, and the
    nonce and AAD that its response is sealed under."""
    sequence = decode_partial_iv(partial_iv)
    if enforce_replay and not context.replay_window.check(sequence):
        raise OscoreError(f"replayed Partial IV {sequence}")
    kid = context.recipient_id
    nonce = context.nonce(kid, partial_iv)
    aad = _external_aad(kid, partial_iv)
    try:
        plaintext = context.recipient_aead().decrypt(nonce, ciphertext, aad)
    except AEADError as exc:
        raise OscoreError("request authentication failed") from exc
    if enforce_replay:
        context.replay_window.accept(sequence)
    return plaintext, nonce, aad


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
    return CoapMessage(
        mtype=response.mtype,
        code=outer_code,
        mid=response.mid,
        token=response.token,
        options=tuple(outer_class_u) + tuple(outer_options)
        + ((OptionNumber.OSCORE, b""),),
        payload=seal_response(
            context,
            encode_plaintext(response.code, inner_options, response.payload),
            binding,
        ),
    )


def seal_response(
    context: SecurityContext, plaintext: bytes, binding: RequestBinding
) -> bytes:
    """The seal step of :func:`protect_response`: the ciphertext of a
    response laid out as *plaintext* (``code || options || 0xFF
    payload``), under the nonce and AAD of the request *binding* names.
    It is the payload of an outer message whose OSCORE option is empty
    (no Partial IV on the wire)."""
    nonce = context.nonce(binding.kid, binding.partial_iv)
    aad = _external_aad(binding.kid, binding.partial_iv)
    return context.sender_aead().encrypt(nonce, plaintext, aad)


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
    return response_from_plaintext(outer, plaintext)


def response_from_plaintext(outer: CoapMessage, plaintext: bytes) -> CoapMessage:
    """The inner response of *outer*, whose decrypted body is *plaintext*."""
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
