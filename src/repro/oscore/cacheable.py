"""Cacheable OSCORE: deterministic requests for en-route caching.

Implements the mechanism of draft-amsuess-core-cachable-oscore (cited
as the OSCORE add-on "currently discussed" in Section 4.3, and the
basis of Table 1's unique OSCORE feature, content-secure en-route
caching):

* A group of clients shares a *deterministic client* context whose key
  is derived from the group's secret with a fixed ID. Instead of a
  monotonic Partial IV, a deterministic request derives its Partial IV
  from a **hash of the request plaintext** (hash-based nonce), so equal
  queries produce byte-identical protected messages.
* Replay protection is deliberately waived for this context — safe
  only for side-effect-free, idempotent requests such as DNS FETCHes
  (the draft's intended use).
* Responses are bound to the deterministic request's (kid, PIV) just
  like normal OSCORE responses, so an untrusted proxy can cache the
  *ciphertext* response keyed on the ciphertext request and serve it to
  any group member without being able to read either. The request goes
  out as an outer FETCH, so the proxy's ordinary
  :class:`~repro.coap.cache.CoapCache` does that: its RFC 7252 cache key
  covers the (deterministic) ciphertext payload. The server seals the
  response as 2.05 Content with the freshness lifetime in an *outer*
  Max-Age, which the proxy ages (Section 7 discusses the integrity
  limits of that option; :mod:`repro.doc.integrity` is the client-side
  check).

With DoC this closes the loop of the paper's Section 4.2 ID-zeroing:
the DNS ID is already 0, the FETCH payload is deterministic, and with a
deterministic security context even the *protected* request bytes are
stable, so OSCORE no longer defeats proxy caching.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from repro.coap.message import CoapMessage

from .context import OscoreError, SecurityContext, encode_partial_iv
from .protect import (
    RequestBinding,
    open_request,
    protect_request,
    request_from_plaintext,
)

#: Reserved sender ID of the deterministic client (draft §3.1 uses a
#: dedicated, well-known ID within the group).
DETERMINISTIC_CLIENT_ID = b"\xDC"

#: Length of the hash-derived Partial IV.
_DET_PIV_LENGTH = 5


def derive_deterministic_context(
    master_secret: bytes,
    master_salt: bytes = b"",
    server_id: bytes = b"\x02",
    role: str = "client",
) -> SecurityContext:
    """Derive the shared deterministic-client context.

    Every group member derives the same context (same sender key), so
    any of them can produce — and any of them can decrypt responses
    to — the same protected request bytes.
    """
    if role == "client":
        context = SecurityContext.derive(
            master_secret, master_salt, DETERMINISTIC_CLIENT_ID, server_id
        )
    elif role == "server":
        context = SecurityContext.derive(
            master_secret, master_salt, server_id, DETERMINISTIC_CLIENT_ID
        )
    else:
        raise ValueError("role must be 'client' or 'server'")
    return context


def _deterministic_piv(context, request: CoapMessage) -> int:
    """Hash-based Partial IV over the *encrypted* (Class-E) parts of the
    request (draft §3.2). Class-U options travel outside the ciphertext
    and therefore must not enter the hash."""
    from .protect import _CLASS_U

    digest = hashlib.sha256()
    digest.update(context.sender_key)
    digest.update(bytes([int(request.code)]))
    for number, value in sorted(request.options):
        if number in _CLASS_U:
            continue
        digest.update(number.to_bytes(4, "big"))
        digest.update(len(value).to_bytes(2, "big"))
        digest.update(value)
    digest.update(request.payload)
    return int.from_bytes(digest.digest()[:_DET_PIV_LENGTH], "big")


def open_deterministic_request(
    context: SecurityContext, outer: CoapMessage
) -> Tuple[CoapMessage, bytes, RequestBinding]:
    """Server side: decrypt and *verify* the deterministic PIV.

    Replay checking is disabled (equal requests are the point), but the
    server recomputes the hash-based PIV from the decrypted plaintext
    and rejects mismatches, preventing nonce-forcing games. Returns the
    inner request, the plaintext it was parsed from, and the binding.
    """
    plaintext, binding = open_request(context, outer, enforce_replay=False)
    inner = request_from_plaintext(outer, plaintext)
    expected = _deterministic_piv(
        # The *client's* sender key is this server context's recipient key.
        _recipient_view(context),
        inner_without_outer_options(inner),
    )
    if binding.partial_iv != encode_partial_iv(expected):
        raise OscoreError("deterministic Partial IV mismatch")
    return inner, plaintext, binding


class _KeyView:
    """Minimal object exposing ``sender_key`` for the PIV recompute."""

    def __init__(self, key: bytes) -> None:
        self.sender_key = key


def _recipient_view(server_context: SecurityContext) -> "_KeyView":
    return _KeyView(server_context.recipient_key)


def inner_without_outer_options(inner: CoapMessage) -> CoapMessage:
    """Strip Class-U options re-attached during unprotect, recovering
    the exact message the client hashed."""
    from .protect import _CLASS_U

    filtered = tuple(
        (number, value)
        for number, value in inner.options
        if number not in _CLASS_U
    )
    from dataclasses import replace

    return replace(inner, options=filtered)


def protect_cacheable_request(
    context: SecurityContext, request: CoapMessage
) -> Tuple[CoapMessage, RequestBinding]:
    """Deterministic protection with an outer FETCH (draft §3.3).

    The outer FETCH makes the protected exchange cacheable at
    DoC-agnostic proxies: the cache key covers the (deterministic)
    ciphertext payload, so equal queries hit equal entries.
    """
    from repro.coap.codes import Code

    if context.sender_id != DETERMINISTIC_CLIENT_ID:
        raise OscoreError("not a deterministic-client context")
    piv_value = _deterministic_piv(context, request)
    saved_sequence = context.sender_sequence
    context.sender_sequence = piv_value
    try:
        outer, binding = protect_request(
            context, request, outer_code=Code.FETCH
        )
    finally:
        context.sender_sequence = saved_sequence
    return outer, binding
