"""The two TTL↔Max-Age alignment schemes of Section 4.2.

* **DoH-like** (RFC 8484 §5.1 transplanted to CoAP): the server sets
  Max-Age to the minimum record TTL and leaves the DNS payload as-is.
  Because DNS caches age TTLs, the payload — and hence the ETag — keeps
  changing, so CoAP cache revalidation usually fails (Figure 3 step 4).
* **EOL TTLs** (the paper's improvement): the server additionally
  rewrites every TTL to 0, making equal record sets byte-identical.
  Clients restore TTLs from the (aged) Max-Age option; revalidation
  succeeds whenever only TTLs changed.

Both sides of the scheme live here: ``prepare_response`` (server) and
``restore_ttls`` (client).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.dns.message import Message

#: Max-Age used for empty/negative responses (no TTLs to derive from).
NEGATIVE_MAX_AGE = 0


class CachingScheme(enum.Enum):
    """Server-side TTL handling (Section 4.2)."""

    DOH_LIKE = "doh-like"
    EOL_TTLS = "eol-ttls"


def compute_etag(payload: bytes, length: int = 8) -> bytes:
    """An entity-tag over the response payload (truncated SHA-256).

    A content hash is the "naïve ETag generation" Section 7 discusses;
    it is exactly what makes DoH-like revalidation fragile, since TTL
    churn changes the hash.
    """
    return hashlib.sha256(payload).digest()[:length]


@dataclass(frozen=True)
class PreparedResponse:
    """Server-side result: wire payload, Max-Age value, and ETag."""

    payload: bytes
    max_age: int
    etag: bytes


def prepare_response(
    response: Message, scheme: CachingScheme
) -> PreparedResponse:
    """Apply *scheme* to a resolver response (DoC server side)."""
    min_ttl = response.min_ttl()
    max_age = min_ttl if min_ttl is not None else NEGATIVE_MAX_AGE
    payload = response.encode(
        ttl=0 if scheme is CachingScheme.EOL_TTLS else None
    )
    return PreparedResponse(payload, max_age, compute_etag(payload))


def restore_ttls(
    response: Message, max_age: Optional[int], scheme: CachingScheme
) -> Message:
    """Recover record TTLs on the client from the CoAP Max-Age option."""
    if max_age is None:
        return response
    if scheme is CachingScheme.EOL_TTLS:
        # TTLs arrived as 0; Max-Age carries the remaining lifetime.
        return response.with_ttls(max_age)
    # DoH-like: cap TTLs at the aged Max-Age (RFC 8484 §5.1 behaviour).
    min_ttl = response.min_ttl()
    if min_ttl is None or min_ttl <= max_age:
        return response
    return response.adjust_ttls(max_age - min_ttl)
