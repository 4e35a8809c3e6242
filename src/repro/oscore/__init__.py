"""OSCORE — Object Security for Constrained RESTful Environments
(RFC 8613).

OSCORE protects the *CoAP message itself* rather than the transport:
the request/response code, the Class-E options, and the payload are
encrypted into a COSE_Encrypt0 object carried as the payload of an
outer CoAP message, with the OSCORE option conveying the Partial IV and
key identifiers. This is what lets DoC responses

* stay protected end-to-end across untrusted proxies/gateways, and
* (with the cacheable-OSCORE extension) even be cached en route —
  the paper's Table 1 row "Content Secure En-route Caching".

Implemented: security-context derivation via HKDF-SHA256, the OSCORE
option codec, request/response protect/unprotect with the RFC 8613 §5
AAD and nonce constructions, the anti-replay window, and the Echo
option exchange (RFC 9175) the paper shows as "session setup" in
Figure 6.
"""

from repro.crypto import ReplayError, ReplayWindow

from .context import OscoreError, SecurityContext
from .option import OscoreOptionValue
from .protect import protect_request, protect_response, unprotect_request, unprotect_response
from .cacheable import (
    derive_deterministic_context,
    open_deterministic_request,
    protect_cacheable_request,
)
from .group import (
    GroupContext,
    protect_group_request,
    protect_group_response,
    unprotect_group_request,
    unprotect_group_response,
)

__all__ = [
    "OscoreError",
    "OscoreOptionValue",
    "ReplayError",
    "ReplayWindow",
    "SecurityContext",
    "GroupContext",
    "derive_deterministic_context",
    "protect_cacheable_request",
    "protect_group_request",
    "protect_group_response",
    "open_deterministic_request",
    "unprotect_group_request",
    "unprotect_group_response",
    "protect_request",
    "protect_response",
    "unprotect_request",
    "unprotect_response",
]
