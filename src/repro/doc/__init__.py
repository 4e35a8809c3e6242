"""DNS over CoAP (DoC) — the paper's primary contribution.

The protocol maps each DNS query/response pair onto a CoAP exchange
(Section 4): queries travel in FETCH/POST bodies or base64url-encoded
GET URIs; responses are CoAP payloads whose freshness is coupled to DNS
TTLs via the Max-Age option, with ETag-based revalidation. Security is
either transport-level (CoAPS/DTLS) or object-level (OSCORE), the
latter preserving end-to-end protection across proxies.

Public entry points:

* :class:`repro.doc.client.DocClient` / :class:`repro.doc.server.DocServer`;
* :mod:`repro.doc.caching` — the DoH-like and EOL-TTLs schemes;
* :mod:`repro.doc.cbor_format` — the Section 7 compressed format;
* :mod:`repro.doc.features` — the Table 1 / Table 5 registries.
"""

from .caching import CachingScheme, PreparedResponse, compute_etag, prepare_response, restore_ttls
from .integrity import MaxAgeIntegrityError, check_max_age_consistency
from .client import DocClient, DocError, DocResult
from .features import TABLE1, TABLE5, MethodFeatures, TransportFeatures, method_features
from .server import DocServer, DOC_RESOURCE

__all__ = [
    "CachingScheme",
    "MaxAgeIntegrityError",
    "check_max_age_consistency",
    "DOC_RESOURCE",
    "DocClient",
    "DocError",
    "DocResult",
    "DocServer",
    "MethodFeatures",
    "PreparedResponse",
    "TABLE1",
    "TABLE5",
    "TransportFeatures",
    "compute_etag",
    "method_features",
    "prepare_response",
    "restore_ttls",
]
