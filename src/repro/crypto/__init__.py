"""Cryptographic substrate: AES-128, CCM AEAD, HKDF, TLS 1.2 PRF.

The paper's endpoints use AES-128-CCM-8 for DTLSv1.2 (RFC 6655) and
AES-CCM-16-64-128 for OSCORE (RFC 8152 §10.2); both are the same block
cipher in CCM mode with different nonce/tag parameters. We implement
AES-128 from scratch (the standard library offers no block cipher) and
parameterised CCM on top, plus HKDF-SHA256 (OSCORE key derivation,
RFC 8613 §3.2) and the TLS 1.2 PRF (DTLS key derivation, RFC 5246 §5).
:class:`ReplayWindow` is the anti-replay window both record layers keep
beside their AEAD.
"""

from .aes import AES128
from .ccm import (
    AESCCM,
    AEADError,
    AES_128_CCM_8,
    AES_CCM_16_64_128,
    ReplayError,
    ReplayWindow,
)
from .kdf import hkdf_expand, hkdf_extract, hkdf_sha256, tls12_prf

__all__ = [
    "AEADError",
    "AES128",
    "AESCCM",
    "AES_128_CCM_8",
    "AES_CCM_16_64_128",
    "ReplayError",
    "ReplayWindow",
    "hkdf_expand",
    "hkdf_extract",
    "hkdf_sha256",
    "tls12_prf",
]
