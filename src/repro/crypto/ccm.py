"""AES-CCM authenticated encryption (RFC 3610 / NIST SP 800-38C).

CCM combines CTR-mode encryption with a CBC-MAC over the nonce,
associated data, and plaintext. Both cipher suites the paper measures
are instances with different parameters:

* ``AES_128_CCM_8``     — DTLSv1.2 suite (RFC 6655): 12-byte nonce, 8-byte tag.
* ``AES_CCM_16_64_128`` — OSCORE/COSE default (RFC 8152): 13-byte nonce,
  8-byte tag.

:class:`AESCCM` is the one implementation both transports run, in pure
Python on :class:`~repro.crypto.aes.AES128`, whatever else is installed:
the OSCORE and DTLS costs the paper compares come from the same code.
The ``cryptography`` package, where present, is only the test suite's
differential oracle, never a backend.
"""

from __future__ import annotations

import hmac
from functools import lru_cache
from typing import Tuple

from .aes import AES128, MAX_LANES


class AEADError(Exception):
    """Raised when authenticated decryption fails."""


class ReplayError(Exception):
    """Raised when a sequence number is accepted twice or too late."""


class ReplayWindow:
    """Sliding anti-replay window: highest sequence seen plus a bitmap
    of the *size* sequences up to it.

    The receive half of "a nonce is used once": the DTLS record layer
    (RFC 6347 §4.1.2.6, 64 entries) and OSCORE (RFC 8613 §7.4, over
    Partial IVs; the paper enlarges the window for its long runs, hence
    the configurable *size*) both :meth:`check` a sequence before they
    pay for the AEAD and :meth:`accept` it only after the tag verified,
    so a forged message cannot move the window.
    """

    def __init__(self, size: int = 32) -> None:
        if size < 1:
            raise ValueError("window size must be positive")
        self.size = size
        self._mask = (1 << size) - 1
        self._highest = -1
        self._bitmap = 0

    def check(self, sequence: int) -> bool:
        """Whether *sequence* is non-negative, not too old and not yet
        accepted. No state change."""
        offset = self._highest - sequence
        if offset < 0:
            return True  # newer than anything seen, so also >= 0
        return (
            sequence >= 0
            and offset < self.size
            and not (self._bitmap >> offset) & 1
        )

    def accept(self, sequence: int) -> None:
        """Mark *sequence* seen — only after its message authenticated.

        Raises
        ------
        ReplayError
            If :meth:`check` refuses the sequence.
        """
        shift = sequence - self._highest
        if shift > 0:
            self._bitmap = ((self._bitmap << shift) | 1) & self._mask
            self._highest = sequence
        elif self.check(sequence):
            self._bitmap |= 1 << -shift
        else:
            raise ReplayError(f"replayed or stale sequence {sequence}")


@lru_cache(maxsize=256)
def _expanded_key(key: bytes) -> AES128:
    """Shared AES-128 key schedules.

    Every :class:`AESCCM` built from one key — whatever its nonce and
    tag length — shares one expanded schedule. :class:`AES128` is
    immutable after construction, so instances are safe to share. The
    cache is bounded (LRU, 256 keys); note that cached keys stay
    referenced for the cache's lifetime, which is fine for simulated
    credentials.
    """
    return AES128(key)


_BLOCK_MASK = (1 << 128) - 1
_ADATA_FLAG = 0x40 << 120

# Counter blocks A_c ‖ A_c+1 ‖ … in n lanes are ``A_c * _ONES[n] +
# _STEPS[n]``: _ONES[n] holds 1 in each of n lanes, _STEPS[n] holds 0,
# 1, …, n - 1 from the top lane down.
_ONES = tuple(
    sum(1 << 128 * lane for lane in range(lanes))
    for lanes in range(MAX_LANES + 1)
)
_STEPS = tuple(
    sum(step << 128 * (lanes - 1 - step) for step in range(lanes))
    for lanes in range(MAX_LANES + 1)
)


def _cbc_absorb(encrypt, mac: int, stream: int, bits: int) -> int:
    """Chain the *bits* // 128 blocks of *stream* into the CBC-MAC *mac*."""
    for shift in range(bits - 128, -1, -128):
        mac = encrypt(mac ^ ((stream >> shift) & _BLOCK_MASK))
    return mac


class AESCCM:
    """AES-128 in CCM mode with configurable nonce and tag length.

    A message costs its AES blocks in two kinds of pass. B0 (RFC 3610
    §2.2) and the counter blocks A0, A1 … Am (§2.3) depend only on the
    nonce, the length and whether there is associated data, so they are
    enciphered together: one :meth:`AES128.encrypt_lanes` pass over
    [B0, A0 … Am] when m + 2 ≤ :data:`~repro.crypto.aes.MAX_LANES`,
    further passes of up to that many counter blocks beyond. What is
    left is the CBC-MAC chain over the associated data and the text,
    inherently one block after another, on :meth:`AES128.encrypt_int`
    from E(B0) on. AES passes per seal or open: 1 + AAD blocks + text
    blocks, where the block-by-block mode took 2 + AAD + 2 × text.

    Everything stays in the integer domain: the nonce, the associated
    data and the text are each loaded into an int once, MAC blocks are
    taken from them by 128-bit shifts, and the keystream is XOR-ed in
    once — no block goes through ``bytes`` on its way to or from the
    cipher. Taking a block out of an n-byte int costs O(n), so the MAC
    walk has a quadratic term; it passes the cost of the AES blocks only
    near 64 KiB, the most a datagram carries, and is noise at the sizes
    DNS messages have. The counter side has no per-block shift: each
    pass's counter blocks are built from A0 by one multiply-add, and the
    keystream grows one pass (up to ``MAX_LANES`` = 16 blocks) at a
    time, so its quadratic term is a sixteenth of the walk's. An
    instance is immutable after construction.

    Parameters
    ----------
    key:
        16-byte AES key.
    tag_length:
        MAC length in bytes (even, 4..16).
    nonce_length:
        Nonce length in bytes (7..13); the CTR counter occupies the
        remaining ``15 - nonce_length`` bytes.
    """

    def __init__(
        self,
        key: bytes,
        tag_length: int = 8,
        nonce_length: int = 13,
    ):
        if tag_length % 2 or not 4 <= tag_length <= 16:
            raise ValueError("tag_length must be an even value in 4..16")
        if not 7 <= nonce_length <= 13:
            raise ValueError("nonce_length must be in 7..13")
        self._aes = _expanded_key(bytes(key))
        self.tag_length = tag_length
        self.nonce_length = nonce_length
        length_field = 15 - nonce_length
        # A block is flags(1) ‖ nonce ‖ length-or-counter(length_field),
        # held as a 128-bit int: the flag octets of the counter blocks
        # (RFC 3610 §2.3) and of B0 (§2.2) are kept shifted into byte 0.
        self._length_bits = 8 * length_field
        self._counter_flags = (length_field - 1) << 120
        self._mac_flags = (
            (((tag_length - 2) // 2) << 3) | (length_field - 1)
        ) << 120
        self._tag_bits = 8 * tag_length

    # -- internals -------------------------------------------------------

    def _check_nonce(self, nonce: bytes) -> None:
        if len(nonce) != self.nonce_length:
            raise ValueError(
                f"nonce must be {self.nonce_length} bytes, got {len(nonce)}"
            )

    def _check_length(self, length: int) -> None:
        if length >> self._length_bits:
            raise ValueError("plaintext too long for nonce length")

    def _passes(self, nonce: bytes, aad: bytes, length: int) -> Tuple[int, int, int]:
        """E(B0), S0 and the first *length* bytes of S1 ‖ S2 ‖ …, as ints:
        the AES blocks of a message known before its text (class
        docstring)."""
        # The nonce sits past the length/counter field in every block.
        nonce_bits = int.from_bytes(nonce, "big") << self._length_bits
        b0 = self._mac_flags | nonce_bits | length
        if aad:
            b0 |= _ADATA_FLAG
        counter = self._counter_flags | nonce_bits  # A0
        blocks = (length + 15) // 16
        encrypt_lanes = self._aes.encrypt_lanes
        lanes = min(blocks + 2, MAX_LANES)
        out = encrypt_lanes(
            (b0 << 128 * (lanes - 1))
            | (counter * _ONES[lanes - 1] + _STEPS[lanes - 1]),
            lanes,
        )
        done = lanes - 2  # counter blocks A1 … A_done are in *out*
        while done < blocks:
            lanes = min(blocks - done, MAX_LANES)
            out = (out << 128 * lanes) | encrypt_lanes(
                (counter + done + 1) * _ONES[lanes] + _STEPS[lanes], lanes
            )
            done += lanes
        bits = 128 * blocks
        return (
            out >> (bits + 128),
            (out >> bits) & _BLOCK_MASK,
            (out & ((1 << bits) - 1)) >> (-length % 16 * 8),
        )

    def _tag(self, mac: int, s0: int, aad: bytes, text: int, length: int) -> int:
        """The CBC-MAC chain from *mac* = E(B0) over AAD ‖ text,
        encrypted with *s0*, truncated.

        *text* is the *length*-byte plaintext as an int; the zero
        padding of the AAD and of the text to whole blocks is a shift.
        """
        encrypt = self._aes.encrypt_int
        if aad:
            size = len(aad)
            if size < 0xFF00:
                header, encoded = size, size + 2
            elif size >> 32:
                raise ValueError("associated data too long")
            else:
                header, encoded = (0xFFFE << 32) | size, size + 6
            padding = -encoded % 16
            mac = _cbc_absorb(
                encrypt,
                mac,
                ((header << (8 * size)) | int.from_bytes(aad, "big"))
                << (8 * padding),
                8 * (encoded + padding),
            )
        padding = -length % 16
        mac = _cbc_absorb(encrypt, mac, text << (8 * padding), 8 * (length + padding))
        return (mac ^ s0) >> (128 - self._tag_bits)

    # -- public API ------------------------------------------------------

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Return ciphertext || tag."""
        self._check_nonce(nonce)
        length = len(plaintext)
        self._check_length(length)
        mac, s0, stream = self._passes(nonce, aad, length)
        text = int.from_bytes(plaintext, "big")
        tag = self._tag(mac, s0, aad, text, length)
        return (((text ^ stream) << self._tag_bits) | tag).to_bytes(
            length + self.tag_length, "big"
        )

    def decrypt(self, nonce: bytes, ciphertext: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and return the plaintext.

        Raises
        ------
        AEADError
            If the ciphertext is too short or the tag does not verify.
        ValueError
            If the nonce length is wrong or the ciphertext too long for
            the nonce's length field.
        """
        self._check_nonce(nonce)
        length = len(ciphertext) - self.tag_length
        if length < 0:
            raise AEADError("ciphertext shorter than authentication tag")
        self._check_length(length)
        mac, s0, stream = self._passes(nonce, aad, length)
        body = int.from_bytes(ciphertext, "big") >> self._tag_bits
        text = body ^ stream
        expected = self._tag(mac, s0, aad, text, length)
        if not hmac.compare_digest(
            ciphertext[length:], expected.to_bytes(self.tag_length, "big")
        ):
            raise AEADError("CCM tag verification failed")
        return text.to_bytes(length, "big")


# The suite factories are memoised: an AESCCM is immutable, and OSCORE,
# group OSCORE and the DTLS record layer ask for the AEAD of the same few
# keys once per message. Like ``_expanded_key`` the caches keep their
# keys referenced; *key* must be hashable, i.e. ``bytes``.


@lru_cache(maxsize=256)
def AES_128_CCM_8(key: bytes) -> AESCCM:
    """The TLS_PSK_WITH_AES_128_CCM_8 AEAD (RFC 6655): N=12, M=8."""
    return AESCCM(key, tag_length=8, nonce_length=12)


@lru_cache(maxsize=256)
def AES_CCM_16_64_128(key: bytes) -> AESCCM:
    """The COSE AES-CCM-16-64-128 AEAD (RFC 8152 §10.2): N=13, M=8."""
    return AESCCM(key, tag_length=8, nonce_length=13)
