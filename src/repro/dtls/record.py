"""DTLS record layer (RFC 6347 §4.1) with AES-128-CCM-8 protection.

Every record carries a 13-byte header::

    type(1) version(2) epoch(2) sequence(6) length(2)

Protected records (epoch ≥ 1) use the RFC 6655 AEAD construction: an
8-byte explicit nonce (the epoch+sequence) prefixes the ciphertext, the
implicit 4-byte write IV is derived from the key block, and the AAD is
``seq(8) || type(1) || version(2) || plaintext_length(2)``.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.crypto import AEADError, AES_128_CCM_8, ReplayWindow

# type(1) version(2) epoch(2) seq_hi(4) seq_lo(2) length(2); the 6-byte
# sequence number is reassembled from the 4+2 split.
_RECORD_HEADER = struct.Struct("!B2sHIHH")
_LENGTH_AT_11 = struct.Struct("!H")

#: DTLS 1.2 wire version ({254, 253} = 1's complement of 1.2).
DTLS_1_2 = (254, 253)

RECORD_HEADER_LEN = 13
EXPLICIT_NONCE_LEN = 8
CCM8_TAG_LEN = 8

#: RFC 6347 §4.1.2.6: the anti-replay window covers 64 records.
REPLAY_WINDOW_SIZE = 64


class DtlsError(Exception):
    """Raised on DTLS protocol failures."""


class ContentType(enum.IntEnum):
    CHANGE_CIPHER_SPEC = 20
    ALERT = 21
    HANDSHAKE = 22
    APPLICATION_DATA = 23


_CONTENT_TYPE_BY_VALUE = {int(member): member for member in ContentType}
_DTLS_1_2_BYTES = bytes(DTLS_1_2)


@dataclass(frozen=True)
class DtlsPlaintext:
    """A decoded record prior to/after cryptographic processing."""

    content_type: ContentType
    epoch: int
    sequence: int
    fragment: bytes

    def header(self, length: int) -> bytes:
        return (
            bytes([self.content_type, *DTLS_1_2])
            + self.epoch.to_bytes(2, "big")
            + self.sequence.to_bytes(6, "big")
            + length.to_bytes(2, "big")
        )


@dataclass
class _WriteState:
    key: bytes
    iv: bytes  # 4-byte implicit part


class RecordLayer:
    """Per-connection record protection state for one direction pair.

    Epoch 0 is plaintext (the handshake up to ChangeCipherSpec); epoch 1
    is protected with the negotiated keys. Sequence numbers are per
    epoch.
    """

    def __init__(self) -> None:
        self._write_epoch = 0
        self._write_sequences = {0: 0}
        self._read_epoch = 0
        self._write_state: Optional[_WriteState] = None
        self._read_state: Optional[_WriteState] = None
        self._replay = ReplayWindow(REPLAY_WINDOW_SIZE)

    # -- key management ----------------------------------------------------

    def set_write_keys(self, key: bytes, iv: bytes) -> None:
        """Install write protection and advance the write epoch."""
        self._write_state = _WriteState(key, iv)
        self._write_epoch += 1
        self._write_sequences[self._write_epoch] = 0

    def set_read_keys(self, key: bytes, iv: bytes) -> None:
        self._read_state = _WriteState(key, iv)
        self._read_epoch += 1
        self._replay = ReplayWindow(REPLAY_WINDOW_SIZE)

    def _next_sequence(self) -> int:
        seq = self._write_sequences[self._write_epoch]
        self._write_sequences[self._write_epoch] = seq + 1
        return seq

    # -- serialisation -------------------------------------------------------

    def seal(self, content_type: ContentType, fragment: bytes) -> bytes:
        """Produce one wire record for *fragment*."""
        epoch = self._write_epoch
        sequence = self._next_sequence()
        plain = DtlsPlaintext(content_type, epoch, sequence, fragment)
        if epoch == 0 or self._write_state is None:
            return plain.header(len(fragment)) + fragment

        state = self._write_state
        explicit = epoch.to_bytes(2, "big") + sequence.to_bytes(6, "big")
        nonce = state.iv + explicit
        aad = (
            explicit
            + bytes([content_type, *DTLS_1_2])
            + len(fragment).to_bytes(2, "big")
        )
        ciphertext = AES_128_CCM_8(state.key).encrypt(nonce, fragment, aad)
        body = explicit + ciphertext
        return plain.header(len(body)) + body

    def open(self, record) -> DtlsPlaintext:
        """Parse (and decrypt, if protected) one wire record.

        *record* may be ``bytes`` or a ``memoryview`` (e.g. a zero-copy
        slice from :func:`split_records`); it is never mutated, and the
        fragment is materialised once.
        """
        if len(record) < RECORD_HEADER_LEN:
            raise DtlsError("record shorter than header")
        ctype_raw, version, epoch, seq_hi, seq_lo, length = (
            _RECORD_HEADER.unpack_from(record)
        )
        content_type = _CONTENT_TYPE_BY_VALUE.get(ctype_raw)
        if content_type is None:
            raise DtlsError(f"unknown content type {ctype_raw}")
        if version != _DTLS_1_2_BYTES:
            raise DtlsError(f"unsupported version {tuple(version)}")
        sequence = (seq_hi << 16) | seq_lo
        body = record[13 : 13 + length]
        if len(body) != length:
            raise DtlsError("truncated record body")

        if epoch == 0:
            return DtlsPlaintext(content_type, epoch, sequence, bytes(body))

        if self._read_state is None or epoch != self._read_epoch:
            raise DtlsError(f"no read keys for epoch {epoch}")
        if len(body) < EXPLICIT_NONCE_LEN + CCM8_TAG_LEN:
            raise DtlsError("protected record too short")
        if not self._replay.check(sequence):
            raise DtlsError(f"replayed record sequence {sequence}")
        explicit = bytes(body[:EXPLICIT_NONCE_LEN])
        ciphertext = body[EXPLICIT_NONCE_LEN:]
        nonce = self._read_state.iv + explicit
        plaintext_length = len(ciphertext) - CCM8_TAG_LEN
        aad = (
            explicit
            + bytes([content_type, *DTLS_1_2])
            + plaintext_length.to_bytes(2, "big")
        )
        try:
            fragment = AES_128_CCM_8(self._read_state.key).decrypt(
                nonce, bytes(ciphertext), aad
            )
        except AEADError as exc:
            raise DtlsError("record authentication failed") from exc
        self._replay.accept(sequence)
        return DtlsPlaintext(content_type, epoch, sequence, fragment)


def split_records(datagram) -> List[bytes]:
    """Split a datagram into the records it concatenates.

    Slices have the input's type: ``bytes`` in, ``bytes`` out;
    ``memoryview`` in, zero-copy views out (each directly consumable by
    :meth:`RecordLayer.open`).
    """
    records = []
    size = len(datagram)
    offset = 0
    while offset < size:
        if offset + RECORD_HEADER_LEN > size:
            raise DtlsError("trailing bytes do not form a record")
        (length,) = _LENGTH_AT_11.unpack_from(datagram, offset + 11)
        end = offset + RECORD_HEADER_LEN + length
        if end > size:
            raise DtlsError("record extends past datagram")
        records.append(datagram[offset:end])
        offset = end
    return records
