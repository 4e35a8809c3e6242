"""OSCORE security contexts and replay protection (RFC 8613 §3, §7.4)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cborlib import dumps
from repro.crypto import AES_CCM_16_64_128, ReplayWindow, hkdf_sha256

#: COSE algorithm identifier for AES-CCM-16-64-128 (RFC 8152 §10.2).
AES_CCM_16_64_128_ALG = 10

_KEY_LENGTH = 16
_NONCE_LENGTH = 13

#: The server's Sender ID, the kid of its responses' contexts.
SERVER_ID = b"\x02"


class OscoreError(Exception):
    """Raised on OSCORE processing failures."""


def _derive(
    master_secret: bytes,
    master_salt: bytes,
    context_id: Optional[bytes],
    role_id: bytes,
    type_label: str,
    length: int,
) -> bytes:
    """RFC 8613 §3.2.1: HKDF with a CBOR ``info`` structure."""
    info = dumps(
        [
            role_id,
            context_id,
            AES_CCM_16_64_128_ALG,
            type_label,
            length,
        ]
    )
    return hkdf_sha256(master_salt, master_secret, info, length)


@dataclass
class SecurityContext:
    """One endpoint's OSCORE security context.

    Create matching client/server contexts with :meth:`pair` — the
    experiments pre-establish these, mirroring the paper's pre-shared
    key setup (9-byte PSK, Section 5.1).
    """

    sender_id: bytes
    recipient_id: bytes
    sender_key: bytes
    recipient_key: bytes
    common_iv: bytes
    context_id: Optional[bytes] = None
    replay_window: ReplayWindow = field(default_factory=ReplayWindow)
    sender_sequence: int = 0
    #: Set on servers that require an Echo round before accepting
    #: requests (replay-window initialisation, RFC 8613 appendix B.1.2).
    echo_required: bool = False

    @classmethod
    def derive(
        cls,
        master_secret: bytes,
        master_salt: bytes,
        sender_id: bytes,
        recipient_id: bytes,
        context_id: Optional[bytes] = None,
        replay_window_size: int = 32,
        echo_required: bool = False,
    ) -> "SecurityContext":
        """Derive keys and common IV from the master secret (RFC 8613 §3.2)."""
        if sender_id == recipient_id:
            raise OscoreError("sender and recipient IDs must differ")
        return cls(
            sender_id=sender_id,
            recipient_id=recipient_id,
            sender_key=_derive(
                master_secret, master_salt, context_id, sender_id, "Key", _KEY_LENGTH
            ),
            recipient_key=_derive(
                master_secret, master_salt, context_id, recipient_id, "Key", _KEY_LENGTH
            ),
            common_iv=_derive(
                master_secret, master_salt, context_id, b"", "IV", _NONCE_LENGTH
            ),
            context_id=context_id,
            replay_window=ReplayWindow(replay_window_size),
            echo_required=echo_required,
        )

    @classmethod
    def pair(
        cls,
        master_secret: bytes,
        master_salt: bytes = b"",
        client_id: bytes = b"\x01",
        server_id: bytes = SERVER_ID,
        replay_window_size: int = 32,
        server_requires_echo: bool = False,
    ) -> tuple:
        """Derive a matching (client_context, server_context) pair."""
        client = cls.derive(
            master_secret, master_salt, client_id, server_id,
            replay_window_size=replay_window_size,
        )
        server = cls.derive(
            master_secret, master_salt, server_id, client_id,
            replay_window_size=replay_window_size,
            echo_required=server_requires_echo,
        )
        return client, server

    # -- AEAD plumbing -----------------------------------------------------

    def next_sequence(self) -> int:
        """Consume and return the next sender sequence number."""
        value = self.sender_sequence
        self.sender_sequence += 1
        return value

    def nonce(self, piv_id: bytes, partial_iv: bytes) -> bytes:
        """RFC 8613 §5.2 nonce: pad, concatenate, XOR with Common IV."""
        if len(piv_id) > _NONCE_LENGTH - 6:
            raise OscoreError("ID too long for nonce construction")
        padded_id = piv_id.rjust(_NONCE_LENGTH - 6, b"\x00")
        padded_piv = partial_iv.rjust(5, b"\x00")
        plain = bytes([len(piv_id)]) + padded_id + padded_piv
        return (
            int.from_bytes(plain, "big")
            ^ int.from_bytes(self.common_iv, "big")
        ).to_bytes(_NONCE_LENGTH, "big")

    def sender_aead(self):
        return AES_CCM_16_64_128(self.sender_key)

    def recipient_aead(self):
        return AES_CCM_16_64_128(self.recipient_key)


def client_context(
    master_secret: bytes, master_salt: bytes, index: int
) -> SecurityContext:
    """The context of client *index* of a master secret, whose server
    holds a :class:`RecipientContexts` of the same secret.

    RFC 8613 §3.3 wants a Sender ID per endpoint of one master secret:
    clients sharing one would share a sequence counter and a replay
    window at the server. Client *index* gets the one byte ``0x10 +
    index``; past 240 clients the IDs repeat.
    """
    return SecurityContext.derive(
        master_secret, master_salt, bytes((0x10 + index % 240,)), SERVER_ID
    )


class RecipientContexts:
    """A server's security contexts, by the kid of the requests each
    opens: one per client Sender ID, each with its own replay window.

    The context of a one-byte kid other than the server's own is derived
    from the master secret on that kid's first request, so the table
    holds at most 255 contexts, whatever the requests carry. ``get``
    returns ``None`` for any other kid.
    """

    def __init__(self, master_secret: bytes, master_salt: bytes = b"") -> None:
        self._master = (master_secret, master_salt)
        self._contexts: Dict[bytes, SecurityContext] = {}

    def get(self, kid: bytes) -> Optional[SecurityContext]:
        context = self._contexts.get(kid)
        if context is None and len(kid) == 1 and kid != SERVER_ID:
            context = self._contexts[kid] = SecurityContext.derive(
                *self._master, SERVER_ID, kid
            )
        return context


def encode_partial_iv(sequence: int) -> bytes:
    """Minimal-length big-endian Partial IV (RFC 8613 §6.1)."""
    if sequence < 0:
        raise OscoreError("sequence must be non-negative")
    if sequence == 0:
        return b"\x00"
    return sequence.to_bytes((sequence.bit_length() + 7) // 8, "big")


def decode_partial_iv(piv: bytes) -> int:
    return int.from_bytes(piv, "big")
