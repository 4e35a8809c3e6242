"""Group OSCORE (draft-ietf-core-oscore-groupcomm, simplified).

Section 7 of the paper ("How to utilize OSCORE group communication in
DNS?") motivates protected multicast DNS-SD; Section 8 names DoC over
Group OSCORE as future work. This module implements the *group mode*
message processing needed for that experiment:

* all members share a group master secret; each member's sender key is
  derived from it with the member ID in the HKDF info, so any member
  can derive any other member's key on demand and verify/decrypt that
  member's messages;
* requests are multicast: the OSCORE option carries the sender's kid
  and the group ID as kid-context;
* each responder answers with its **own** kid and a **fresh Partial
  IV** (multiple responses to one request must not share a nonce);
* replay windows are kept per sender.

The draft's countersignatures (source authentication against *inner*
group members) require Ed25519 and are out of scope; this is the
"pairwise-trust group" reduction, which preserves all sizes except the
signature and all message flows. The substitution is recorded in
DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cborlib import dumps
from repro.coap.codes import Code
from repro.coap.message import CoapMessage
from repro.crypto import AEADError, AES_CCM_16_64_128, ReplayWindow, hkdf_sha256

from .context import (
    AES_CCM_16_64_128_ALG,
    OscoreError,
    encode_partial_iv,
    decode_partial_iv,
)
from .option import OscoreOptionValue
from .protect import RequestBinding, _parse_plaintext, _split_options, encode_plaintext

_KEY_LENGTH = 16
_NONCE_LENGTH = 13


@dataclass
class GroupContext:
    """One member's view of a Group OSCORE security group."""

    group_id: bytes
    member_id: bytes
    master_secret: bytes
    master_salt: bytes = b""
    common_iv: bytes = field(init=False)
    sender_sequence: int = 0
    _replay: Dict[bytes, ReplayWindow] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.common_iv = hkdf_sha256(
            self.master_salt,
            self.master_secret,
            dumps([self.group_id, None, AES_CCM_16_64_128_ALG, "IV", _NONCE_LENGTH]),
            _NONCE_LENGTH,
        )

    def key_for(self, member_id: bytes) -> bytes:
        """Derive the sender key of *member_id* (any group member can)."""
        return hkdf_sha256(
            self.master_salt,
            self.master_secret,
            dumps([member_id, self.group_id, AES_CCM_16_64_128_ALG, "Key", _KEY_LENGTH]),
            _KEY_LENGTH,
        )

    def nonce(self, piv_id: bytes, partial_iv: bytes) -> bytes:
        if len(piv_id) > _NONCE_LENGTH - 6:
            raise OscoreError("member ID too long for nonce")
        padded_id = piv_id.rjust(_NONCE_LENGTH - 6, b"\x00")
        padded_piv = partial_iv.rjust(5, b"\x00")
        plain = bytes([len(piv_id)]) + padded_id + padded_piv
        return bytes(a ^ b for a, b in zip(plain, self.common_iv))

    def next_sequence(self) -> int:
        value = self.sender_sequence
        self.sender_sequence += 1
        return value

    def replay_window(self, member_id: bytes) -> ReplayWindow:
        window = self._replay.get(member_id)
        if window is None:
            window = ReplayWindow()
            self._replay[member_id] = window
        return window


def _group_aad(
    group_id: bytes, request_kid: bytes, request_piv: bytes
) -> bytes:
    external = dumps(
        [1, [AES_CCM_16_64_128_ALG], request_kid, request_piv, b"", group_id]
    )
    return dumps(["Encrypt0", b"", external])


def protect_group_request(
    context: GroupContext, request: CoapMessage
) -> Tuple[CoapMessage, RequestBinding]:
    """Protect a (typically multicast) group request."""
    if not request.code.is_request:
        raise OscoreError("protect_group_request needs a request")
    partial_iv = encode_partial_iv(context.next_sequence())
    outer_options, inner_options = _split_options(request)
    plaintext = encode_plaintext(request.code, inner_options, request.payload)
    nonce = context.nonce(context.member_id, partial_iv)
    aad = _group_aad(context.group_id, context.member_id, partial_iv)
    key = context.key_for(context.member_id)
    ciphertext = AES_CCM_16_64_128(key).encrypt(nonce, plaintext, aad)
    option = OscoreOptionValue(
        partial_iv=partial_iv,
        kid=context.member_id,
        kid_context=context.group_id,
    )
    outer = CoapMessage(
        mtype=request.mtype,
        code=Code.POST,
        mid=request.mid,
        token=request.token,
        options=tuple(outer_options)
        + ((9, option.encode()),),  # OSCORE option number
        payload=ciphertext,
    )
    return outer, RequestBinding(context.member_id, partial_iv)


def unprotect_group_request(
    context: GroupContext, outer: CoapMessage
) -> Tuple[CoapMessage, RequestBinding]:
    """Verify/decrypt a group request from any member."""
    from repro.coap.options import OptionNumber

    option_data = outer.option(OptionNumber.OSCORE)
    if option_data is None:
        raise OscoreError("missing OSCORE option")
    value = OscoreOptionValue.decode(option_data)
    if value.kid is None:
        raise OscoreError("group request without kid")
    if value.kid_context != context.group_id:
        raise OscoreError("request for a different group")
    sequence = decode_partial_iv(value.partial_iv)
    window = context.replay_window(value.kid)
    if not window.check(sequence):
        raise OscoreError(f"replayed group request PIV {sequence}")
    nonce = context.nonce(value.kid, value.partial_iv)
    aad = _group_aad(context.group_id, value.kid, value.partial_iv)
    key = context.key_for(value.kid)
    try:
        plaintext = AES_CCM_16_64_128(key).decrypt(nonce, outer.payload, aad)
    except AEADError as exc:
        raise OscoreError("group request authentication failed") from exc
    window.accept(sequence)
    code, inner_options, payload = _parse_plaintext(plaintext)
    if not code.is_request:
        raise OscoreError("inner message is not a request")
    from .protect import _CLASS_U

    outer_options = tuple((n, v) for n, v in outer.options if n in _CLASS_U)
    inner = CoapMessage(
        mtype=outer.mtype,
        code=code,
        mid=outer.mid,
        token=outer.token,
        options=outer_options + inner_options,
        payload=payload,
    )
    return inner, RequestBinding(value.kid, value.partial_iv)


def protect_group_response(
    context: GroupContext, response: CoapMessage, binding: RequestBinding
) -> CoapMessage:
    """Protect one member's response to a group request.

    Responders always use their own kid and a fresh Partial IV: many
    members answer the same request, so nonces must not collide.
    """
    if not response.code.is_response:
        raise OscoreError("protect_group_response needs a response")
    partial_iv = encode_partial_iv(context.next_sequence())
    outer_options, inner_options = _split_options(response)
    plaintext = encode_plaintext(response.code, inner_options, response.payload)
    nonce = context.nonce(context.member_id, partial_iv)
    aad = _group_aad(context.group_id, binding.kid, binding.partial_iv)
    key = context.key_for(context.member_id)
    ciphertext = AES_CCM_16_64_128(key).encrypt(nonce, plaintext, aad)
    option = OscoreOptionValue(partial_iv=partial_iv, kid=context.member_id)
    return CoapMessage(
        mtype=response.mtype,
        code=Code.CHANGED,
        mid=response.mid,
        token=response.token,
        options=tuple(outer_options) + ((9, option.encode()),),
        payload=ciphertext,
    )


def unprotect_group_response(
    context: GroupContext, outer: CoapMessage, binding: RequestBinding
) -> Tuple[CoapMessage, bytes]:
    """Verify/decrypt a response; returns (message, responder_id)."""
    from repro.coap.options import OptionNumber

    option_data = outer.option(OptionNumber.OSCORE)
    if option_data is None:
        raise OscoreError("missing OSCORE option")
    value = OscoreOptionValue.decode(option_data)
    if value.kid is None:
        raise OscoreError("group response without responder kid")
    nonce = context.nonce(value.kid, value.partial_iv)
    aad = _group_aad(context.group_id, binding.kid, binding.partial_iv)
    key = context.key_for(value.kid)
    try:
        plaintext = AES_CCM_16_64_128(key).decrypt(nonce, outer.payload, aad)
    except AEADError as exc:
        raise OscoreError("group response authentication failed") from exc
    code, inner_options, payload = _parse_plaintext(plaintext)
    if not code.is_response:
        raise OscoreError("inner message is not a response")
    message = CoapMessage(
        mtype=outer.mtype,
        code=code,
        mid=outer.mid,
        token=outer.token,
        options=inner_options,
        payload=payload,
    )
    return message, value.kid
