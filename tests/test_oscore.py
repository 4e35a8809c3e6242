"""OSCORE tests: context derivation, option codec, protection, replay."""

import pytest
from hypothesis import given, strategies as st

from repro.coap import CoapMessage, Code, ContentFormat, OptionNumber
from repro.oscore import (
    OscoreError,
    OscoreOptionValue,
    ReplayError,
    ReplayWindow,
    SecurityContext,
    protect_request,
    protect_response,
    unprotect_request,
    unprotect_response,
)
from repro.oscore.context import decode_partial_iv, encode_partial_iv
from repro.oscore.protect import _external_aad, encode_plaintext


def _pair(**kwargs):
    return SecurityContext.pair(b"master-secret", b"salt", **kwargs)


def _request(payload=b"\x00" * 20):
    return (
        CoapMessage.request(Code.FETCH, "/dns", mid=1, token=b"\xAA", payload=payload)
        .with_uint_option(OptionNumber.CONTENT_FORMAT, int(ContentFormat.DNS_MESSAGE))
    )


class TestContext:
    def test_rfc8613_c1_key_derivation(self):
        """RFC 8613 Appendix C.1.1 test vector."""
        master_secret = bytes(range(1, 17))
        master_salt = bytes.fromhex("9e7ca92223786340")
        ctx = SecurityContext.derive(master_secret, master_salt, b"", b"\x01")
        assert ctx.sender_key.hex() == "f0910ed7295e6ad4b54fc793154302ff"
        assert ctx.recipient_key.hex() == "ffb14e093c94c9cac9471648b4f98710"
        assert ctx.common_iv.hex() == "4622d4dd6d944168eefb54987c"

    def test_pair_keys_mirrored(self):
        client, server = _pair()
        assert client.sender_key == server.recipient_key
        assert client.recipient_key == server.sender_key
        assert client.common_iv == server.common_iv

    def test_same_ids_rejected(self):
        with pytest.raises(OscoreError):
            SecurityContext.derive(b"s", b"", b"\x01", b"\x01")

    def test_nonce_construction_rfc8613_c1(self):
        """Nonce for sender ID '' and PIV 0 per Appendix C.1.1."""
        master_secret = bytes(range(1, 17))
        master_salt = bytes.fromhex("9e7ca92223786340")
        ctx = SecurityContext.derive(master_secret, master_salt, b"", b"\x01")
        nonce = ctx.nonce(b"", b"\x00")
        assert nonce.hex() == "4622d4dd6d944168eefb54987c"

    def test_sequence_numbers_monotonic(self):
        client, _ = _pair()
        assert [client.next_sequence() for _ in range(3)] == [0, 1, 2]

    def test_partial_iv_encoding(self):
        assert encode_partial_iv(0) == b"\x00"
        assert encode_partial_iv(255) == b"\xff"
        assert encode_partial_iv(256) == b"\x01\x00"
        assert decode_partial_iv(b"\x01\x00") == 256

    def test_id_too_long_for_nonce(self):
        client, _ = _pair()
        with pytest.raises(OscoreError):
            client.nonce(bytes(8), b"\x00")


class TestReplayWindow:
    def test_in_order(self):
        window = ReplayWindow()
        for seq in range(10):
            window.accept(seq)
        assert not any(window.check(seq) for seq in range(10))
        assert window.check(10)

    def test_replay_rejected(self):
        window = ReplayWindow()
        window.accept(5)
        with pytest.raises(ReplayError):
            window.accept(5)

    def test_out_of_order_within_window(self):
        window = ReplayWindow(size=8)
        window.accept(10)
        window.accept(7)
        with pytest.raises(ReplayError):
            window.accept(7)

    def test_too_old_rejected(self):
        window = ReplayWindow(size=8)
        window.accept(100)
        assert not window.check(92)
        assert window.check(93)

    def test_negative_rejected(self):
        assert not ReplayWindow().check(-1)

    def test_accept_refuses_what_check_refuses(self):
        window = ReplayWindow()
        with pytest.raises(ReplayError):
            window.accept(-1)
        assert all(window.check(seq) for seq in range(window.size))
        with pytest.raises(ValueError):
            ReplayWindow(size=0)

    def test_dtls_sized_window_edge(self):
        # The record layer's 64 entries (RFC 6347 §4.1.2.6).
        window = ReplayWindow(size=64)
        window.accept(69)
        window.accept(6)  # offset 63: the oldest sequence still inside
        with pytest.raises(ReplayError):
            window.accept(6)
        assert not window.check(5)  # offset 64: one older
        with pytest.raises(ReplayError):
            window.accept(5)
        assert not window.check(69) and window.check(70)

    def test_both_layers_use_this_class(self):
        import repro.crypto
        from repro.dtls.record import RecordLayer

        assert ReplayWindow is repro.crypto.ReplayWindow
        dtls_window = RecordLayer()._replay
        assert type(dtls_window) is ReplayWindow and dtls_window.size == 64
        client, _ = _pair()
        assert type(client.replay_window) is ReplayWindow
        assert client.replay_window.size == 32

    @given(st.lists(st.integers(0, 200), max_size=60, unique=True))
    def test_unique_sequences_accepted_in_window(self, sequences):
        window = ReplayWindow(size=256)
        for seq in sequences:
            window.accept(seq)


class TestOptionCodec:
    def test_empty_for_defaults(self):
        assert OscoreOptionValue().encode() == b""
        assert OscoreOptionValue.decode(b"") == OscoreOptionValue()

    def test_request_form(self):
        value = OscoreOptionValue(partial_iv=b"\x05", kid=b"\x01")
        encoded = value.encode()
        assert encoded == bytes([0x09, 0x05, 0x01])
        assert OscoreOptionValue.decode(encoded) == value

    def test_kid_context(self):
        value = OscoreOptionValue(
            partial_iv=b"\x01", kid=b"\x02", kid_context=b"ctx"
        )
        assert OscoreOptionValue.decode(value.encode()) == value

    def test_response_piv_only(self):
        value = OscoreOptionValue(partial_iv=b"\x07")
        assert OscoreOptionValue.decode(value.encode()) == value

    def test_reserved_bits_rejected(self):
        with pytest.raises(OscoreError):
            OscoreOptionValue.decode(bytes([0xE0]))

    def test_piv_too_long(self):
        with pytest.raises(OscoreError):
            OscoreOptionValue(partial_iv=bytes(6)).encode()

    def test_trailing_without_kid_flag_rejected(self):
        with pytest.raises(OscoreError):
            OscoreOptionValue.decode(bytes([0x01, 0x00, 0xFF]))


class TestProtection:
    def test_request_round_trip(self):
        client, server = _pair()
        request = _request()
        outer, binding = protect_request(client, request)
        assert outer.code == Code.POST           # semantics hidden
        assert outer.option(OptionNumber.URI_PATH) is None  # Class E hidden
        assert outer.payload != request.payload
        inner, server_binding = unprotect_request(server, outer)
        assert inner.code == Code.FETCH
        assert inner.uri_path == "/dns"
        assert inner.payload == request.payload
        assert server_binding.kid == binding.kid

    def test_response_round_trip(self):
        client, server = _pair()
        outer, binding = protect_request(client, _request())
        inner, server_binding = unprotect_request(server, outer)
        response = inner.make_response(Code.CONTENT, payload=b"answer")
        response = response.with_uint_option(OptionNumber.MAX_AGE, 60)
        protected = protect_response(server, response, server_binding)
        assert protected.code == Code.CHANGED     # outer 2.04
        plain = unprotect_response(client, protected, binding)
        assert plain.code == Code.CONTENT
        assert plain.payload == b"answer"
        assert plain.max_age == 60

    def test_response_with_new_piv(self):
        """A response under the server's own Partial IV (RFC 8613 §8.3),
        which the stack never sends but must verify, built here."""
        client, server = _pair()
        outer, binding = protect_request(client, _request())
        inner, server_binding = unprotect_request(server, outer)
        partial_iv = encode_partial_iv(server.next_sequence())
        ciphertext = server.sender_aead().encrypt(
            server.nonce(server.sender_id, partial_iv),
            encode_plaintext(Code.CONTENT, (), b"x"),
            _external_aad(server_binding.kid, server_binding.partial_iv),
        )
        option = OscoreOptionValue(partial_iv=partial_iv).encode()
        protected = inner.make_response(
            Code.CHANGED, payload=ciphertext, options=((OptionNumber.OSCORE, option),)
        )
        assert protected.code == Code.CHANGED
        plain = unprotect_response(client, protected, binding)
        assert plain.code == Code.CONTENT
        assert plain.payload == b"x"
        # The same body under the request's nonce does not verify.
        protected = inner.make_response(
            Code.CHANGED, payload=ciphertext,
            options=((OptionNumber.OSCORE, OscoreOptionValue().encode()),),
        )
        with pytest.raises(OscoreError):
            unprotect_response(client, protected, binding)

    def test_replay_rejected(self):
        client, server = _pair()
        outer, _ = protect_request(client, _request())
        unprotect_request(server, outer)
        with pytest.raises(OscoreError):
            unprotect_request(server, outer)

    def test_replay_check_can_be_disabled(self):
        client, server = _pair()
        outer, _ = protect_request(client, _request())
        unprotect_request(server, outer, enforce_replay=False)
        unprotect_request(server, outer, enforce_replay=False)

    def test_tampered_payload_rejected(self):
        client, server = _pair()
        outer, _ = protect_request(client, _request())
        from dataclasses import replace

        bad = replace(outer, payload=bytes([outer.payload[0] ^ 1]) + outer.payload[1:])
        with pytest.raises(OscoreError):
            unprotect_request(server, bad)

    def test_wrong_kid_rejected(self):
        client, _ = _pair()
        _, other_server = SecurityContext.pair(
            b"master-secret", b"salt", client_id=b"\x09", server_id=b"\x0A"
        )
        outer, _ = protect_request(client, _request())
        with pytest.raises(OscoreError):
            unprotect_request(other_server, outer)

    def test_missing_option_rejected(self):
        _, server = _pair()
        plain = CoapMessage.request(Code.POST, "/x", payload=b"junk")
        with pytest.raises(OscoreError):
            unprotect_request(server, plain)

    def test_proxy_options_stay_outer(self):
        client, server = _pair()
        request = _request().with_option(OptionNumber.URI_HOST, b"origin.example")
        outer, _ = protect_request(client, request)
        assert outer.option(OptionNumber.URI_HOST) == b"origin.example"
        inner, _ = unprotect_request(server, outer)
        assert inner.option(OptionNumber.URI_HOST) == b"origin.example"

    def test_wrong_direction_calls_rejected(self):
        client, _ = _pair()
        with pytest.raises(OscoreError):
            protect_request(client, _request().make_response(Code.CONTENT))

    def test_distinct_requests_distinct_ciphertexts(self):
        """Fresh PIVs make equal queries non-identical on the wire —
        the reason plain OSCORE defeats proxy caching (Table 1)."""
        client, _ = _pair()
        outer1, _ = protect_request(client, _request())
        outer2, _ = protect_request(client, _request())
        assert outer1.payload != outer2.payload

    def test_overhead_is_small(self):
        """OSCORE per-message overhead ≈ 11-14 bytes (Figure 6)."""
        client, _ = _pair()
        request = _request()
        outer, _ = protect_request(client, request)
        overhead = len(outer.encode()) - len(request.encode())
        assert 8 <= overhead <= 16

    @given(st.binary(max_size=100))
    def test_round_trip_property(self, payload):
        client, server = _pair()
        request = _request(payload=payload)
        outer, binding = protect_request(client, request)
        inner, server_binding = unprotect_request(server, outer)
        assert inner.payload == payload
        response = inner.make_response(Code.CONTENT, payload=payload[::-1])
        protected = protect_response(server, response, server_binding)
        plain = unprotect_response(client, protected, binding)
        assert plain.payload == payload[::-1]
