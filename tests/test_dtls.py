"""DTLS tests: record layer, handshake, sessions, attack resistance."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.dtls import (
    ContentType,
    DtlsError,
    DtlsSession,
    RecordLayer,
    establish_pair,
)
from repro.dtls.handshake import (
    HandshakeMessage,
    HandshakeType,
    derive_keys,
    derive_master_secret,
    encode_client_hello,
    decode_client_hello,
    make_premaster_secret,
)
from repro.dtls import record as record_module
from repro.dtls.record import split_records


class TestRecordLayer:
    def test_plaintext_epoch0(self):
        layer = RecordLayer()
        record = layer.seal(ContentType.HANDSHAKE, b"hello")
        assert len(record) == 13 + 5
        plain = RecordLayer().open(record)
        assert plain.fragment == b"hello"
        assert plain.epoch == 0

    def test_header_fields(self):
        layer = RecordLayer()
        record = layer.seal(ContentType.APPLICATION_DATA, b"x")
        assert record[0] == 23
        assert record[1:3] == bytes([254, 253])
        assert int.from_bytes(record[3:5], "big") == 0  # epoch

    def test_sequence_increments(self):
        layer = RecordLayer()
        r1 = layer.seal(ContentType.HANDSHAKE, b"a")
        r2 = layer.seal(ContentType.HANDSHAKE, b"b")
        assert int.from_bytes(r1[5:11], "big") == 0
        assert int.from_bytes(r2[5:11], "big") == 1

    def test_protected_overhead_is_29_bytes(self):
        """13-byte header + 8-byte explicit nonce + 8-byte CCM-8 tag."""
        sender, receiver = RecordLayer(), RecordLayer()
        sender.set_write_keys(bytes(16), bytes(4))
        receiver.set_read_keys(bytes(16), bytes(4))
        record = sender.seal(ContentType.APPLICATION_DATA, b"0123456789")
        assert len(record) == 10 + 29
        assert receiver.open(record).fragment == b"0123456789"

    def test_tampered_record_rejected(self):
        sender, receiver = RecordLayer(), RecordLayer()
        sender.set_write_keys(bytes(16), bytes(4))
        receiver.set_read_keys(bytes(16), bytes(4))
        record = bytearray(sender.seal(ContentType.APPLICATION_DATA, b"data"))
        record[-1] ^= 1
        with pytest.raises(DtlsError):
            receiver.open(bytes(record))

    def test_replay_rejected(self):
        sender, receiver = RecordLayer(), RecordLayer()
        sender.set_write_keys(bytes(16), bytes(4))
        receiver.set_read_keys(bytes(16), bytes(4))
        record = sender.seal(ContentType.APPLICATION_DATA, b"data")
        receiver.open(record)
        with pytest.raises(DtlsError):
            receiver.open(record)

    def test_replay_rejected_before_the_aead_runs(self, monkeypatch):
        sender, receiver = RecordLayer(), RecordLayer()
        sender.set_write_keys(bytes(16), bytes(4))
        receiver.set_read_keys(bytes(16), bytes(4))
        record = sender.seal(ContentType.APPLICATION_DATA, b"data")
        fresh = sender.seal(ContentType.APPLICATION_DATA, b"more")
        receiver.open(record)
        aead_calls = []
        suite = record_module.AES_128_CCM_8

        def counting_suite(key):
            aead_calls.append(key)
            return suite(key)

        monkeypatch.setattr(record_module, "AES_128_CCM_8", counting_suite)
        with pytest.raises(DtlsError, match="replayed"):
            receiver.open(record)
        assert aead_calls == []
        # A fresh record does reach the AEAD through the same hook.
        assert receiver.open(fresh).fragment == b"more"
        assert len(aead_calls) == 1

    def test_forged_record_does_not_advance_replay_window(self):
        sender, receiver = RecordLayer(), RecordLayer()
        sender.set_write_keys(bytes(16), bytes(4))
        receiver.set_read_keys(bytes(16), bytes(4))
        receiver.open(sender.seal(ContentType.APPLICATION_DATA, b"zero"))
        genuine = sender.seal(ContentType.APPLICATION_DATA, b"one")
        # Sequence 1 rewritten to 100 in the header and the explicit
        # nonce: fresh for the window, but the tag no longer verifies.
        forged = bytearray(genuine)
        forged[5:11] = forged[15:21] = (100).to_bytes(6, "big")
        with pytest.raises(DtlsError, match="authentication"):
            receiver.open(bytes(forged))
        # Had the window moved to 100, sequence 1 would now be too old.
        assert receiver.open(genuine).fragment == b"one"
        with pytest.raises(DtlsError, match="replayed"):
            receiver.open(genuine)

    def test_replay_window_accepts_reordering_within_64(self):
        sender, receiver = RecordLayer(), RecordLayer()
        sender.set_write_keys(bytes(16), bytes(4))
        receiver.set_read_keys(bytes(16), bytes(4))
        records = [
            sender.seal(ContentType.APPLICATION_DATA, bytes([i])) for i in range(70)
        ]
        receiver.open(records[69])
        assert receiver.open(records[6]).fragment == bytes([6])  # offset 63
        with pytest.raises(DtlsError, match="replayed"):
            receiver.open(records[5])  # offset 64: older than the window
        with pytest.raises(DtlsError, match="replayed"):
            receiver.open(records[6])

    def test_unknown_epoch_rejected(self):
        sender = RecordLayer()
        sender.set_write_keys(bytes(16), bytes(4))
        record = sender.seal(ContentType.APPLICATION_DATA, b"data")
        with pytest.raises(DtlsError):
            RecordLayer().open(record)

    def test_wrong_version_rejected(self):
        record = bytearray(RecordLayer().seal(ContentType.ALERT, b"x"))
        record[1] = 0xFE
        record[2] = 0xFF  # DTLS 1.0
        with pytest.raises(DtlsError):
            RecordLayer().open(bytes(record))

    def test_split_records(self):
        layer = RecordLayer()
        a = layer.seal(ContentType.HANDSHAKE, b"aaa")
        b = layer.seal(ContentType.HANDSHAKE, b"bbbb")
        assert split_records(a + b) == [a, b]

    def test_split_records_trailing_junk(self):
        layer = RecordLayer()
        record = layer.seal(ContentType.HANDSHAKE, b"aaa")
        with pytest.raises(DtlsError):
            split_records(record + b"\x01")


class TestHandshakeMessages:
    def test_handshake_header_is_12_bytes(self):
        message = HandshakeMessage(HandshakeType.CLIENT_HELLO, 0, b"body")
        assert len(message.encode()) == 12 + 4

    def test_decode_round_trip(self):
        message = HandshakeMessage(HandshakeType.FINISHED, 3, bytes(12))
        decoded, consumed = HandshakeMessage.decode(message.encode())
        assert decoded == message
        assert consumed == len(message.encode())

    def test_client_hello_cookie_round_trip(self):
        body = encode_client_hello(bytes(32), b"COOKIE16bytes!!!")
        client_random, cookie = decode_client_hello(body)
        assert client_random == bytes(32)
        assert cookie == b"COOKIE16bytes!!!"

    def test_premaster_structure(self):
        premaster = make_premaster_secret(b"123456789")
        assert len(premaster) == 2 + 9 + 2 + 9
        assert premaster[:2] == (9).to_bytes(2, "big")

    def test_key_derivation_deterministic(self):
        master = derive_master_secret(make_premaster_secret(b"psk"), bytes(32), bytes(32))
        assert len(master) == 48
        keys = derive_keys(master, bytes(32), bytes(32))
        assert len(keys.client_write_key) == 16
        assert len(keys.client_write_iv) == 4
        assert keys.client_write_key != keys.server_write_key


class TestSessions:
    def test_full_handshake_establishes(self):
        client, server, flights = establish_pair()
        assert client.established and server.established
        names = [name for _, name, _ in flights]
        assert names == [
            "Client Hello",
            "Hello Verify Request",
            "ClientHello[Cookie]",
            "Server Hello",
            "Server Hello Done",
            "ClientKeyExchange",
            "ChangeCipherSpec",
            "Finished",
            "ChangeCipherSpec",
            "Finished",
        ]

    def test_application_data_both_directions(self):
        client, server, _ = establish_pair()
        event = server.handle_datagram(client.protect(b"ping"))
        assert event.app_data == [b"ping"]
        event = client.handle_datagram(server.protect(b"pong"))
        assert event.app_data == [b"pong"]

    def test_protect_before_established_rejected(self):
        session = DtlsSession("client", psk=b"k")
        with pytest.raises(DtlsError):
            session.protect(b"x")

    def test_wrong_psk_fails_handshake(self):
        rng = random.Random(0)
        client = DtlsSession("client", psk=b"correct", rng=rng)
        server = DtlsSession(
            "server", psk_store={b"Client_identity": b"wrong!"}, rng=rng
        )
        pending = [("C->S", client.start_handshake())]
        with pytest.raises(DtlsError):
            index = 0
            while index < len(pending):
                direction, datagram = pending[index]
                index += 1
                receiver = server if direction == "C->S" else client
                back = "S->C" if direction == "C->S" else "C->S"
                events = receiver.handle_datagram(datagram)
                for _, out in events.outgoing:
                    pending.append((back, out))

    def test_unknown_identity_rejected(self):
        rng = random.Random(0)
        client = DtlsSession("client", psk=b"k", psk_identity=b"who?", rng=rng)
        server = DtlsSession("server", psk_store={b"other": b"k"}, rng=rng)
        pending = [("C->S", client.start_handshake())]
        with pytest.raises(DtlsError):
            index = 0
            while index < len(pending):
                direction, datagram = pending[index]
                index += 1
                receiver = server if direction == "C->S" else client
                back = "S->C" if direction == "C->S" else "C->S"
                events = receiver.handle_datagram(datagram)
                for _, out in events.outgoing:
                    pending.append((back, out))

    def test_cookie_exchange_is_stateless_round(self):
        """The first flight must be answered by HelloVerifyRequest,
        mirroring Figure 6's session-setup sequence."""
        rng = random.Random(1)
        client = DtlsSession("client", psk=b"k", rng=rng)
        server = DtlsSession("server", psk_store={b"Client_identity": b"k"}, rng=rng)
        events = server.handle_datagram(client.start_handshake())
        assert [name for name, _ in events.outgoing] == ["Hello Verify Request"]

    def test_invalid_role(self):
        with pytest.raises(ValueError):
            DtlsSession("observer")

    def test_deterministic_with_seeded_rng(self):
        _, _, flights_a = establish_pair(rng=random.Random(7))
        _, _, flights_b = establish_pair(rng=random.Random(7))
        assert [f[2] for f in flights_a] == [f[2] for f in flights_b]

    @given(st.binary(min_size=1, max_size=200))
    def test_app_data_round_trip_property(self, payload):
        client, server, _ = establish_pair(rng=random.Random(3))
        event = server.handle_datagram(client.protect(payload))
        assert event.app_data == [payload]
