"""CoAP codec tests: header, options, codes, factories."""

import pytest
from hypothesis import given, strategies as st

from repro.coap import (
    CoapMessage,
    CoapMessageError,
    Code,
    ContentFormat,
    MessageType,
    OptionNumber,
    decode_options,
    encode_options,
)
from repro.coap.options import OptionError, decode_uint, encode_uint


class TestCodes:
    def test_dotted_notation(self):
        assert Code.CONTENT.dotted == "2.05"
        assert Code.VALID.dotted == "2.03"
        assert Code.CONTINUE.dotted == "2.31"
        assert Code.UNAUTHORIZED.dotted == "4.01"

    def test_request_classification(self):
        assert Code.FETCH.is_request
        assert Code.GET.is_request
        assert not Code.CONTENT.is_request
        assert not Code.EMPTY.is_request

    def test_response_classification(self):
        assert Code.CONTENT.is_response
        assert Code.NOT_FOUND.is_response
        assert not Code.FETCH.is_response

    def test_success_classification(self):
        assert Code.VALID.is_success
        assert not Code.BAD_REQUEST.is_success


class TestOptionEncoding:
    def test_uint_shortest_form(self):
        assert encode_uint(0) == b""
        assert encode_uint(1) == b"\x01"
        assert encode_uint(256) == b"\x01\x00"
        assert decode_uint(b"") == 0
        assert decode_uint(b"\x01\x00") == 256

    def test_negative_uint_rejected(self):
        with pytest.raises(OptionError):
            encode_uint(-1)

    def test_delta_extended_13(self):
        # Option 14 (Max-Age) needs the 13+ext encoding from delta 0.
        data = encode_options([(14, b"\x3c")])
        assert data[0] >> 4 == 13
        options, _ = decode_options(data)
        assert options == [(14, b"\x3c")]

    def test_delta_extended_14(self):
        data = encode_options([(1000, b"")])
        options, _ = decode_options(data)
        assert options == [(1000, b"")]

    def test_large_value_length(self):
        value = bytes(300)
        options, _ = decode_options(encode_options([(11, value)]))
        assert options == [(11, value)]

    def test_options_sorted_on_encode(self):
        data = encode_options([(27, b"\x01"), (11, b"dns"), (12, b"")])
        options, _ = decode_options(data)
        assert [n for n, _ in options] == [11, 12, 27]

    def test_repeated_option_preserved(self):
        data = encode_options([(11, b"a"), (11, b"b")])
        options, _ = decode_options(data)
        assert options == [(11, b"a"), (11, b"b")]

    def test_payload_marker_with_empty_payload_rejected(self):
        with pytest.raises(OptionError):
            decode_options(b"\xff")

    def test_reserved_nibble_rejected(self):
        with pytest.raises(OptionError):
            decode_options(b"\xf0")

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=2000),
                st.binary(max_size=40),
            ),
            max_size=8,
        )
    )
    def test_round_trip_property(self, options):
        encoded = encode_options(options)
        decoded, _ = decode_options(encoded)
        assert sorted(decoded) == sorted((n, bytes(v)) for n, v in options)


class TestMessageCodec:
    def _message(self):
        return (
            CoapMessage.request(
                Code.FETCH, "/dns", mid=0x1234, token=b"\xAA\xBB",
                payload=b"body",
            )
            .with_uint_option(OptionNumber.CONTENT_FORMAT, 553)
            .with_uint_option(OptionNumber.MAX_AGE, 30)
        )

    def test_round_trip(self):
        message = self._message()
        decoded = CoapMessage.decode(message.encode())
        assert decoded.code == Code.FETCH
        assert decoded.mid == 0x1234
        assert decoded.token == b"\xAA\xBB"
        assert decoded.payload == b"body"
        assert decoded.uri_path == "/dns"
        assert decoded.uint_option(OptionNumber.CONTENT_FORMAT) == 553
        assert decoded.max_age == 30

    def test_header_is_four_bytes_plus_token(self):
        message = CoapMessage(code=Code.GET, mid=1, token=b"\x01")
        assert len(message.encode()) == 5

    def test_empty_message(self):
        message = CoapMessage(mtype=MessageType.ACK, code=Code.EMPTY, mid=7)
        decoded = CoapMessage.decode(message.encode())
        assert decoded.code == Code.EMPTY
        assert decoded.mid == 7

    def test_empty_with_payload_rejected(self):
        data = CoapMessage(mtype=MessageType.ACK, code=Code.EMPTY, mid=7).encode()
        with pytest.raises(CoapMessageError):
            CoapMessage.decode(data + b"\xff\x01")

    def test_token_length_cap(self):
        with pytest.raises(CoapMessageError):
            CoapMessage(code=Code.GET, token=bytes(9)).encode()

    def test_version_check(self):
        data = bytearray(self._message().encode())
        data[0] = (2 << 6) | (data[0] & 0x3F)
        with pytest.raises(CoapMessageError):
            CoapMessage.decode(bytes(data))

    def test_unknown_code_rejected(self):
        data = bytearray(self._message().encode())
        data[1] = 0x3F
        with pytest.raises(CoapMessageError):
            CoapMessage.decode(bytes(data))

    def test_multi_segment_path(self):
        message = CoapMessage.request(Code.GET, "/a/b/c")
        assert CoapMessage.decode(message.encode()).uri_path == "/a/b/c"

    def test_uri_queries(self):
        message = CoapMessage.request(Code.GET, "/dns").with_option(
            OptionNumber.URI_QUERY, b"dns=AAE"
        )
        decoded = CoapMessage.decode(message.encode())
        assert decoded.option_values(OptionNumber.URI_QUERY) == [b"dns=AAE"]

    def test_with_without_option(self):
        message = self._message().without_option(OptionNumber.MAX_AGE)
        assert message.max_age is None
        message = message.replace_uint_option(OptionNumber.MAX_AGE, 99)
        assert message.max_age == 99

    def test_etags_accessor(self):
        message = self._message().with_option(OptionNumber.ETAG, b"\x01").with_option(
            OptionNumber.ETAG, b"\x02"
        )
        assert message.etags == [b"\x01", b"\x02"]
        assert message.etag == b"\x01"

    def test_make_response_piggyback(self):
        request = self._message()
        response = request.make_response(Code.CONTENT, payload=b"x")
        assert response.mtype == MessageType.ACK
        assert response.mid == request.mid
        assert response.token == request.token

    def test_make_response_non(self):
        request = CoapMessage.request(Code.GET, "/x", confirmable=False)
        assert request.make_response(Code.CONTENT).mtype == MessageType.NON

    def test_make_ack(self):
        request = self._message()
        assert request.make_ack().code == Code.EMPTY
        assert request.make_ack().mid == request.mid

    def test_request_factory_validates_code(self):
        with pytest.raises(CoapMessageError):
            CoapMessage.request(Code.CONTENT, "/x")

    def test_content_format_registry(self):
        assert ContentFormat.DNS_MESSAGE == 553

    @given(st.binary(max_size=64), st.binary(max_size=8))
    def test_payload_token_round_trip(self, payload, token):
        message = CoapMessage(
            code=Code.POST, mid=1, token=token, payload=payload
        )
        if not payload:
            decoded = CoapMessage.decode(message.encode())
            assert decoded.payload == b""
        else:
            decoded = CoapMessage.decode(message.encode())
            assert decoded.payload == payload
        assert decoded.token == token


class TestAllocationBudget:
    """tracemalloc micro-asserts pinning the zero-copy decode contract."""

    def test_coap_decode_materialises_payload_once(self):
        import gc
        import tracemalloc

        from repro.coap import CoapMessage, Code

        payload = bytes(range(256)) * 16  # 4 KiB
        wire = CoapMessage.request(
            Code.POST, "/dns", payload=payload, token=b"\x01"
        ).encode()
        rounds = 50
        CoapMessage.decode(wire)  # warm enum/option caches
        gc.collect()
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        decoded = [CoapMessage.decode(wire) for _ in range(rounds)]
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert decoded[-1].payload == payload
        # One boundary copy of the payload plus small fixed overhead
        # (message object, token, options); a second hidden copy of the
        # wire or payload would blow well past 1.5x.
        per_decode = (after - before) / rounds
        assert per_decode < len(payload) * 1.5, per_decode

    def test_memoryview_decode_allocates_no_extra(self):
        import gc
        import tracemalloc

        from repro.coap import CoapMessage, Code

        payload = bytes(range(256)) * 16
        wire = CoapMessage.request(
            Code.POST, "/dns", payload=payload, token=b"\x01"
        ).encode()
        view = memoryview(wire)
        rounds = 50
        CoapMessage.decode(view)
        gc.collect()
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        decoded = [CoapMessage.decode(view) for _ in range(rounds)]
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert decoded[-1].payload == payload
        per_decode = (after - before) / rounds
        assert per_decode < len(payload) * 1.5, per_decode
