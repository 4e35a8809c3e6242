"""Reliability parameters and URI template tests."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.coap.reliability import ReliabilityParams, TransmissionState
from repro.coap.uri import (
    UriTemplate,
    UriTemplateError,
    base64url_decode,
    base64url_encode,
)


class TestReliability:
    def test_default_parameters(self):
        params = ReliabilityParams()
        assert params.ack_timeout == 2.0
        assert params.ack_random_factor == 1.5
        assert params.max_retransmit == 4

    def test_initial_timeout_range(self):
        params = ReliabilityParams()
        rng = random.Random(1)
        for _ in range(100):
            timeout = params.initial_timeout(rng)
            assert 2.0 <= timeout <= 3.0

    def test_retransmission_windows_figure11(self):
        """The gray areas of Figure 11: [2,3], [6,9], [14,21], [30,45]."""
        params = ReliabilityParams()
        assert params.retransmission_window(1) == (2.0, 3.0)
        assert params.retransmission_window(2) == (6.0, 9.0)
        assert params.retransmission_window(3) == (14.0, 21.0)
        assert params.retransmission_window(4) == (30.0, 45.0)

    def test_window_one_based(self):
        with pytest.raises(ValueError):
            ReliabilityParams().retransmission_window(0)

    def test_transmission_state_doubling(self):
        state = TransmissionState(ReliabilityParams(), random.Random(2))
        first = state.timeout
        assert state.register_timeout()
        assert state.timeout == pytest.approx(2 * first)

    def test_transmission_exhaustion(self):
        state = TransmissionState(ReliabilityParams(), random.Random(2))
        sent = 0
        while state.register_timeout():
            sent += 1
        assert sent == 4
        assert state.exhausted
        assert not state.register_timeout()


class TestTable6:
    """The defaults match the paper's Table 6 (the RIOT build
    configuration) and its experiment setup (Section 5.1)."""

    def test_cache_and_retransmission_defaults(self):
        import inspect

        from repro.coap.cache import CoapCache
        from repro.coap.proxy import ForwardProxy
        from repro.dns.cache import DNSCache

        def default(callable_, name):
            return inspect.signature(callable_).parameters[name].default

        assert default(DNSCache, "capacity") == 8  # CONFIG_DNS_CACHE_SIZE
        # CONFIG_NANOCOAP_CACHE_ENTRIES: 8 on clients, 50 on the proxy.
        assert default(CoapCache, "capacity") == 8
        assert default(ForwardProxy, "cache_entries") == 50
        params = ReliabilityParams()
        assert params.max_retransmit == 4  # CONFIG_SOCK_DODTLS_RETRIES
        assert params.ack_timeout == 2.0  # CONFIG_SOCK_DODTLS_TIMEOUT_MS 2000

    def test_experiment_harness_defaults(self):
        from repro.scenarios import NAME_TEMPLATE, WorkloadSpec

        workload = WorkloadSpec()
        assert workload.query_rate == 5.0  # queries per second
        assert workload.num_queries == 50  # queries per run
        assert len(NAME_TEMPLATE.format(index=0)) == 24  # name length


class TestUriTemplate:
    def test_simple_expansion(self):
        template = UriTemplate("/dns?dns={dns}")
        assert template.expand(dns="abc") == "/dns?dns=abc"

    def test_form_style_expansion(self):
        template = UriTemplate("/dns{?dns}")
        assert template.expand(dns="abc") == "/dns?dns=abc"

    def test_percent_encoding(self):
        template = UriTemplate("/r/{x}")
        assert template.expand(x="a b/c") == "/r/a%20b%2Fc"

    def test_missing_variable(self):
        with pytest.raises(UriTemplateError):
            UriTemplate("/dns{?dns}").expand()

    def test_malformed_template(self):
        with pytest.raises(UriTemplateError):
            UriTemplate("/dns{dns")

    def test_repeated_variable_rejected(self):
        with pytest.raises(UriTemplateError):
            UriTemplate("/{a}/{a}")

    def test_split_expanded(self):
        template = UriTemplate("/sub/dns{?dns}")
        segments, queries = template.split_expanded(dns="QQ")
        assert segments == ["sub", "dns"]
        assert queries == ["dns=QQ"]

    def test_split_no_query(self):
        segments, queries = UriTemplate("/a/b").split_expanded()
        assert segments == ["a", "b"] and queries == []

    def test_base64url_no_padding(self):
        encoded = base64url_encode(b"\x00\x01\x02")
        assert "=" not in encoded
        assert base64url_decode(encoded) == b"\x00\x01\x02"

    def test_base64url_urlsafe_alphabet(self):
        encoded = base64url_encode(bytes([0xFF, 0xFE, 0xFD]))
        assert "+" not in encoded and "/" not in encoded

    @given(st.binary(max_size=120))
    def test_base64url_round_trip(self, data):
        assert base64url_decode(base64url_encode(data)) == data

    def test_get_inflation_factor(self):
        """Section 5.3: base64 inflates GET queries ≈ 1.33× (+ URI)."""
        from repro.dns import make_query

        wire = make_query("name0000.example-iot.org").encode()
        encoded = base64url_encode(wire)
        assert 1.3 <= len(encoded) / len(wire) <= 1.4
