"""Experiment harness tests: dissections, metrics, resolution runs."""

import os
import subprocess
import sys

import pytest

from repro.api import RunSpec, run
from repro.coap.codes import Code
from repro.experiments import (
    FRAGMENTATION_LIMIT,
    canonical_messages,
    dissect_all,
    dissect_transport,
    percentile,
    quantiles,
    summary_stats,
)
from repro.experiments.metrics import fraction_below
from repro.experiments.packet_sizes import MEDIAN_NAME, dtls_handshake_dissections


class TestMetrics:
    def test_percentile_endpoints(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0

    def test_median_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_quantiles(self):
        q1, q2, q3 = quantiles(list(map(float, range(1, 101))))
        assert q1 == pytest.approx(25.75)
        assert q2 == pytest.approx(50.5)
        assert q3 == pytest.approx(75.25)

    def test_summary_stats_fields(self):
        stats = summary_stats([1.0, 2.0, 2.0, 3.0])
        assert stats["mode"] == 2.0
        assert stats["mean"] == 2.0
        assert stats["min"] == 1.0 and stats["max"] == 3.0

    def test_fraction_below(self):
        assert fraction_below([0.1, 0.2, 0.3, 5.0], 0.25) == 0.5

    def test_percentile_helper_loads_no_simulator(self):
        # interpolate_sorted is the percentile behind telemetry rows,
        # Report quantiles and the fleet service: importing it cold must
        # not pull in the scenario engine and the sim stack behind it.
        import repro

        code = (
            "import sys, repro.experiments.metrics; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.scenarios')))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        loaded = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        )
        assert loaded.stdout.strip() == "[]"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            summary_stats([])


class TestCanonicalMessages:
    def test_median_name_is_24_chars(self):
        assert len(MEDIAN_NAME) == 24

    def test_dns_wire_sizes(self):
        """Query 42 B; A response 58 B; AAAA response 70 B — the sizes
        behind Figure 6 and the Section 7 compression claim."""
        messages = canonical_messages()
        assert len(messages["query"].encode()) == 42
        assert len(messages["response_a"].encode()) == 58
        assert len(messages["response_aaaa"].encode()) == 70

    def test_query_id_zero(self):
        assert canonical_messages()["query"].id == 0


class TestDissections:
    def test_fragmentation_pattern_matches_paper(self):
        """Section 5.4's grouping: (i) UDP A-record exchange entirely
        unfragmented; (ii) UDP AAAA / CoAP FETCH: query fits, response
        fragments; (iii) DTLS, CoAPS, OSCORE, GET: everything fragments."""
        udp = {d.message: d for d in dissect_transport("udp")}
        assert not udp["query"].fragmented
        assert not udp["response_a"].fragmented
        assert udp["response_aaaa"].fragmented

        coap = {d.message: d for d in dissect_transport("coap", Code.FETCH)}
        assert not coap["query"].fragmented
        assert coap["response_a"].fragmented

        for transport in ("dtls", "coaps", "oscore"):
            dissections = {d.message: d for d in dissect_transport(transport)}
            assert dissections["query"].fragmented, transport
            assert dissections["response_aaaa"].fragmented, transport

        get = {d.message: d for d in dissect_transport("coap", Code.GET)}
        assert get["query"].fragmented

    def test_get_base64_inflation(self):
        """GET inflates the query ≈1.5× over FETCH/POST (Section 5.3)."""
        fetch = {d.message: d for d in dissect_transport("coap", Code.FETCH)}
        get = {d.message: d for d in dissect_transport("coap", Code.GET)}
        ratio = get["query"].dns_bytes / fetch["query"].dns_bytes
        assert 1.3 <= ratio <= 1.6

    def test_oscore_overhead_below_dtls(self):
        """OSCORE's per-message security bytes < DTLS's 29-byte record
        overhead — why OSCORE wins Figure 6."""
        oscore = {d.message: d for d in dissect_transport("oscore")}
        coaps = {d.message: d for d in dissect_transport("coaps")}
        assert oscore["query"].security_bytes < coaps["query"].security_bytes
        assert (
            oscore["query"].udp_payload < coaps["query"].udp_payload
        )

    def test_echo_enlarges_oscore_query(self):
        plain = dissect_transport("oscore")[0]
        echo = dissect_transport("oscore", with_echo=True)[0]
        assert echo.udp_payload > plain.udp_payload

    def test_handshake_flight_count(self):
        flights = dtls_handshake_dissections()
        assert len(flights) == 10  # incl. both CCS and Finished pairs

    def test_frames_respect_pdu_limit(self):
        for transport, dissections in dissect_all().items():
            for dissection in dissections:
                for frame in dissection.frame_sizes:
                    assert frame <= FRAGMENTATION_LIMIT, (transport, dissection)

    def test_framing_bytes_positive(self):
        for dissection in dissect_transport("udp"):
            assert dissection.framing_bytes > 0

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError):
            dissect_transport("tcp")


def _run(spec: str):
    """The raw ExperimentResult of one Figure 2 run described by *spec*."""
    return run(RunSpec.from_spec(spec)).raw


class TestResolutionHarness:
    def test_config_validation(self):
        from repro.scenarios import Scenario

        with pytest.raises(ValueError):
            Scenario(transport="smtp")
        with pytest.raises(ValueError):
            Scenario(transport="udp", use_proxy=True)
        with pytest.raises(ValueError):
            RunSpec.from_spec("transport=udp,proxy=true")

    @pytest.mark.parametrize("transport", ["udp", "dtls", "coap", "coaps", "oscore"])
    def test_all_transports_resolve(self, transport):
        result = _run(f"transport={transport},queries=10,loss=0.05,seed=2")
        assert result.success_rate == 1.0
        assert len(result.resolution_times) == 10

    def test_queries_split_across_clients(self):
        result = _run("transport=coap,queries=10,seed=3")
        clients = {outcome.client for outcome in result.outcomes}
        assert clients == {"c1", "c2"}

    def test_proxy_reduces_bottleneck_frames(self):
        from dataclasses import replace

        from repro.scenarios import Scenario, ScenarioRunner, WorkloadSpec

        base = Scenario(
            transport="coap",
            workload=WorkloadSpec(
                num_queries=40, num_names=8, records_per_name=4, ttl=(2, 8)
            ),
            seed=4,
        )
        without = ScenarioRunner().run(base)
        with_proxy = ScenarioRunner().run(replace(base, use_proxy=True))
        assert with_proxy.link.frames_1hop < without.link.frames_1hop

    def test_client_events_collected(self):
        result = _run("transport=coap,queries=5,seed=5")
        transmissions = [e for e in result.client_events if e.kind == "transmission"]
        assert len(transmissions) == 5

    def test_deterministic_runs(self):
        a = _run("transport=coap,queries=8,loss=0.1,seed=6")
        b = _run("transport=coap,queries=8,loss=0.1,seed=6")
        assert a.resolution_times == b.resolution_times
        assert a.link.bytes_1hop == b.link.bytes_1hop

    def test_losses_produce_retransmissions(self):
        result = _run("transport=coap,queries=30,loss=0.35,retries=0,seed=7")
        retransmissions = [
            e for e in result.client_events if e.kind == "retransmission"
        ]
        assert retransmissions
