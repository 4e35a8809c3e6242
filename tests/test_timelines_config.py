"""Tests for the Figure 11 timeline extractor and the Table 6 registry."""

import pytest

from repro.api import RunSpec, run
from repro.config import TABLE6, paper_defaults
from repro.experiments.timelines import (
    TimelinePoint,
    event_timeline,
    offsets_in_windows,
    retransmission_window_bands,
)


class TestTimelines:
    @pytest.fixture(scope="class")
    def lossy_result(self):
        return run(RunSpec.from_spec(
            "transport=coap,queries=30,loss=0.35,retries=0,seed=21"
        )).raw

    def test_points_extracted(self, lossy_result):
        points = event_timeline(lossy_result)
        kinds = {p.kind for p in points}
        assert "transmission" in kinds
        assert "retransmission" in kinds

    def test_transmissions_have_zero_offset(self, lossy_result):
        points = event_timeline(lossy_result)
        for point in points:
            if point.kind == "transmission":
                assert point.offset == 0.0

    def test_retransmission_offsets_positive(self, lossy_result):
        points = event_timeline(lossy_result)
        retransmissions = [p for p in points if p.kind == "retransmission"]
        assert retransmissions
        assert all(p.offset > 0 for p in retransmissions)

    def test_offsets_inside_backoff_windows(self, lossy_result):
        points = event_timeline(lossy_result)
        assert offsets_in_windows(points) >= 0.95

    def test_window_bands_figure11(self):
        bands = retransmission_window_bands()
        assert bands == [(2.0, 3.0), (6.0, 9.0), (14.0, 21.0), (30.0, 45.0)]

    def test_cache_hits_at_query_time(self):
        result = run(RunSpec.from_spec(
            "transport=coap,queries=20,names=2,cache=client-coap,seed=22"
        )).raw
        points = event_timeline(result)
        hits = [p for p in points if p.kind == "cache_hit"]
        assert hits
        assert all(p.offset == 0.0 for p in hits)

    def test_no_retransmissions_means_full_score(self):
        assert offsets_in_windows([]) == 1.0
        assert offsets_in_windows(
            [TimelinePoint(0.0, 0.0, "transmission")]
        ) == 1.0


class TestTable6:
    def test_all_paper_parameters_present(self):
        names = {parameter.riot_name for parameter in TABLE6}
        assert names == {
            "CONFIG_DNS_CACHE_SIZE",
            "CONFIG_DTLS_PEER_MAX",
            "CONFIG_GCOAP_DNS_BLOCK_SIZE",
            "CONFIG_GCOAP_PDU_BUF_SIZE",
            "CONFIG_GCOAP_REQ_WAITING_MAX",
            "CONFIG_GCOAP_RESEND_BUFS_MAX",
            "CONFIG_GNRC_IPV6_NIB_NUMOF",
            "CONFIG_GNRC_PKTBUF_SIZE",
            "CONFIG_NANOCOAP_CACHE_ENTRIES",
            "CONFIG_NANOCOAP_CACHE_RESPONSE_SIZE",
            "CONFIG_SOCK_DODTLS_RETRIES",
            "CONFIG_SOCK_DODTLS_TIMEOUT_MS",
        }

    def test_defaults_match_implementations(self):
        """The registry's claims hold against the actual defaults."""
        from repro.coap.cache import CoapCache
        from repro.coap.proxy import ForwardProxy
        from repro.coap.reliability import ReliabilityParams
        from repro.dns.cache import DNSCache

        defaults = paper_defaults()
        assert DNSCache().capacity == defaults["dns_cache_capacity"]
        assert CoapCache().capacity == defaults["coap_cache_capacity_client"]
        params = ReliabilityParams()
        assert params.max_retransmit == defaults["max_retransmit"]
        assert params.ack_timeout == defaults["ack_timeout"]
        import inspect

        signature = inspect.signature(ForwardProxy.__init__)
        assert signature.parameters["cache_entries"].default == (
            defaults["coap_cache_capacity_proxy"]
        )

    def test_defaults_match_experiment_harness(self):
        from repro.scenarios import NAME_TEMPLATE, WorkloadSpec

        defaults = paper_defaults()
        workload = WorkloadSpec()
        assert workload.query_rate == defaults["query_rate"]
        assert workload.num_queries == defaults["queries_per_run"]
        assert len(NAME_TEMPLATE.format(index=0)) == defaults["name_length"]
