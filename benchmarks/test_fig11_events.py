"""Figure 11: CoAP (re-)transmission and cache events at the clients."""

from dataclasses import replace

import pytest

from repro.coap.codes import Code
from repro.coap.reliability import ReliabilityParams
from repro.doc import CachingScheme
from repro.scenarios import (
    CachingSpec, Scenario, ScenarioRunner, TopologySpec, WorkloadSpec,
)

from conftest import print_rows

BASE = Scenario(
    transport="coap",
    topology=TopologySpec(loss=0.3, l2_retries=1),
    workload=WorkloadSpec(
        num_queries=50, num_names=8, records_per_name=4, ttl=(2, 8)
    ),
    seed=11,
    caching=CachingSpec(client_coap=True),
)

#: The blue scenarios of Figure 10, by method (Figure 11's grid).
SCENARIOS = {
    "opaque": dict(use_proxy=False, scheme=CachingScheme.EOL_TTLS),
    "doh-like+proxy": dict(use_proxy=True, scheme=CachingScheme.DOH_LIKE),
    "eol-ttls+proxy": dict(use_proxy=True, scheme=CachingScheme.EOL_TTLS),
}


def _run(scenario: str, method: Code):
    config = replace(BASE, method=method, **SCENARIOS[scenario])
    if method == Code.POST:
        # POST responses are not cacheable; client CoAP caches are moot.
        config = replace(config, caching=CachingSpec())
    return ScenarioRunner().run(config)


@pytest.fixture(scope="module")
def runs():
    return {
        (scenario, method.name): _run(scenario, method)
        for scenario in SCENARIOS
        for method in (Code.FETCH, Code.GET, Code.POST)
    }


def test_fig11_client_events(runs, benchmark):
    benchmark(_run, "eol-ttls+proxy", Code.FETCH)

    params = ReliabilityParams()
    rows = []
    for (scenario, method), result in runs.items():
        events = result.client_events
        counts = {}
        for event in events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        rows.append(
            (
                scenario,
                method,
                counts.get("transmission", 0),
                counts.get("retransmission", 0),
                counts.get("cache_hit", 0),
                counts.get("validation", 0) + result.proxy_revalidations,
                f"{result.success_rate:.2f}",
            )
        )
    print_rows(
        "Figure 11 — client CoAP events",
        ["scenario", "method", "transmissions", "retransmissions",
         "cache hits", "validations", "success"],
        rows,
    )

    def retransmissions(scenario, method):
        return sum(
            1 for e in runs[(scenario, method)].client_events
            if e.kind == "retransmission"
        )

    # "In the opaque forwarder scenario, we observe about 50% more
    # retransmissions ... compared to any of the caching approaches."
    for method in ("FETCH", "GET"):
        opaque = retransmissions("opaque", method)
        cached = retransmissions("eol-ttls+proxy", method)
        assert opaque > cached

    # Caching schemes produce client cache hits with FETCH/GET, POST
    # cannot use response caches (degrades to opaque level).
    fetch_hits = sum(
        1 for e in runs[("eol-ttls+proxy", "FETCH")].client_events
        if e.kind == "cache_hit"
    )
    post_hits = sum(
        1 for e in runs[("eol-ttls+proxy", "POST")].client_events
        if e.kind == "cache_hit"
    )
    assert fetch_hits > 0
    assert post_hits == 0

    # Retransmission offsets scatter inside the §4.2 windows (the gray
    # regions of Figure 11).
    for result in runs.values():
        starts = {}
        for event in result.client_events:
            if event.kind == "transmission":
                starts[(event.token, event.mid)] = event.time
        for event in result.client_events:
            if event.kind != "retransmission":
                continue
            start = starts.get((event.token, event.mid))
            if start is None:
                continue
            offset = event.time - start
            low1, _ = params.retransmission_window(1)
            _, high4 = params.retransmission_window(4)
            assert low1 * 0.9 <= offset <= high4 * 1.1
