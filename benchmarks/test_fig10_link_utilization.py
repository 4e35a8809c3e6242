"""Figure 10: link utilisation across the caching configurations."""

from dataclasses import replace

import pytest

from repro.doc import CachingScheme
from repro.scenarios import (
    CachingSpec, Scenario, ScenarioRunner, TopologySpec, WorkloadSpec,
)

from conftest import print_rows

BASE = Scenario(
    transport="coap",
    topology=TopologySpec(loss=0.05),
    workload=WorkloadSpec(
        num_queries=50, num_names=8, records_per_name=4, ttl=(2, 8)
    ),
    seed=10,
)


def _grid():
    """All 8 scenarios × 2 schemes of Figure 10."""
    results = {}
    for use_proxy in (False, True):
        for client_coap in (False, True):
            for client_dns in (False, True):
                for scheme in (CachingScheme.DOH_LIKE, CachingScheme.EOL_TTLS):
                    scenario = replace(
                        BASE,
                        use_proxy=use_proxy,
                        caching=CachingSpec(
                            client_coap=client_coap, client_dns=client_dns
                        ),
                        scheme=scheme,
                    )
                    key = (use_proxy, client_coap, client_dns, scheme.value)
                    results[key] = ScenarioRunner().run(scenario)
    return results


@pytest.fixture(scope="module")
def grid():
    return _grid()


def test_fig10_link_utilization(grid, benchmark):
    benchmark(
        ScenarioRunner().run,
        replace(BASE, use_proxy=True, scheme=CachingScheme.EOL_TTLS),
    )

    rows = []
    for (use_proxy, ccache, dcache, scheme), result in grid.items():
        rows.append(
            (
                "proxy" if use_proxy else "opaque",
                "coap$" if ccache else "-",
                "dns$" if dcache else "-",
                scheme,
                result.link.frames_1hop,
                result.link.frames_2hop,
                result.link.bytes_1hop,
                result.link.bytes_2hop,
            )
        )
    print_rows(
        "Figure 10 — link utilisation (4-record AAAA, 50 queries)",
        ["forwarder", "client-coap", "client-dns", "scheme",
         "frames@1hop", "frames@2hop", "bytes@1hop", "bytes@2hop"],
        rows,
    )

    def bytes_1hop(use_proxy, ccache, dcache, scheme):
        return grid[(use_proxy, ccache, dcache, scheme)].link.bytes_1hop

    # CoAP caching reduces load (Section 6.2): a caching proxy moves
    # traffic off the bottleneck link compared to the opaque forwarder.
    for scheme in ("doh-like", "eol-ttls"):
        assert bytes_1hop(True, False, False, scheme) < bytes_1hop(
            False, False, False, scheme
        )

    # EOL TTLs beats DoH-like whenever caches revalidate.
    assert bytes_1hop(True, True, False, "eol-ttls") <= bytes_1hop(
        True, True, False, "doh-like"
    )
    assert bytes_1hop(True, False, False, "eol-ttls") <= bytes_1hop(
        True, False, False, "doh-like"
    )

    # A client CoAP cache also relieves the client links.
    eol_plain = grid[(False, False, False, "eol-ttls")].link.bytes_2hop
    eol_coap_cache = grid[(False, True, False, "eol-ttls")].link.bytes_2hop
    assert eol_coap_cache < eol_plain

    # The DNS client cache alone gives only little advantage.
    dns_only = grid[(False, False, True, "eol-ttls")].link.bytes_1hop
    nothing = grid[(False, False, False, "eol-ttls")].link.bytes_1hop
    assert dns_only <= nothing

    # All configurations stay fully successful.
    for result in grid.values():
        assert result.success_rate == 1.0
