"""Ablations of the design choices DESIGN.md calls out.

Each ablation flips one DoC design decision and measures what breaks,
quantifying *why* the paper's choices are what they are:

1. DNS ID zeroing (Section 4.2) — without it, equal queries never share
   a cache entry.
2. FETCH vs POST — POST forfeits every cache level.
3. Plain OSCORE vs cacheable OSCORE — fresh PIVs defeat proxy caching;
   deterministic requests restore it without giving up encryption.
4. EOL TTLs vs DoH-like — revalidation success under TTL churn.
"""

from dataclasses import replace

import pytest

from repro.coap import CoapCache, CoapMessage, Code, cache_key_for
from repro.coap.proxy import ForwardProxy
from repro.dns import RecordType, RecursiveResolver, Zone, make_query
from repro.doc import CachingScheme, DocClient, DocServer
from repro.oscore import SecurityContext
from repro.oscore.cacheable import derive_deterministic_context
from repro.scenarios import CachingSpec, Scenario, ScenarioRunner, WorkloadSpec
from repro.sim import Simulator
from repro.stack import build_figure2_topology

from conftest import print_rows


def test_ablation_dns_id_zeroing(benchmark):
    """Zeroed IDs share one cache entry; random IDs always miss."""

    def hit_rate(zero_id: bool, queries: int = 20) -> float:
        cache = CoapCache(capacity=8)
        hits = 0
        for index in range(queries):
            txid = 0 if zero_id else index + 1
            wire = make_query("device.example.org", RecordType.AAAA, txid=txid).encode()
            request = CoapMessage.request(Code.FETCH, "/dns", payload=wire)
            fresh, _ = cache.lookup(request, now=float(index))
            if fresh is not None:
                hits += 1
                continue
            response = request.make_response(Code.CONTENT, payload=b"resp")
            cache.store(request, response.with_uint_option(14, 300), now=float(index))
        return hits / queries

    zeroed = benchmark(hit_rate, True)
    randomised = hit_rate(False)
    print_rows(
        "Ablation — DNS ID zeroing (Section 4.2)",
        ["configuration", "CoAP cache hit rate"],
        [("ID = 0 (DoC)", f"{zeroed:.0%}"), ("random ID", f"{randomised:.0%}")],
    )
    assert zeroed > 0.9
    assert randomised == 0.0


def test_ablation_method_choice(benchmark):
    """FETCH allows proxy caching; POST forces every query upstream."""

    def run(method: Code):
        return ScenarioRunner().run(Scenario(
            transport="coap",
            method=method,
            workload=WorkloadSpec(
                num_queries=40, num_names=8, records_per_name=4, ttl=(30, 30)
            ),
            use_proxy=True,
            seed=13,
        ))

    fetch = benchmark(run, Code.FETCH)
    post = run(Code.POST)
    print_rows(
        "Ablation — request method",
        ["method", "proxy cache hits", "bytes@1hop"],
        [
            ("FETCH", fetch.proxy_cache_hits, fetch.link.bytes_1hop),
            ("POST", post.proxy_cache_hits, post.link.bytes_1hop),
        ],
    )
    assert fetch.proxy_cache_hits > 0
    assert post.proxy_cache_hits == 0
    assert fetch.link.bytes_1hop < post.link.bytes_1hop


def _oscore_proxy_run(cacheable: bool):
    sim = Simulator(seed=14)
    topo = build_figure2_topology(sim)
    zone = Zone()
    zone.add_address("svc.example.org", "2001:db8::7", ttl=300)
    resolver = RecursiveResolver(zone)
    if cacheable:
        server_ctx = derive_deterministic_context(b"grp", b"s", role="server")
        server = DocServer(sim, topo.resolver_host.bind(5683), resolver,
                           deterministic_context=server_ctx)
        contexts = [
            derive_deterministic_context(b"grp", b"s", role="client")
            for _ in topo.clients
        ]
    else:
        client_ctx, server_ctx = SecurityContext.pair(b"grp", b"s")
        server = DocServer(sim, topo.resolver_host.bind(5683), resolver,
                           oscore_context=server_ctx)
        contexts = [client_ctx, client_ctx]
    proxy = ForwardProxy(sim, topo.forwarder.bind(5683), topo.forwarder.bind(),
                         (topo.resolver_host.address, 5683))
    clients = [
        DocClient(sim, node.bind(), (topo.forwarder.address, 5683),
                  oscore_context=ctx, cacheable_oscore=cacheable)
        for node, ctx in zip(topo.clients, contexts)
    ]
    results = []
    for index in range(6):
        client = clients[index % 2]
        sim.schedule(index * 1.0, client.resolve, "svc.example.org",
                     RecordType.AAAA, lambda r, e: results.append((r, e)))
    sim.run(until=60)
    assert all(e is None for _, e in results), results
    return server.queries_handled, proxy.requests_served_from_cache


def test_ablation_cacheable_oscore(benchmark):
    """Plain OSCORE defeats the proxy cache (fresh PIVs); deterministic
    requests restore en-route caching — Table 1's OSCORE column."""
    plain = benchmark(_oscore_proxy_run, False)
    cacheable = _oscore_proxy_run(True)
    print_rows(
        "Ablation — OSCORE vs cacheable OSCORE (6 equal queries)",
        ["mode", "origin handled", "proxy cache hits"],
        [
            ("plain OSCORE", plain[0], plain[1]),
            ("cacheable OSCORE", cacheable[0], cacheable[1]),
        ],
    )
    assert plain[1] == 0 and plain[0] == 6
    assert cacheable[1] == 5 and cacheable[0] == 1


def test_ablation_caching_scheme_revalidation(benchmark):
    """EOL TTLs revalidations succeed under TTL churn; DoH-like fail."""

    def run(scheme: CachingScheme):
        result = ScenarioRunner().run(Scenario(
            transport="coap",
            workload=WorkloadSpec(
                num_queries=50, num_names=8, records_per_name=4, ttl=(2, 8)
            ),
            use_proxy=True,
            caching=CachingSpec(client_coap=True),
            scheme=scheme,
            seed=9,
        ))
        validations = sum(
            1 for e in result.client_events if e.kind == "validation"
        )
        return result, validations

    eol, eol_validations = benchmark(run, CachingScheme.EOL_TTLS)
    doh, doh_validations = run(CachingScheme.DOH_LIKE)
    print_rows(
        "Ablation — caching scheme under TTL churn",
        ["scheme", "client 2.03 revalidations", "bytes@1hop"],
        [
            ("EOL TTLs", eol_validations, eol.link.bytes_1hop),
            ("DoH-like", doh_validations, doh.link.bytes_1hop),
        ],
    )
    assert eol_validations > doh_validations
    assert eol.link.bytes_1hop < doh.link.bytes_1hop
