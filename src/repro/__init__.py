"""repro — a full-stack reproduction of "Securing Name Resolution in
the IoT: DNS over CoAP" (Lenders et al., CoNEXT 2023).

The package implements DNS over CoAP (DoC) and every substrate the
paper's evaluation depends on, in pure Python:

* ``repro.api``       — the unified façade: RunSpec → versioned Report,
                        and sweeps of them
* ``repro.doc``       — the DoC client/server, caching schemes, CBOR format
* ``repro.coap``      — CoAP incl. FETCH, block-wise, caches, proxy
* ``repro.oscore``    — OSCORE object security (RFC 8613)
* ``repro.dtls``      — DTLSv1.2 PSK with AES-128-CCM-8
* ``repro.dns``       — DNS wire format, caches, resolvers
* ``repro.lowpan``    — IEEE 802.15.4 + 6LoWPAN (IPHC, fragmentation)
* ``repro.net``       — IPv6/UDP reference encodings
* ``repro.sim``       — deterministic discrete-event simulator
* ``repro.stack``     — per-node stacks and multi-hop topologies
* ``repro.transports``— DNS transport baselines + the plugin registry
* ``repro.scenarios`` — declarative scenarios, presets, the runner
* ``repro.crypto``    — AES-CCM, HKDF, TLS 1.2 PRF (from scratch)
* ``repro.cborlib``   — CBOR (RFC 8949)
* ``repro.memmodel``  — firmware build-size model (Figures 5/8)
* ``repro.quicmodel`` — DNS-over-QUIC numerical comparison (Figure 9)
* ``repro.datasets``  — synthetic Section 3 datasets
* ``repro.experiments`` — the evaluation harness
* ``repro.live``      — wall-clock asyncio serving + load generation

Quickstart (the unified façade — one RunSpec, either substrate)::

    from repro.api import RunSpec, run

    report = run(RunSpec.from_spec("transport=coap,queries=20"))
    print(report.metrics["latency.p95_ms"])

Hands-on stack quickstart::

    from repro.sim import Simulator
    from repro.stack import build_figure2_topology
    from repro.dns import Zone, RecursiveResolver, RecordType
    from repro.doc import DocClient, DocServer

    sim = Simulator(seed=1)
    topo = build_figure2_topology(sim)
    zone = Zone(); zone.add_address("sensor.example.org", "2001:db8::1")
    server = DocServer(sim, topo.resolver_host.bind(5683),
                       RecursiveResolver(zone))
    client = DocClient(sim, topo.clients[0].bind(),
                       (topo.resolver_host.address, 5683))
    client.resolve("sensor.example.org", RecordType.AAAA,
                   lambda result, error: print(result.addresses))
    sim.run(until=10)
"""

__version__ = "1.0.0"
