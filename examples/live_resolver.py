#!/usr/bin/env python3
"""Live serving end-to-end on localhost: real sockets, no simulator.

Stands up a :class:`repro.live.DocLiveServer` on an ephemeral loopback
port, resolves a few names over plain CoAP *and* OSCORE with the async
:class:`repro.live.LiveResolver`, then runs a short open-loop load test
and prints the latency report — the same stack the simulator drives,
promoted onto the wall clock.

Run:  python examples/live_resolver.py
"""

import asyncio

from repro.api import report_from_loadgen
from repro.live import DocLiveServer, LiveResolver, generate_load


async def main() -> None:
    # One server process-worth of state: a zone over 16 deterministic
    # names, DNS over CoAP on an ephemeral 127.0.0.1 port.
    server = DocLiveServer(transport="coap", port=0, num_names=16)
    async with server:
        host, port = server.endpoint
        print(f"live DoC server on {host}:{port} "
              f"({len(server.names)} names)\n")

        # Plain CoAP resolutions.
        async with LiveResolver(server.endpoint, transport="coap") as doc:
            for name in server.names[:3]:
                result = await doc.resolve(name, timeout=5.0)
                print(f"  coap   {name:28s} -> {result.addresses[0]:16s} "
                      f"{result.rtt * 1000:6.2f} ms")

    # The OSCORE profile end-to-end: both sides derive matching
    # security contexts from the shared master secret. One resolver
    # session = one OSCORE sender sequence, so the demo resolutions
    # and the load test share the session (a second resolver with the
    # same secret would restart the sequence and trip the server's
    # replay window — by design).
    server = DocLiveServer(transport="oscore", port=0, num_names=16)
    async with server:
        resolver = LiveResolver(
            server.endpoint, transport="oscore",
            cache_placement="client-dns",
        )
        async with resolver:
            for name in server.names[:3]:
                result = await resolver.resolve(name, timeout=5.0)
                print(f"  oscore {name:28s} -> {result.addresses[0]:16s} "
                      f"{result.rtt * 1000:6.2f} ms")
            print()

            # A one-second open-loop load test against the OSCORE
            # server, Zipf-popular names hitting the client DNS cache.
            # report_from_loadgen turns the load generator's dict into
            # the unified repro.api Report — the same document
            # `repro run ...,substrate=live` emits.
            from repro.scenarios import WorkloadSpec

            report = report_from_loadgen(await generate_load(
                resolver, server.names, rate=100.0, duration=1.0,
                timeout=5.0, workload=WorkloadSpec(zipf_alpha=1.0),
            ))
        metrics = report.metrics
        print(f"loadtest: {metrics['queries.issued']} queries, "
              f"{metrics['queries.success_rate']:.0%} ok, "
              f"{metrics['throughput.qps']:.0f} qps")
        print(f"latency:  p50 {metrics['latency.p50_ms']:.2f} ms   "
              f"p95 {metrics['latency.p95_ms']:.2f} ms   "
              f"p99 {metrics['latency.p99_ms']:.2f} ms")
        hit_ratio = metrics.get("cache.client_dns.hit_ratio")
        if hit_ratio is not None:
            print(f"client DNS cache hit ratio: {hit_ratio:.0%}")


if __name__ == "__main__":
    asyncio.run(main())
