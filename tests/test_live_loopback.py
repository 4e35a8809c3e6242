"""Loopback integration tests for the live serving runtime.

Every test binds real UDP sockets on 127.0.0.1 with ephemeral ports
(port 0) and drives full query→response round trips through the same
protocol stack the simulator runs. Hard wall-clock timeouts guard
every await so a wedged socket fails fast instead of hanging CI.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.dns.enums import RecordType
from repro.doc.client import DocError
from repro.live import (
    AsyncioClock,
    DocLiveServer,
    LiveResolver,
    LiveWiringError,
    REPORT_FIELDS,
    build_names,
    generate_load,
)
from repro.transports.dns_over_udp import DnsTimeoutError

#: Hard deadline for one whole test body (seconds, wall clock).
TEST_DEADLINE = 20.0

#: Per-query deadline used inside the tests.
QUERY_TIMEOUT = 5.0


def run(coro):
    """Run *coro* under the suite's wall-clock deadline."""
    async def bounded():
        return await asyncio.wait_for(coro, timeout=TEST_DEADLINE)

    return asyncio.run(bounded())


async def _round_trip(transport: str, **client_kwargs):
    server = DocLiveServer(transport=transport, port=0, num_names=8)
    async with server:
        resolver = LiveResolver(
            server.endpoint, transport=transport, **client_kwargs
        )
        async with resolver:
            results = []
            for name in server.names[:3]:
                results.append(
                    await resolver.resolve(name, timeout=QUERY_TIMEOUT)
                )
            return server, resolver, results


# -- full round trips per transport profile ------------------------------


def test_udp_round_trip():
    server, resolver, results = run(_round_trip("udp"))
    assert [r.addresses for r in results] == [
        ["2001:db8::1"], ["2001:db8::1:1"], ["2001:db8::2:1"]
    ]
    assert all(0 < r.rtt < QUERY_TIMEOUT for r in results)
    assert server.stats()["queries_handled"] == 3


def test_batched_io_active_and_counted():
    """The burst-drain reader path's counters surface in the server
    stats, and a clean loopback run refuses no send."""
    server, resolver, results = run(_round_trip("coap"))
    io = server.stats()["io"]
    assert io["recv_bursts"] >= 1
    assert io["largest_burst"] >= 1
    assert io["send_errors"] == 0
    assert len(results) == 3


def test_fastpath_cache_hits_on_repeat_queries():
    """Live serving enables the wire-level response cache by default:
    repeats of the same question replay the prebuilt template."""
    async def body():
        server = DocLiveServer(transport="coap", port=0, num_names=4)
        async with server:
            resolver = LiveResolver(server.endpoint, transport="coap")
            async with resolver:
                for _ in range(3):
                    await resolver.resolve(
                        server.names[0], timeout=QUERY_TIMEOUT
                    )
            return server.stats()

    stats = run(body())
    assert stats["queries_handled"] == 3
    assert stats["fastpath_misses"] == 1
    assert stats["fastpath_hits"] == 2


def test_oscore_round_trip():
    server, resolver, results = run(_round_trip("oscore"))
    assert [r.addresses for r in results] == [
        ["2001:db8::1"], ["2001:db8::1:1"], ["2001:db8::2:1"]
    ]
    # The server actually unprotected OSCORE requests (not plain CoAP).
    assert server.stats()["queries_handled"] == 3
    stats = resolver.stats()
    assert stats["resolutions_completed"] == 3
    assert stats["resolutions_failed"] == 0


def test_coap_round_trip_a_records():
    async def body():
        server = DocLiveServer(transport="coap", port=0, num_names=4)
        async with server:
            async with LiveResolver(server.endpoint, transport="coap") as r:
                return await r.resolve(
                    server.names[0], rtype=int(RecordType.A),
                    timeout=QUERY_TIMEOUT,
                )

    result = run(body())
    assert result.addresses == ["192.0.2.1"]


def test_coaps_round_trip_in_network_handshake():
    # CoAP over DTLS: the very first request triggers a real handshake
    # over loopback before the query flows.
    server, resolver, results = run(_round_trip("coaps"))
    assert all(r.addresses for r in results)


def test_dtls_round_trip():
    server, resolver, results = run(_round_trip("dtls"))
    assert all(r.addresses for r in results)


def test_oscore_secret_mismatch_fails():
    async def body():
        server = DocLiveServer(transport="oscore", port=0, num_names=4)
        async with server:
            resolver = LiveResolver(
                server.endpoint, transport="oscore", secret=b"wrong-secret"
            )
            async with resolver:
                try:
                    await resolver.resolve(server.names[0], timeout=2.0)
                except Exception as exc:
                    return exc
                return None

    error = run(body())
    assert error is not None


def test_unknown_live_transport_rejected():
    with pytest.raises(LiveWiringError):
        DocLiveServer(transport="quic")
    with pytest.raises(LiveWiringError):
        LiveResolver(("127.0.0.1", 5853), transport="quic")


def test_client_dns_cache_short_circuits():
    async def body():
        server = DocLiveServer(transport="coap", port=0, num_names=4)
        async with server:
            resolver = LiveResolver(
                server.endpoint, transport="coap",
                cache_placement="client-dns",
            )
            async with resolver:
                name = server.names[0]
                first = await resolver.resolve(name, timeout=QUERY_TIMEOUT)
                second = await resolver.resolve(name, timeout=QUERY_TIMEOUT)
                return first, second, server.stats()

    first, second, stats = run(body())
    assert not first.from_cache
    assert second.from_cache
    assert stats["queries_handled"] == 1  # one wire query, one cache hit


def test_client_dns_cache_short_circuits_udp():
    # The datagram baseline reports cache hits too (ResolutionResult
    # carries from_cache, not just DocResult).
    async def body():
        server = DocLiveServer(transport="udp", port=0, num_names=4)
        async with server:
            resolver = LiveResolver(
                server.endpoint, transport="udp",
                cache_placement="client-dns",
            )
            async with resolver:
                name = server.names[0]
                first = await resolver.resolve(name, timeout=QUERY_TIMEOUT)
                second = await resolver.resolve(name, timeout=QUERY_TIMEOUT)
                return first, second, server.stats()

    first, second, stats = run(body())
    assert (first.from_cache, second.from_cache) == (False, True)
    assert first.ok and second.ok
    assert stats["queries_handled"] == 1


# -- the AsyncioClock against the Clock protocol -------------------------


def test_asyncio_clock_satisfies_protocol():
    from repro.sim import Clock

    clock = AsyncioClock(seed=3)
    assert isinstance(clock, Clock)
    with pytest.raises(ValueError):
        clock.schedule(-1.0, lambda: None)


def test_asyncio_clock_timers_fire_and_cancel():
    async def body():
        clock = AsyncioClock(seed=3)
        fired = []
        clock.schedule(0.01, fired.append, "a")
        cancelled = clock.schedule(0.01, fired.append, "b")
        cancelled.cancel()
        await asyncio.sleep(0.05)
        before = clock.now
        await asyncio.sleep(0.01)
        assert clock.now > before
        return fired

    assert run(body()) == ["a"]


def test_asyncio_clock_rng_is_seeded():
    draws = [AsyncioClock(seed=11).rng.randrange(1 << 30) for _ in range(2)]
    assert draws[0] == draws[1]


def test_live_protocol_identifiers_replayable_under_seed():
    # MID/token/DTLS-random generation must draw from the injectable
    # clock RNG only — two stacks built under the same seed make the
    # same protocol choices (the --seed replayability contract).
    from repro.coap.endpoint import CoapClient
    from repro.dtls.session import DtlsSession

    class DummySocket:
        on_datagram = None

        def sendto(self, *args):  # pragma: no cover - never sent
            raise AssertionError("no traffic expected")

    def fingerprint():
        clock = AsyncioClock(seed=21)
        client = CoapClient(clock, DummySocket())
        session = DtlsSession("client", psk=b"k", rng=clock.rng)
        return (client._next_mid, client._next_token,
                session._client._random)

    assert fingerprint() == fingerprint()


# -- load generator smoke ------------------------------------------------


async def _coap_loadgen_report(duration: float):
    server = DocLiveServer(transport="coap", port=0, num_names=8)
    async with server:
        async with LiveResolver(server.endpoint, transport="coap") as r:
            return await generate_load(
                r, server.names, rate=100.0, duration=duration,
                timeout=QUERY_TIMEOUT, seed=5,
            )


def test_loadgen_report_schema():
    from repro.api.report import Report, report_from_loadgen

    report = run(_coap_loadgen_report(0.4))
    assert tuple(report.keys()) == REPORT_FIELDS
    assert report["queries"] > 0
    assert report["succeeded"] + report["failed"] == report["queries"]
    assert report["success_rate"] >= 0.95
    assert len(report["latencies_s"]) == report["succeeded"]
    latency = report_from_loadgen(report).metrics
    assert latency["latency.p50_ms"] <= latency["latency.p95_ms"] \
        <= latency["latency.p99_ms"] <= latency["latency.max_ms"]
    # What ``loadtest --json`` emits is the Report, as-is, and it reads
    # back.
    Report.from_json(
        json.loads(json.dumps(report_from_loadgen(report).to_json()))
    )


def _assert_rows_read_the_run_s_samples(report):
    """No row's p99 exceeds the Report's largest latency, and the rows'
    means, weighted by their successes, are the Report's mean."""
    from repro.api.report import report_from_loadgen

    rows = report["telemetry"]
    busy = [row for row in rows if row["succeeded"]]
    assert sum(row["succeeded"] for row in busy) == report["succeeded"] > 0
    metrics = report_from_loadgen(report).metrics
    assert max(
        row["latency_ms"]["p99"] for row in busy
    ) <= metrics["latency.max_ms"]
    weighted = sum(
        row["latency_ms"]["mean"] * row["succeeded"] for row in busy
    ) / report["succeeded"]
    # Each mean is rounded to a microsecond, the run's own once more.
    assert weighted == pytest.approx(metrics["latency.mean_ms"], abs=0.0011)


class _RaisingResolver:
    """A connected-resolver stand-in whose every query raises *error*."""

    transport_name = "coap"

    def __init__(self, error: Exception) -> None:
        self.error = error

    async def resolve(self, name, rtype, timeout=None):
        raise self.error

    def stats(self):
        return {}


def _one_failed_query(error: Exception):
    # Seed 1 at 1 query/s puts exactly one arrival inside the second.
    report = run(generate_load(
        _RaisingResolver(error), ["name.example"], rate=1.0, duration=1.0,
        seed=1,
    ))
    assert report["queries"] == report["failed"] == 1
    return report


@pytest.mark.parametrize("error, timeouts, rcode_failures", [
    # A DoC 4.xx/5.xx response (an OSCORE 4.00 rejection too) is an
    # rcode failure, as the simulator classifies it.
    (DocError("4.01 Unauthorized"), 0, 1),
    (DnsTimeoutError("no response"), 1, 0),
    (asyncio.TimeoutError(), 1, 0),
    (ValueError("neither"), 0, 0),
])
def test_loadgen_classifies_raised_errors_like_the_sim(
    error, timeouts, rcode_failures
):
    report = _one_failed_query(error)
    assert report["timeouts"] == timeouts
    assert report["rcode_failures"] == rcode_failures


def test_loadgen_rows_are_exact_over_the_run_s_own_samples():
    """The per-second rows and the run's Report read the same raw
    samples."""
    report = run(_coap_loadgen_report(1.2))
    assert len(report["telemetry"]) >= 2  # one timer tick and the closing one
    _assert_rows_read_the_run_s_samples(report)


def test_loadgen_report_is_exact_past_4096_successes():
    """A closed-loop run long enough to outgrow any 4 096-entry sample:
    every success's latency is kept, and the Report's ``latency.*`` is
    :func:`latency_metrics` over all of them."""
    from repro.api.report import latency_metrics, report_from_loadgen

    async def body():
        server = DocLiveServer(transport="udp", port=0, num_names=8)
        async with server:
            async with LiveResolver(server.endpoint, transport="udp") as r:
                for duration in (1.5, 3.0, 6.0):
                    report = await generate_load(
                        r, server.names, duration=duration, mode="closed",
                        concurrency=8, timeout=QUERY_TIMEOUT,
                    )
                    if report["succeeded"] > 4096:
                        return report
                return report

    report = asyncio.run(asyncio.wait_for(body(), timeout=60.0))
    assert report["succeeded"] > 4096
    assert len(report["latencies_s"]) == report["succeeded"]
    metrics = report_from_loadgen(report).metrics
    exact = latency_metrics(report["latencies_s"])
    for key in ("max_ms", "mean_ms", "p99_ms"):
        assert metrics[f"latency.{key}"] == exact[f"latency.{key}"], key
    assert metrics["latency.max_ms"] == round(
        max(report["latencies_s"]) * 1000, 3
    )
    _assert_rows_read_the_run_s_samples(report)


def test_loadgen_closed_loop():
    async def body():
        server = DocLiveServer(transport="udp", port=0, num_names=8)
        async with server:
            async with LiveResolver(server.endpoint, transport="udp") as r:
                return await generate_load(
                    r, server.names, duration=0.3, mode="closed",
                    concurrency=4, timeout=QUERY_TIMEOUT,
                )

    report = run(body())
    assert report["mode"] == "closed"
    assert report["concurrency"] == 4
    assert report["offered_rate_qps"] is None
    assert report["queries"] > 0
    assert report["success_rate"] == 1.0


def test_loadgen_zipf_skews_names():
    async def body():
        server = DocLiveServer(transport="udp", port=0, num_names=16)
        async with server:
            resolver = LiveResolver(
                server.endpoint, transport="udp",
                cache_placement="client-dns",
            )
            async with resolver:
                from repro.scenarios import WorkloadSpec

                return await generate_load(
                    resolver, server.names, rate=150.0, duration=0.4,
                    timeout=QUERY_TIMEOUT, seed=5,
                    workload=WorkloadSpec(zipf_alpha=1.2),
                )

    report = run(body())
    assert report["workload"]["zipf_alpha"] == 1.2
    # Zipf repetition + client DNS cache => some hits.
    assert report["cache"]["client_dns"]["hits"] > 0


def test_names_universe_is_deterministic():
    assert build_names(5) == build_names(5)
    assert build_names(5, dataset="ixp") == build_names(5, dataset="ixp")
    assert build_names(5, dataset="ixp") != build_names(5, dataset="ixp",
                                                        name_seed=8)
