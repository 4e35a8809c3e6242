"""Tests for sharded multi-worker serving and distributed load.

Covers the pure pieces in-process (seed derivation, stats merging,
latency pooling, the burst-drain error path) and the process
machinery against real forked workers on loopback (SO_REUSEPORT
sharding, the single-worker fallback, worker-crash handling, the
sharded ``repro.api`` path). Worker-pool tests bind ephemeral ports
only and always drain or terminate their pools.
"""

from __future__ import annotations

import asyncio
import errno
import multiprocessing
import os
import signal
import time

import pytest

from repro.live.transport import LiveTransportError, LiveUdpTransport
from repro.live.workers import (
    REUSEPORT_WARNING,
    LoadPool,
    ServePool,
    WorkerPoolError,
    derive_worker_seed,
    merge_server_stats,
    reuseport_supported,
    run_load,
)

#: Hard wall-clock deadline for pool start/drain operations (seconds).
POOL_DEADLINE = 30.0


# -- deterministic per-worker seeds ----------------------------------------


def test_worker_seed_is_deterministic():
    assert derive_worker_seed(1, 0) == derive_worker_seed(1, 0)
    assert derive_worker_seed(42, 3) == derive_worker_seed(42, 3)


def test_worker_seeds_are_distinct_across_workers_and_bases():
    seeds = {
        derive_worker_seed(base, index)
        for base in (1, 2, 1001, 2001)
        for index in range(8)
    }
    assert len(seeds) == 4 * 8


def test_worker_seeds_do_not_collide_with_repeat_spacing():
    # RunSpec.repeat_seeds spaces repetitions 1000 apart; a derived
    # worker seed landing on another repeat's base would correlate two
    # supposedly independent streams.
    bases = {1 + repetition * 1000 for repetition in range(100)}
    derived = {
        derive_worker_seed(base, index)
        for base in bases
        for index in range(4)
    }
    assert not derived & bases


def test_worker_seed_is_64_bit():
    for index in range(16):
        assert 0 <= derive_worker_seed(7, index) < (1 << 64)


# -- burst-drain error handling (satellite bugfix) -------------------------


class _ScriptedSocket:
    """A socket stub whose recvfrom plays back a scripted sequence."""

    def __init__(self, script):
        self._script = list(script)

    def recvfrom(self, _size):
        item = self._script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    def fileno(self):
        return 99


def test_drain_ready_continues_past_connection_reset():
    transport = LiveUdpTransport()
    # An ICMP port-unreachable error queued from an earlier send lands
    # mid-batch; the datagrams behind it must still be drained.
    transport._sock = _ScriptedSocket([
        (b"one", ("127.0.0.1", 1111)),
        ConnectionResetError(111, "refused"),
        (b"two", ("127.0.0.1", 2222)),
        OSError(101, "unreachable"),
        (b"three", ("127.0.0.1", 3333)),
        BlockingIOError(),
    ])
    seen = []
    transport.on_datagram = lambda host, port, data, meta: seen.append(data)
    transport._drain_ready()
    assert seen == [b"one", b"two", b"three"]
    assert transport.datagrams_received == 3
    assert transport.recv_errors == 2
    assert transport.recv_bursts == 1
    assert transport.largest_burst == 3


def test_drain_ready_stops_when_socket_closed_mid_batch():
    transport = LiveUdpTransport()

    class _ClosingSocket(_ScriptedSocket):
        def fileno(self):
            return -1  # closed under the callback

    transport._sock = _ClosingSocket([
        (b"one", ("127.0.0.1", 1111)),
        OSError(9, "bad fd"),
        (b"never", ("127.0.0.1", 2222)),
    ])
    seen = []
    transport.on_datagram = lambda host, port, data, meta: seen.append(data)
    transport._drain_ready()
    assert seen == [b"one"]
    assert transport.recv_errors == 1


def test_a_refused_send_is_counted_as_a_send_error():
    # EMSGSIZE, ENETUNREACH, EPERM …: the reply is lost, and the stats
    # say why a server sent fewer datagrams than it answered.
    class _RefusingSocket(_ScriptedSocket):
        def sendto(self, payload, addr):
            item = self._script.pop(0)
            if isinstance(item, Exception):
                raise item

    transport = LiveUdpTransport()
    transport._sock = _RefusingSocket([
        None,
        OSError(errno.EMSGSIZE, "message too long"),
        BlockingIOError(),
        OSError(errno.ENETUNREACH, "network unreachable"),
        None,
    ])
    for _ in range(5):
        transport.sendto(b"reply", "127.0.0.1", 5683)
    assert transport.datagrams_sent == 2
    assert transport.send_buffer_drops == 1
    assert transport.io_counters()["send_errors"] == 2
    assert transport.last_error.errno == errno.ENETUNREACH

    blocks = [_fake_server_stats(0, 10), _fake_server_stats(1, 30)]
    blocks[1]["io"]["send_errors"] = 2
    families = _pool_exposition(merge_server_stats(blocks))
    assert families["repro_pool_io_events_total"][
        (("kind", "send_error"),)
    ] == 2.0


def test_a_loop_without_add_reader_is_refused_and_its_socket_closed():
    class _NoReaderLoop(asyncio.SelectorEventLoop):
        def add_reader(self, fd, callback, *args):
            self.refused = fd
            raise NotImplementedError

    async def create():
        with pytest.raises(LiveTransportError, match="add_reader"):
            await LiveUdpTransport.create(port=0)
        with pytest.raises(OSError):
            os.fstat(loop.refused)  # closed, not leaked

    loop = _NoReaderLoop()
    try:
        loop.run_until_complete(create())
    finally:
        loop.close()


# -- capability detection --------------------------------------------------


def test_reuseport_probe_reports_a_bool():
    assert reuseport_supported() in (True, False)


def test_forced_unsupported_reuseport_falls_back_to_single_worker(
    monkeypatch,
):
    monkeypatch.setattr(
        "repro.live.workers.reuseport_supported", lambda host=None: False
    )
    pool = ServePool(workers=4, transport="udp", port=0, num_names=8)
    assert pool.workers == 1
    assert pool.requested_workers == 4
    assert pool.warning == REUSEPORT_WARNING
    pool.start()
    try:
        stats = pool.drain()
    finally:
        pool.terminate()
    assert stats["runtime"]["serve_workers"] == 1
    assert stats["runtime"]["warning"] == REUSEPORT_WARNING
    assert stats["workers_requested"] == 4
    assert pool.exit_code == 0


# -- stats merging (pure) --------------------------------------------------


def _fake_server_stats(worker, handled):
    return {
        "worker": worker,
        "transport": "udp",
        "endpoint": ["127.0.0.1", 5853],
        "names": 8,
        "queries_handled": handled,
        "datagrams_received": handled,
        "datagrams_sent": handled,
        "io": {
            "recv_bursts": handled, "largest_burst": 4, "recv_errors": 0,
            "send_buffer_drops": 0, "send_errors": 0, "reuse_port": True,
        },
        "resolver_cache": {"hits": handled - 1, "misses": 1,
                           "hit_ratio": 0.0},
    }


def test_merge_server_stats_sums_counters_and_keeps_workers():
    merged = merge_server_stats(
        [_fake_server_stats(0, 10), _fake_server_stats(1, 30)],
        requested=2,
    )
    assert merged["queries_handled"] == 40
    assert merged["datagrams_received"] == 40
    assert merged["io"]["recv_bursts"] == 40
    assert merged["io"]["largest_burst"] == 4
    assert merged["io"]["reuse_port"] is True
    assert merged["resolver_cache"]["hits"] == 38
    assert merged["resolver_cache"]["misses"] == 2
    assert merged["resolver_cache"]["hit_ratio"] == pytest.approx(38 / 40)
    assert [w["worker"] for w in merged["workers"]] == [0, 1]
    assert merged["runtime"]["serve_workers"] == 2
    assert merged["runtime"]["warning"] is None


def test_merge_server_stats_is_associative_over_workers_then_repeats():
    # Two repeats of a two-worker pool: merging each pool and then the
    # repeats must equal merging all four worker blocks at once.
    first = [_fake_server_stats(0, 10), _fake_server_stats(1, 30)]
    second = [_fake_server_stats(0, 5), _fake_server_stats(1, 7)]
    second[1]["io"]["largest_burst"] = 9
    stepwise = merge_server_stats([
        merge_server_stats(first, requested=2),
        merge_server_stats(second, requested=2),
    ])
    at_once = merge_server_stats(first + second, requested=2)
    assert stepwise == at_once
    assert stepwise["queries_handled"] == 52
    assert stepwise["io"]["recv_bursts"] == 52
    assert stepwise["io"]["largest_burst"] == 9  # a maximum, not a sum
    assert stepwise["resolver_cache"]["hit_ratio"] == pytest.approx(48 / 52)
    # Per-worker entries sum index by index across the repeats.
    assert [w["worker"] for w in stepwise["workers"]] == [0, 1]
    assert [w["queries_handled"] for w in stepwise["workers"]] == [15, 37]
    assert stepwise["runtime"]["serve_workers"] == 2
    # Merging one merged block changes nothing.
    assert merge_server_stats([at_once]) == at_once


def test_merge_server_stats_one_worker_repeats_sum_every_counter():
    # A self-served run restarts its one-worker pool per repeat; the
    # pooled block must sum *every* counter (fastpath and io included,
    # not only the four the Report shows — the first repeat's used to
    # be kept) and is a pool block like any other: one worker entry
    # that carries the same sums.
    blocks = []
    for handled in (10, 30):
        block = _fake_server_stats(0, handled)
        block["fastpath_hits"] = handled - 2
        block["fastpath_misses"] = 2
        blocks.append(merge_server_stats([block], requested=1))
    merged = merge_server_stats(blocks)
    for view in (merged, merged["workers"][0]):
        assert view["queries_handled"] == 40
        assert view["fastpath_hits"] == 36
        assert view["fastpath_misses"] == 4
        assert view["io"]["recv_bursts"] == 40
        assert view["resolver_cache"] == {
            "hits": 38, "misses": 2, "hit_ratio": pytest.approx(38 / 40),
        }
    assert [w["worker"] for w in merged["workers"]] == [0]
    assert merged["runtime"]["serve_workers"] == 1
    assert merged["workers_requested"] == 1
    assert merged["workers_failed"] == 0
    assert merged["failed_workers"] == []
    assert merge_server_stats([merge_server_stats(blocks[:1]), blocks[1]]) \
        == merged


def _leaves(block, prefix=""):
    """``(dotted path, value)`` of every numeric or boolean leaf."""
    for key, value in block.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        elif isinstance(value, (bool, int, float)):
            yield f"{prefix}{key}", value


@pytest.mark.parametrize("transport", ["udp", "coap"])
def test_every_stats_leaf_has_exactly_one_table_row(transport):
    # A counter cannot be added to stats() without saying how it merges
    # and how it is exposed.
    from repro.api.report import SERVER_STATS
    from repro.live.server import DocLiveServer

    async def started_block():
        async with DocLiveServer(
            transport=transport, port=0, num_names=4
        ) as server:
            return server.stats()

    leaves = dict(_leaves(asyncio.run(started_block())))
    assert {"queries_handled", "io.largest_burst",
            "resolver_cache.hit_ratio", "io.send_errors"} <= set(leaves)
    for path in leaves:
        rows = [
            row for row in SERVER_STATS
            if path == row.path or path.startswith(row.path + ".")
        ]
        assert len(rows) == 1, (path, rows)
    assert {row.merge for row in SERVER_STATS} == {
        "sum", "max", "any", "first", "ratio",
    }


def _pool_exposition(blocks):
    from repro.live.workers import stats_snapshot
    from repro.obs.metrics import parse_exposition, render_snapshot

    return parse_exposition(render_snapshot(stats_snapshot(blocks)))


def test_worker_series_sum_to_their_pool_twins():
    """The pool exposition contract CI asserts over HTTP, on two workers
    x two repeats of fake blocks: rendered and parsed back, every summed
    family's ``worker`` series add up to its ``repro_pool_*`` twin."""
    from repro.api.report import SERVER_STATS

    families = _pool_exposition(merge_server_stats([
        merge_server_stats(
            [_fake_server_stats(0, 10 + extra), _fake_server_stats(1, 30)],
            requested=2,
        )
        for extra in (0, 5)
    ]))
    summed = {row.family for row in SERVER_STATS if row.merge == "sum"}
    assert summed == {
        "queries_total", "datagrams_total", "fastpath_total",
        "validations_total", "resolver_cache_total", "io_events_total",
    }
    for family in summed | {"up"}:
        series = families[f"repro_{family}"]
        pool = families[f"repro_pool_{family}"]
        assert {dict(labels)["worker"] for labels in series} == {"0", "1"}
        for labels, total in pool.items():
            assert total == sum(
                value for series_labels, value in series.items()
                if set(labels) <= set(series_labels)
            ), (family, labels)
    assert families["repro_pool_queries_total"] == {(): 85.0}
    assert families["repro_queries_total"] == {
        (("worker", "0"),): 25.0, (("worker", "1"),): 60.0,
    }
    assert families["repro_pool_datagrams_total"] == {
        (("direction", "in"),): 85.0, (("direction", "out"),): 85.0,
    }
    # A udp block states no fast path: zero lookups, not no family.
    assert set(families["repro_pool_fastpath_total"].values()) == {0.0}


def test_pool_largest_burst_is_the_maximum_over_workers():
    blocks = [_fake_server_stats(0, 10), _fake_server_stats(1, 30)]
    blocks[1]["io"]["largest_burst"] = 9
    families = _pool_exposition(merge_server_stats(blocks))
    assert families["repro_io_largest_burst"] == {
        (("worker", "0"),): 4.0, (("worker", "1"),): 9.0,
    }
    assert families["repro_pool_io_largest_burst"] == {(): 9.0}  # not 13


def _fake_loadgen_report(
    worker, seed, queries, rtt_ms, *, elapsed_s=1.0, timeouts=0, cache=None,
    spread_ms=0.0, telemetry=None,
):
    succeeded = queries - timeouts
    return {
        "report_version": 2,
        "provenance": {},
        "mode": "open",
        "transport": "udp",
        "offered_rate_qps": 50.0,
        "concurrency": None,
        "duration_s": 1.0,
        "elapsed_s": elapsed_s,
        "queries": queries,
        "succeeded": succeeded,
        "failed": timeouts,
        "timeouts": timeouts,
        "rcode_failures": 0,
        "success_rate": succeeded / queries,
        "achieved_qps": round(succeeded / elapsed_s, 3),
        "cache": cache or {},
        "workload": {"names": 8, "arrival": "poisson", "burst_on": 1.0,
                     "burst_off": 4.0, "zipf_alpha": None},
        "seed": seed,
        "telemetry": telemetry or [],
        "latencies_s": [
            round(rtt_ms + spread_ms * (i % 7), 3) / 1000
            for i in range(succeeded)
        ],
        "worker": worker,
    }


def _fake_cache(hits, misses, stale_hits, validations):
    # Ratios are deliberately wrong: only the pooled object's count.
    return {"client-dns": {
        "hits": hits, "misses": misses, "stale_hits": stale_hits,
        "validations": validations, "validation_failures": 1,
        "hit_ratio": 0.0, "stale_ratio": 0.0, "validation_ratio": 0.0,
    }}


def _fake_row(t, queries, succeeded, ms):
    return {
        "t": t, "interval_s": 1.0, "queries": queries,
        "succeeded": succeeded, "failed": queries - succeeded,
        "timeouts": queries - succeeded, "qps": float(succeeded),
        "latency_ms": {"p50": ms, "p99": ms, "mean": ms},
    }


def _fake_two_by_two():
    """2 repeats x 2 load workers, unequal ``elapsed_s``, a client DNS
    cache, timeouts on worker 1, a timeline on the first repeat."""
    return [
        [
            _fake_loadgen_report(
                0, 111, 40, 2.0, elapsed_s=1.0, spread_ms=0.1,
                cache=_fake_cache(10, 30, 2, 1),
                telemetry=[_fake_row(1.0, 30, 30, 2.1),
                           _fake_row(1.0, 10, 10, 2.4)],
            ),
            _fake_loadgen_report(
                1, 222, 60, 4.0, elapsed_s=1.25, timeouts=3, spread_ms=0.2,
                cache=_fake_cache(20, 40, 4, 2),
                telemetry=[_fake_row(1.002, 50, 48, 4.2),
                           _fake_row(1.25, 10, 9, 4.9)],
            ),
        ],
        [
            _fake_loadgen_report(
                0, 333, 30, 3.0, elapsed_s=0.9, spread_ms=0.3,
                cache=_fake_cache(5, 25, 0, 0),
            ),
            _fake_loadgen_report(
                1, 444, 50, 5.0, elapsed_s=1.1, timeouts=1, spread_ms=0.05,
                cache=_fake_cache(15, 35, 6, 3),
            ),
        ],
    ]


#: ``Report.metrics`` of :func:`_fake_two_by_two`, produced at the parent
#: of the PR that made ``report_from_loadgen`` the one pooling pass: there
#: each repeat's workers were first merged into one loadgen dict
#: (``merge_loadgen_reports``, with the run's ``rate=100.0``) and the
#: Report was taken over the two merged dicts. The two per-worker
#: ``achieved_qps`` values are the mean over the repeats since the
#: Report vocabulary became one table; they were the sum before.
_TWO_BY_TWO_METRICS = {
    "queries.issued": 180,
    "queries.succeeded": 176,
    "queries.failed": 4,
    "queries.timeouts": 4,
    "queries.rcode_failures": 0,
    "queries.success_rate": 0.9777777777777777,
    "latency.p50_ms": 4.5,
    "latency.p95_ms": 5.25,
    "latency.p99_ms": 5.3,
    "latency.mean_ms": 4.096,
    "latency.max_ms": 5.3,
    "throughput.qps": 81.739,
    "cache.client_dns.hits": 50,
    "cache.client_dns.misses": 130,
    "cache.client_dns.stale_hits": 12,
    "cache.client_dns.validations": 6,
    "cache.client_dns.validation_failures": 4,
    "cache.client_dns.hit_ratio": 0.2604166666666667,
    "cache.client_dns.stale_ratio": 0.0625,
    "cache.client_dns.validation_ratio": 0.5,
    "live.mode": "open",
    "live.offered_rate_qps": 100.0,
    "live.concurrency": None,
    "live.elapsed_s": 2.35,
    "live.repeats": 2,
    "live.workers.load.count": 2,
    "live.workers.load.failed": 0,
    "live.workers.load.0.queries": 70,
    "live.workers.load.0.succeeded": 70,
    "live.workers.load.0.failed": 0,
    "live.workers.load.0.timeouts": 0,
    "live.workers.load.0.rcode_failures": 0,
    "live.workers.load.0.achieved_qps": 36.666,
    "live.workers.load.1.queries": 110,
    "live.workers.load.1.succeeded": 106,
    "live.workers.load.1.failed": 4,
    "live.workers.load.1.timeouts": 4,
    "live.workers.load.1.rcode_failures": 0,
    "live.workers.load.1.achieved_qps": 45.073,
}

#: The first repeat's merged timeline, from the same parent.
_FIRST_REPEAT_TELEMETRY = [
    {"t": 1.002, "interval_s": 1.0, "queries": 80, "succeeded": 78,
     "failed": 2, "timeouts": 2, "qps": 78.0,
     "latency_ms": {"p50": 3.392, "p99": 3.392, "mean": 3.392}},
    {"t": 1.25, "interval_s": 1.0, "queries": 20, "succeeded": 19,
     "failed": 1, "timeouts": 1, "qps": 19.0,
     "latency_ms": {"p50": 3.584, "p99": 3.584, "mean": 3.584}},
]


def test_two_by_two_report_is_the_banked_one_key_for_key():
    from repro.api.report import report_from_loadgen

    repeats = _fake_two_by_two()
    report = report_from_loadgen(repeats)
    assert list(report.metrics.items()) == list(_TWO_BY_TWO_METRICS.items())
    assert report.telemetry is None  # repeats restart the clock
    one = report_from_loadgen(repeats[:1])
    assert one.telemetry == _FIRST_REPEAT_TELEMETRY
    assert one.metrics["throughput.qps"] == 85.6
    assert one.metrics["live.elapsed_s"] == 1.25


def test_per_worker_throughput_adds_up_to_the_runs():
    """A worker's ``achieved_qps`` pools across repeats like
    ``throughput.qps`` does, as the mean over every repeat: summed over
    the workers, it is the run's throughput, not a multiple of it."""
    from repro.api.report import report_from_loadgen

    repeats = _fake_two_by_two()
    # Worker 1 delivered nothing in a third repeat: it counts 0 there.
    repeats.append([_fake_loadgen_report(0, 555, 20, 2.0, elapsed_s=0.8)])
    for run in (repeats[:2], repeats):
        metrics = report_from_loadgen(run).metrics
        per_worker = [
            metrics[f"live.workers.load.{index}.achieved_qps"]
            for index in (0, 1)
        ]
        assert abs(sum(per_worker) - metrics["throughput.qps"]) <= 0.001 * 2


def test_merge_loadgen_reports_sums_counters_and_throughput():
    from repro.api.report import report_from_loadgen

    metrics = report_from_loadgen([[
        _fake_loadgen_report(0, 111, 40, 2.0),
        _fake_loadgen_report(1, 222, 60, 4.0),
    ]]).metrics
    assert metrics["queries.issued"] == 100
    assert metrics["queries.succeeded"] == 100
    # Aggregate throughput is the sum (workers ran concurrently)...
    assert metrics["throughput.qps"] == pytest.approx(100.0)
    assert metrics["live.offered_rate_qps"] == 100.0
    # ...and the latency pools by sample.
    assert metrics["latency.mean_ms"] == pytest.approx(
        (40 * 2.0 + 60 * 4.0) / 100
    )
    assert metrics["latency.max_ms"] == 4.0
    assert metrics["live.workers.load.count"] == 2
    assert sum(
        metrics[f"live.workers.load.{index}.queries"] for index in (0, 1)
    ) == metrics["queries.issued"]


def test_offered_rate_of_three_shares_reads_whole():
    from repro.api.report import report_from_loadgen

    thirds = [
        dict(_fake_loadgen_report(index, index, 10, 2.0),
             offered_rate_qps=100.0 / 3)
        for index in range(3)
    ]
    assert report_from_loadgen(
        [thirds]
    ).metrics["live.offered_rate_qps"] == 100.0


def test_merge_loadgen_reports_rejects_empty():
    from repro.api.report import ReportError, report_from_loadgen

    with pytest.raises(ReportError):
        report_from_loadgen([])
    with pytest.raises(ReportError):
        report_from_loadgen([[]])


# -- forked pools on loopback ----------------------------------------------


needs_reuseport = pytest.mark.skipif(
    not reuseport_supported(), reason="SO_REUSEPORT unavailable"
)


def _load_config(endpoint, **overrides):
    """What ``run_load`` requires, for a short open-loop pass (UDP unless
    *overrides* names a transport)."""
    from repro.doc.caching import CachingScheme

    return dict(dict(
        endpoint=endpoint, transport="udp", scheme=CachingScheme.EOL_TTLS,
        timeout=5.0, mode="open", concurrency=8,
    ), **overrides)


@needs_reuseport
def test_sharded_serve_and_distributed_load_counters_balance():
    pool = ServePool(workers=2, transport="udp", port=0, num_names=16)
    endpoint = pool.start()
    try:
        reports, failed = run_load(
            _load_config(
                endpoint, rate=300.0, duration=0.5, num_names=16, seed=5
            ),
            2,
        )
        stats = pool.drain()
    finally:
        pool.terminate()
    assert failed == 0
    assert [report["worker"] for report in reports] == [0, 1]
    assert all(report["failed"] == 0 for report in reports)
    assert all(report["offered_rate_qps"] == 150.0 for report in reports)
    succeeded = sum(report["succeeded"] for report in reports)
    assert succeeded > 0
    # The serve side handled exactly what the load side issued.
    assert stats["queries_handled"] == succeeded
    assert sum(
        w.get("queries_handled", 0) for w in stats["workers"]
    ) == stats["queries_handled"]
    assert stats["runtime"]["reuseport"] is True
    assert pool.exit_code == 0


@needs_reuseport
def test_two_oscore_load_workers_lose_nothing_to_replay():
    # Each load worker is its own OSCORE client (Sender ID 0x10 + its
    # index), so the server keeps a replay window per worker: both start
    # their sequences at 0, and every query of both is served. (With one
    # shared Sender ID the second worker's requests were replays.)
    pool = ServePool(workers=1, transport="oscore", port=0, num_names=8)
    endpoint = pool.start()
    try:
        reports, failed = run_load(
            _load_config(
                endpoint, transport="oscore", rate=60.0, duration=0.5,
                num_names=8, seed=4,
            ),
            2,
        )
        stats = pool.drain()
    finally:
        pool.terminate()
    assert failed == 0
    assert [report["failed"] for report in reports] == [0, 0]
    assert all(report["succeeded"] > 0 for report in reports)
    assert stats["queries_handled"] == sum(report["succeeded"] for report in reports)


@needs_reuseport
def test_distributed_load_worker_seeds_derive_from_base():
    pool = ServePool(workers=1, transport="udp", port=0, num_names=8)
    endpoint = pool.start()
    try:
        reports, _failed = run_load(
            _load_config(
                endpoint, rate=120.0, duration=0.3, num_names=8, seed=9
            ),
            2,
        )
    finally:
        pool.drain()
        pool.terminate()
    assert [report["seed"] for report in reports] == [
        derive_worker_seed(9, 0), derive_worker_seed(9, 1),
    ]


@needs_reuseport
def test_unequal_load_workers_pool_to_the_p99_of_every_sample():
    """Two forked generators with unequal success counts (closed-loop
    slots split 2 + 1): the Report's p99 is the p99 over every sample
    of both, not an equal-weight blend of the two workers'."""
    from repro.api.report import latency_metrics, report_from_loadgen

    pool = ServePool(workers=1, transport="udp", port=0, num_names=8)
    endpoint = pool.start()
    try:
        reports, failed = run_load(
            dict(
                _load_config(endpoint, rate=1.0, duration=0.5, num_names=8,
                             seed=3),
                mode="closed", concurrency=3,
            ),
            2,
        )
    finally:
        pool.drain()
        pool.terminate()
    assert failed == 0
    counts = [len(report["latencies_s"]) for report in reports]
    assert counts == [report["succeeded"] for report in reports]
    assert counts[0] != counts[1]
    every = [rtt for report in reports for rtt in report["latencies_s"]]
    pooled = report_from_loadgen([reports]).metrics
    exact = latency_metrics(every)
    for key in ("p50_ms", "p99_ms", "mean_ms", "max_ms"):
        assert pooled[f"latency.{key}"] == exact[f"latency.{key}"], key


@needs_reuseport
def test_worker_crash_surfaces_in_exit_code_and_partial_stats():
    pool = ServePool(workers=2, transport="udp", port=0, num_names=8)
    pool.start()
    try:
        victim, = [proc for proc in multiprocessing.active_children()
                   if proc.name == "repro-serve-1"]
        os.kill(victim.pid, signal.SIGKILL)
        deadline = time.monotonic() + POOL_DEADLINE
        while victim.is_alive() and time.monotonic() < deadline:
            time.sleep(0.02)
        stats = pool.drain()
    finally:
        pool.terminate()
    assert pool.exit_code == 1
    assert pool.failed_workers == [1]
    assert stats["workers_failed"] == 1
    # The surviving worker's stats still merged (partial-stats contract).
    assert len(stats["workers"]) == 1
    assert stats["workers"][0]["worker"] == 0


def test_serve_pool_start_failure_carries_the_workers_reason():
    import socket

    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as holder:
        holder.bind(("127.0.0.1", 0))
        pool = ServePool(
            workers=1, transport="udp", port=holder.getsockname()[1],
            num_names=8,
        )
        with pytest.raises(
            WorkerPoolError,
            match=r"serve worker 0 failed to start: OSError: .*in use",
        ):
            pool.start()
    assert not any(proc.name.startswith("repro-serve-")
                   for proc in multiprocessing.active_children())


def _load_worker_that_fails(index, config, conn):
    if not config.get("silent"):
        conn.send(("error", f"ValueError: worker {index} cannot"))
    raise SystemExit(1)


def test_load_pool_failure_carries_a_workers_reason():
    pool = LoadPool(_load_worker_that_fails, [{}, {}])
    with pytest.raises(
        WorkerPoolError,
        match="every load worker failed: ValueError: worker 0 cannot",
    ):
        pool.run()
    assert pool.failed_workers == [0, 1]
    assert pool.exit_code == 1


def test_load_pool_failure_names_the_first_worker_that_said_why():
    pool = LoadPool(_load_worker_that_fails, [{"silent": True}, {}])
    with pytest.raises(
        WorkerPoolError,
        match="every load worker failed: ValueError: worker 1 cannot",
    ):
        pool.run()
    assert pool.failed_workers == [0, 1]


def test_serve_pool_rejects_zero_workers():
    with pytest.raises(WorkerPoolError):
        ServePool(workers=0, transport="udp", port=0)


# -- the repro.api façade --------------------------------------------------


def test_runspec_parses_worker_keys():
    from repro.api import RunSpec

    spec = RunSpec.from_spec(
        "substrate=live,transport=udp,serve_workers=3,load_workers=2"
    )
    assert spec.live.serve_workers == 3
    assert spec.live.load_workers == 2
    assert spec.to_dict()["live"]["serve_workers"] == 3
    assert spec.to_dict()["live"]["load_workers"] == 2


def test_runspec_worker_defaults_stay_single():
    from repro.api import RunSpec

    spec = RunSpec.from_spec("substrate=live,transport=udp")
    assert spec.live.serve_workers == 1
    assert spec.live.load_workers == 1


def test_runspec_rejects_bad_worker_counts():
    from repro.api import ApiError, RunSpec

    with pytest.raises(ApiError):
        RunSpec.from_spec("substrate=live,transport=udp,serve_workers=0")
    with pytest.raises(ApiError):
        RunSpec.from_spec("substrate=live,transport=udp,load_workers=0")
    with pytest.raises(ApiError):
        # Sharding applies to the self-served pairing only.
        RunSpec.from_spec(
            "substrate=live,transport=udp,serve_workers=2,"
            "live-host=192.0.2.1"
        )


@needs_reuseport
def test_sharded_api_run_emits_worker_metrics_that_sum():
    from repro.api import run

    report = run(
        "substrate=live,transport=udp,serve_workers=2,load_workers=2,"
        "queries=60,rate=240,names=16"
    )
    metrics = report.metrics
    assert metrics["live.workers.load.count"] == 2
    assert metrics["live.workers.serve.count"] == 2
    assert metrics["live.workers.reuseport"] is True
    assert metrics["live.workers.warning"] is None
    load_sum = sum(
        value for key, value in metrics.items()
        if key.startswith("live.workers.load.") and key.endswith(".queries")
    )
    assert load_sum == metrics["queries.issued"]
    serve_sum = sum(
        value for key, value in metrics.items()
        if key.startswith("live.workers.serve.")
        and key.endswith(".queries_handled")
    )
    assert serve_sum == metrics["live.server.queries_handled"]


#: ``sorted(report.metrics)`` of a live run, banked on the parent of the
#: PR that folded the two serve+load pairings into one: what every run
#: carries, what the serve pool adds (for any worker count, one
#: included), and what a sharded load side adds.
_COMMON_KEYS = [
    "cache.client_coap.hit_ratio", "cache.client_coap.hits",
    "cache.client_coap.misses", "cache.client_coap.stale_hits",
    "cache.client_coap.stale_ratio", "cache.client_coap.validation_failures",
    "cache.client_coap.validation_ratio", "cache.client_coap.validations",
    "latency.max_ms", "latency.mean_ms", "latency.p50_ms", "latency.p95_ms",
    "latency.p99_ms", "live.cache.resolver.hit_ratio",
    "live.cache.resolver.hits", "live.cache.resolver.misses",
    "live.concurrency", "live.elapsed_s", "live.mode",
    "live.offered_rate_qps", "live.repeats",
    "live.server.datagrams_received", "live.server.datagrams_sent",
    "live.server.queries_handled", "live.server.validations_sent",
    "queries.failed", "queries.issued", "queries.rcode_failures",
    "queries.succeeded", "queries.success_rate", "queries.timeouts",
    "throughput.qps",
]
_POOL_KEYS = [
    "live.workers.reuseport", "live.workers.serve.count",
    "live.workers.serve.failed", "live.workers.serve.failed_workers",
    "live.workers.warning",
]
_PER_SERVE_WORKER = ("datagrams_received", "datagrams_sent", "queries_handled")
_PER_LOAD_WORKER = ("achieved_qps", "failed", "queries", "rcode_failures",
                    "succeeded", "timeouts")


def _banked_live_keys(serve_workers, load_workers):
    keys = _COMMON_KEYS + _POOL_KEYS
    keys += [
        f"live.workers.serve.{index}.{name}"
        for index in range(serve_workers) for name in _PER_SERVE_WORKER
    ]
    if load_workers > 1:
        keys += ["live.workers.load.count", "live.workers.load.failed"]
        keys += [
            f"live.workers.load.{index}.{name}"
            for index in range(load_workers) for name in _PER_LOAD_WORKER
        ]
    return sorted(keys)


@needs_reuseport
@pytest.mark.parametrize(
    "serve_workers,load_workers", [(1, 1), (2, 1), (1, 2), (2, 2)]
)
def test_live_report_key_set_is_stable_per_worker_combination(
    serve_workers, load_workers
):
    from repro.api import run

    for repeats in (1, 2):
        report = run(
            f"substrate=live,transport=coap,cache=client-coap,"
            f"serve_workers={serve_workers},load_workers={load_workers},"
            f"queries=40,rate=200,names=8,repeats={repeats}"
        )
        assert sorted(report.metrics) == _banked_live_keys(
            serve_workers, load_workers
        )
        assert report.metrics["queries.succeeded"] > 0


def test_single_worker_api_run_reports_its_one_pool_worker():
    from repro.api import run

    report = run(
        "substrate=live,transport=udp,queries=20,rate=200,names=8"
    )
    metrics = report.metrics
    assert metrics["live.workers.serve.count"] == 1
    assert metrics["live.workers.serve.failed"] == 0
    assert (
        metrics["live.workers.serve.0.queries_handled"]
        == metrics["live.server.queries_handled"]
        >= metrics["queries.succeeded"] > 0
    )
    # A lone worker owns its port outright.
    assert metrics["live.workers.reuseport"] is False
    assert metrics["live.workers.warning"] is None
    assert not any(
        key.startswith("live.workers.load.") for key in metrics
    )
