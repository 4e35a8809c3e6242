"""Tests for the repro.obs observability core.

Covers the metrics registry (instrument semantics, exposition
rendering, parse round-trips), histogram
quantile estimation against exact percentiles and the live-path
``LatencyReservoir`` on a 20k-sample distribution, the per-second
telemetry sampler and timeline merging, the structured JSON logger,
the /metrics + /healthz listener thread, and the schema contract
between ``SNAPSHOT_SCHEMA`` and ``tests/report_schema.json``.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import random

import pytest

from repro.api.schema import ValidationError, validate
from repro.live.reservoir import LatencyReservoir
from repro.obs.http import ObsHttpThread
from repro.obs.log import JsonLogger, configure, get_logger
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    parse_exposition,
    render_snapshot,
)
from repro.obs.telemetry import (
    LATENCY_SECONDS,
    QUERIES_TOTAL,
    RESPONSES_TOTAL,
    SNAPSHOT_SCHEMA,
    TelemetrySampler,
    format_snapshot,
    merge_timelines,
    quantile_from_buckets,
    run_sampler,
    timeline_from_outcomes,
    validate_snapshot,
)

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "report_schema.json")


# -- registry instruments --------------------------------------------------


def test_counter_fast_path_and_family_total():
    registry = MetricsRegistry()
    responses = registry.counter(
        RESPONSES_TOTAL, "responses", labels=("result",)
    )
    ok = responses.labels(result="ok")
    timeout = responses.labels(result="timeout")
    for _ in range(10):
        ok.inc()
    timeout.inc(3)
    assert ok.value == 10
    assert timeout.value == 3
    assert responses.value == 13
    # The same label set resolves to the same child object.
    assert responses.labels(result="ok") is ok


def test_label_validation_rejects_wrong_names():
    registry = MetricsRegistry()
    family = registry.counter("x_total", labels=("result",))
    with pytest.raises(ValueError):
        family.labels(direction="in")
    with pytest.raises(ValueError):
        family.labels()


def test_reregistration_returns_same_family_and_checks_kind():
    registry = MetricsRegistry()
    first = registry.counter("dup_total")
    assert registry.counter("dup_total") is first
    with pytest.raises(ValueError):
        registry.histogram("dup_total")


def test_default_latency_buckets_shape():
    # Four per decade, 100 µs up to 10 s, strictly increasing.
    assert len(DEFAULT_LATENCY_BUCKETS) == 21
    assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-4)
    assert DEFAULT_LATENCY_BUCKETS[-1] == pytest.approx(10.0)
    assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


def test_histogram_le_boundary_is_inclusive():
    registry = MetricsRegistry()
    hist = registry.histogram("h_seconds", buckets=(0.001, 0.01)).labels()
    hist.observe(0.001)  # exactly the first bound -> first bucket
    hist.observe(0.0011)  # just above -> second bucket
    hist.observe(5.0)  # beyond all bounds -> overflow
    assert hist.counts == [1, 1, 1]
    assert hist.count == 3


# -- histogram quantiles vs exact vs reservoir -----------------------------


def test_histogram_quantiles_track_exact_and_reservoir():
    """On 20k lognormal-ish samples the bucket estimate must stay within
    one bucket width of the exact quantile, and the LatencyReservoir
    (which holds every sample below capacity-saturation) must agree
    with exact to float precision."""
    rng = random.Random(42)
    samples = [min(9.9, 0.0005 * rng.lognormvariate(0.0, 1.0))
               for _ in range(20_000)]

    registry = MetricsRegistry()
    hist = registry.histogram(LATENCY_SECONDS).labels()
    reservoir = LatencyReservoir(capacity=20_000, seed=1)
    for s in samples:
        hist.observe(s)
        reservoir.add(s)

    ordered = sorted(samples)
    for q, pct in ((0.50, 50), (0.95, 95), (0.99, 99)):
        exact = ordered[min(int(q * len(ordered)), len(ordered) - 1)]
        estimate = quantile_from_buckets(
            DEFAULT_LATENCY_BUCKETS, hist.counts, q
        )
        held = reservoir.percentile(pct)
        # Log-spaced buckets: the estimate lands within the winning
        # bucket, i.e. within a factor of 10**(1/4) of exact.
        assert estimate is not None
        assert exact / 1.9 <= estimate <= exact * 1.9, (q, exact, estimate)
        # Unsaturated reservoir == full sample set, so exact-ish.
        assert held == pytest.approx(exact, rel=0.01)
    assert hist.count == reservoir.count == 20_000
    assert hist.sum == pytest.approx(sum(samples))


def test_quantile_from_buckets_edges():
    assert quantile_from_buckets((0.1, 1.0), [0, 0, 0], 0.5) is None
    # All mass in overflow reports the last bound, not beyond.
    assert quantile_from_buckets((0.1, 1.0), [0, 0, 7], 0.5) == 1.0
    # Single bucket interpolates between the bounds.
    est = quantile_from_buckets((0.1, 1.0), [0, 10, 0], 0.5)
    assert 0.1 <= est <= 1.0


# -- exposition rendering --------------------------------------------------


GOLDEN_EXPOSITION = """\
# HELP demo_latency_seconds latency
# TYPE demo_latency_seconds histogram
demo_latency_seconds_bucket{le="0.001"} 1
demo_latency_seconds_bucket{le="0.1"} 3
demo_latency_seconds_bucket{le="+Inf"} 4
demo_latency_seconds_count 4
demo_latency_seconds_sum 1.153
# HELP demo_queries_total queries handled
# TYPE demo_queries_total counter
demo_queries_total{result="error"} 2
demo_queries_total{result="ok"} 40
# HELP demo_up up flag
# TYPE demo_up gauge
demo_up 1
"""


def test_prometheus_exposition_golden():
    registry = MetricsRegistry()
    queries = registry.counter(
        "demo_queries_total", "queries handled", labels=("result",)
    )
    queries.labels(result="ok").inc(40)
    queries.labels(result="error").inc(2)
    hist = registry.histogram(
        "demo_latency_seconds", "latency", buckets=(0.001, 0.1)
    ).labels()
    for value in (0.0005, 0.002, 0.1, 1.0505):
        hist.observe(value)
    # A gauge is a snapshot entry only (the serve pool builds its own).
    snapshot = registry.snapshot()
    snapshot["demo_up"] = {
        "kind": "gauge", "help": "up flag", "samples": [[{}, 1]],
    }
    assert render_snapshot(snapshot) == GOLDEN_EXPOSITION


def test_exposition_label_escaping_round_trip():
    registry = MetricsRegistry()
    family = registry.counter("esc_total", labels=("name",))
    tricky = 'a"b\\c\nd'
    family.labels(name=tricky).inc(5)
    text = registry.render()
    parsed = parse_exposition(text)
    assert parsed["esc_total"][(("name", tricky),)] == 5.0


def test_parse_exposition_round_trip_histogram():
    registry = MetricsRegistry()
    hist = registry.histogram(
        LATENCY_SECONDS, "latency", labels=("worker",)
    )
    child = hist.labels(worker="0")
    for value in (0.0002, 0.003, 0.05, 2.0):
        child.observe(value)
    parsed = parse_exposition(registry.render())
    buckets = parsed[f"{LATENCY_SECONDS}_bucket"]
    inf_key = (("le", "+Inf"), ("worker", "0"))
    assert buckets[inf_key] == 4.0
    # Cumulative counts are monotone in le.
    ordered = sorted(
        (
            (float("inf") if dict(k)["le"] == "+Inf" else float(dict(k)["le"]),
             v)
            for k, v in buckets.items()
        ),
    )
    values = [v for _le, v in ordered]
    assert values == sorted(values)
    assert parsed[f"{LATENCY_SECONDS}_count"][(("worker", "0"),)] == 4.0


def _loaded_registry(scale: int = 1) -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter(QUERIES_TOTAL).labels().inc(100 * scale)
    responses = registry.counter(RESPONSES_TOTAL, labels=("result",))
    responses.labels(result="ok").inc(90 * scale)
    responses.labels(result="timeout").inc(10 * scale)
    hist = registry.histogram(LATENCY_SECONDS).labels()
    for i in range(10 * scale):
        hist.observe(0.001 * (i + 1))
    return registry


# -- telemetry sampler -----------------------------------------------------


def test_sampler_emits_interval_deltas():
    registry = _loaded_registry()
    clock = iter([0.0, 1.0, 2.0])
    seen = []
    sampler = TelemetrySampler(
        registry, interval=1.0, time_fn=lambda: next(clock),
        sinks=(seen.append,),
    )
    assert sampler.tick() is None  # priming
    first = sampler.tick()
    assert first["queries"] == 100
    assert first["succeeded"] == 90
    assert first["failed"] == 10
    assert first["timeouts"] == 10
    assert first["qps"] == pytest.approx(90.0)
    assert first["latency_ms"]["p50"] is not None
    validate_snapshot(first)

    # No traffic in the second interval -> zero deltas, null latency.
    second = sampler.tick()
    assert second["queries"] == 0
    assert second["latency_ms"] == {"p50": None, "p99": None, "mean": None}
    validate_snapshot(second)
    assert seen == [first, second]
    assert sampler.timeline == [first, second]


def test_sampler_sink_errors_do_not_break_sampling():
    registry = _loaded_registry()
    clock = iter([0.0, 1.0])

    def broken(_record):
        raise OSError("gone")

    sampler = TelemetrySampler(
        registry, interval=1.0, time_fn=lambda: next(clock), sinks=(broken,)
    )
    sampler.tick()
    assert sampler.tick() is not None


def test_run_sampler_takes_final_tick():
    registry = _loaded_registry()

    async def drive():
        stop = asyncio.Event()
        sampler = TelemetrySampler(registry, interval=0.05)
        task = asyncio.ensure_future(run_sampler(sampler, stop))
        await asyncio.sleep(0.12)
        stop.set()
        return await task

    timeline = asyncio.run(drive())
    assert len(timeline) >= 2  # at least one interval plus the tail tick
    total = sum(r["queries"] for r in timeline)
    assert total == 100  # every count lands in exactly one interval


def test_merge_timelines_weights_latency_by_successes():
    a = [{"t": 1.0, "interval_s": 1.0, "queries": 10, "succeeded": 10,
          "failed": 0, "timeouts": 0, "qps": 10.0,
          "latency_ms": {"p50": 1.0, "p99": 2.0, "mean": 1.0}}]
    b = [{"t": 1.1, "interval_s": 1.0, "queries": 30, "succeeded": 30,
          "failed": 0, "timeouts": 0, "qps": 30.0,
          "latency_ms": {"p50": 3.0, "p99": 4.0, "mean": 3.0}}]
    merged = merge_timelines([a, b])
    assert len(merged) == 1
    row = merged[0]
    assert row["queries"] == 40
    assert row["qps"] == pytest.approx(40.0)
    assert row["t"] == 1.1
    # 10 successes at 1.0ms + 30 at 3.0ms -> 2.5ms weighted p50.
    assert row["latency_ms"]["p50"] == pytest.approx(2.5)
    validate_snapshot(row)
    assert merge_timelines([[], []]) == []


def test_timeline_from_outcomes_buckets_by_issue_second():
    class Outcome:
        def __init__(self, issued_at, resolution_time=None, error=None):
            self.issued_at = issued_at
            self.resolution_time = resolution_time
            self.error = error

    outcomes = [
        Outcome(0.1, 0.010),
        Outcome(0.6, 0.020),
        Outcome(1.2, None, "timeout waiting for response"),
        Outcome(2.5, 0.040),
    ]
    timeline = timeline_from_outcomes(outcomes)
    assert [r["t"] for r in timeline] == [1.0, 2.0, 3.0]
    assert timeline[0]["queries"] == 2
    assert timeline[0]["succeeded"] == 2
    assert timeline[1]["failed"] == 1
    assert timeline[1]["timeouts"] == 1
    assert timeline[2]["latency_ms"]["p50"] == pytest.approx(40.0)
    for row in timeline:
        validate_snapshot(row)


def test_format_snapshot_is_compact():
    line = format_snapshot({
        "t": 3.0, "interval_s": 1.0, "queries": 512, "succeeded": 508,
        "failed": 4, "timeouts": 1, "qps": 508.0,
        "latency_ms": {"p50": 0.4, "p99": 2.11, "mean": 0.6},
    })
    assert "t=   3.0s" in line
    assert "qps=" in line and "p99=2.1ms" in line
    no_latency = format_snapshot({
        "t": 1.0, "interval_s": 1.0, "queries": 0, "succeeded": 0,
        "failed": 0, "timeouts": 0, "qps": 0.0,
        "latency_ms": {"p50": None, "p99": None, "mean": None},
    })
    assert "p99=-" in no_latency


# -- schema contract -------------------------------------------------------


def test_snapshot_schema_matches_report_schema_defs():
    """SNAPSHOT_SCHEMA and tests/report_schema.json must describe the
    same shape; a drift here would let --stream lines diverge from what
    CI validates Report telemetry against."""
    with open(SCHEMA_PATH) as handle:
        report_schema = json.load(handle)
    embedded = report_schema["$defs"]["telemetry_snapshot"]
    assert json.loads(json.dumps(SNAPSHOT_SCHEMA)) == embedded


def test_validate_snapshot_rejects_bad_records():
    good = {
        "t": 1.0, "interval_s": 1.0, "queries": 1, "succeeded": 1,
        "failed": 0, "timeouts": 0, "qps": 1.0,
        "latency_ms": {"p50": 1.0, "p99": 1.0, "mean": 1.0},
    }
    validate_snapshot(good)
    bad = dict(good, queries=-1)
    with pytest.raises(ValidationError):
        validate_snapshot(bad)
    extra = dict(good, surprise=1)
    with pytest.raises(ValidationError):
        validate_snapshot(extra)


def test_report_schema_accepts_snapshot_document():
    with open(SCHEMA_PATH) as handle:
        report_schema = json.load(handle)
    validate(
        {
            "t": 1.0, "interval_s": 1.0, "queries": 5, "succeeded": 5,
            "failed": 0, "timeouts": 0, "qps": 5.0,
            "latency_ms": {"p50": 0.5, "p99": 0.9, "mean": 0.6},
        },
        report_schema,
    )


# -- structured logging ----------------------------------------------------


def test_logger_emits_json_with_bound_context():
    stream = io.StringIO()
    log = get_logger("test.obs", run="r1").bind(worker=2)
    configure(stream=stream, level="info")
    try:
        log.info("hello", extra=7)
        log.debug("hidden")
    finally:
        configure(stream=None, level="warning")
        from repro.obs import log as log_module

        log_module._state["stream"] = None
    lines = [json.loads(l) for l in stream.getvalue().splitlines()]
    assert len(lines) == 1
    record = lines[0]
    assert record["logger"] == "test.obs"
    assert record["msg"] == "hello"
    assert record["run"] == "r1"
    assert record["worker"] == 2
    assert record["extra"] == 7
    assert record["level"] == "info"
    assert "ts" in record


def test_logger_bind_does_not_mutate_parent():
    parent = JsonLogger("p", {"a": 1})
    child = parent.bind(b=2)
    assert parent._context == {"a": 1}
    assert child._context == {"a": 1, "b": 2}


def test_logger_survives_closed_stream():
    stream = io.StringIO()
    stream.close()
    configure(stream=stream, level="error")
    try:
        get_logger("t").error("boom")  # must not raise
    finally:
        from repro.obs import log as log_module

        log_module._state["stream"] = None
        log_module._state["level"] = None


def test_configure_rejects_unknown_level():
    with pytest.raises(ValueError):
        configure(level="loud")


# -- HTTP listener ---------------------------------------------------------


def _http(port: int, path: str, method: str = "GET") -> tuple:
    """One HTTP/1.0 exchange with the listener: (status, body)."""
    import socket

    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        conn.sendall(f"{method} {path} HTTP/1.0\r\n\r\n".encode())
        raw = b""
        while chunk := conn.recv(65536):
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body.decode()


def test_obs_http_server_routes():
    registry = _loaded_registry()
    listener = ObsHttpThread(
        registry.render, lambda: (True, {"role": "test"}), port=0
    )
    port = listener.start()
    try:
        assert port == listener.port
        status, body = _http(port, "/metrics")
        assert status == 200
        parsed = parse_exposition(body)
        assert parsed[QUERIES_TOTAL][()] == 100.0

        status, body = _http(port, "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["role"] == "test"

        status, _ = _http(port, "/nope")
        assert status == 404
    finally:
        listener.stop()


def test_obs_http_unhealthy_is_503_and_post_rejected():
    listener = ObsHttpThread(
        lambda: "", lambda: (False, {"reason": "socket closed"}), port=0
    )
    port = listener.start()
    try:
        status, body = _http(port, "/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "unhealthy"

        status, _ = _http(port, "/metrics", method="POST")
        assert status == 405
    finally:
        listener.stop()


def test_obs_http_thread_serves_from_sync_caller():
    registry = _loaded_registry()
    thread = ObsHttpThread(
        registry.render, lambda: (True, {}), port=0
    )
    port = thread.start()
    try:
        status, body = _http(port, "/metrics")
        assert status == 200
        assert QUERIES_TOTAL in body
    finally:
        thread.stop()


def test_obs_http_thread_bind_failure_raises():
    holder = ObsHttpThread(lambda: "", lambda: (True, {}), port=0)
    port = holder.start()
    try:
        clashing = ObsHttpThread(lambda: "", lambda: (True, {}), port=port)
        with pytest.raises(RuntimeError):
            clashing.start()
    finally:
        holder.stop()
