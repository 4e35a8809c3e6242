"""Tests for the repro.obs observability core.

Covers the exposition format (rendering, parse round-trips), the one
telemetry row builder through both of its callers — the per-second
sampler and ``timeline_from_outcomes``, each the other's oracle —
timeline merging, the structured JSON logger, the /metrics + /healthz
listener thread, and ``validate_snapshot``, the reader of a row.
"""

from __future__ import annotations

import asyncio
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.report import ReportError
from repro.obs.http import ObsHttpThread
from repro.obs.log import JsonLogger, configure, get_logger
from repro.obs.metrics import parse_exposition, render_snapshot
from repro.obs.telemetry import (
    MAX_TIMELINE_SNAPSHOTS,
    TelemetrySampler,
    format_snapshot,
    merge_timelines,
    run_sampler,
    timeline_from_outcomes,
    validate_snapshot,
)

# -- exposition rendering --------------------------------------------------


GOLDEN_EXPOSITION = """\
# HELP demo_queries_total queries handled
# TYPE demo_queries_total counter
demo_queries_total{result="error"} 2
demo_queries_total{result="ok"} 40
# HELP demo_up up flag
# TYPE demo_up gauge
demo_up 1
"""


def test_prometheus_exposition_golden():
    snapshot = {
        "demo_up": {
            "kind": "gauge", "help": "up flag", "samples": [[{}, 1]],
        },
        "demo_queries_total": {
            "kind": "counter", "help": "queries handled",
            "samples": [[{"result": "ok"}, 40], [{"result": "error"}, 2]],
        },
    }
    assert render_snapshot(snapshot) == GOLDEN_EXPOSITION


def test_exposition_label_escaping_round_trip():
    tricky = 'a"b\\c\nd'
    text = render_snapshot({"esc_total": {
        "kind": "counter", "samples": [[{"name": tricky}, 5]],
    }})
    parsed = parse_exposition(text)
    assert parsed["esc_total"][(("name", tricky),)] == 5.0


QUERIES_TOTAL = "repro_queries_total"


def _loaded_exposition() -> str:
    return render_snapshot({QUERIES_TOTAL: {
        "kind": "counter", "help": "queries", "samples": [[{}, 100]],
    }})


class _LoadedSource:
    """A sampler source that has counted 100 queries (90 ok, 10 timed
    out) and holds ten success latencies, 1–10 ms, for the next poll."""

    def __init__(self):
        self.latencies = [0.001 * (i + 1) for i in range(10)]

    def __call__(self):
        drained, self.latencies = self.latencies, []
        return (100, 90, 10, 10), drained


# -- telemetry sampler -----------------------------------------------------


def test_sampler_emits_interval_deltas():
    clock = iter([0.0, 1.0, 2.0])
    seen = []
    sampler = TelemetrySampler(
        _LoadedSource(), interval=1.0, time_fn=lambda: next(clock),
        sinks=(seen.append,),
    )
    assert sampler.tick() is None  # priming
    first = sampler.tick()
    assert first["queries"] == 100
    assert first["succeeded"] == 90
    assert first["failed"] == 10
    assert first["timeouts"] == 10
    assert first["qps"] == pytest.approx(90.0)
    assert first["latency_ms"] == {"p50": 5.5, "p99": 9.91, "mean": 5.5}
    validate_snapshot(first)

    # No traffic in the second interval -> zero deltas, null latency.
    second = sampler.tick()
    assert second["queries"] == 0
    assert second["latency_ms"] == {"p50": None, "p99": None, "mean": None}
    validate_snapshot(second)
    assert seen == [first, second]
    assert sampler.timeline == [first, second]


def test_sampler_sink_errors_do_not_break_sampling():
    clock = iter([0.0, 1.0])

    def broken(_record):
        raise OSError("gone")

    sampler = TelemetrySampler(
        _LoadedSource(), interval=1.0, time_fn=lambda: next(clock),
        sinks=(broken,),
    )
    sampler.tick()
    assert sampler.tick() is not None


def test_run_sampler_takes_final_tick():
    async def drive():
        stop = asyncio.Event()
        sampler = TelemetrySampler(_LoadedSource(), interval=0.05)
        task = asyncio.ensure_future(run_sampler(sampler, stop))
        await asyncio.sleep(0.12)
        stop.set()
        return await task

    timeline = asyncio.run(drive())
    assert len(timeline) >= 2  # at least one interval plus the tail tick
    total = sum(r["queries"] for r in timeline)
    assert total == 100  # every count lands in exactly one interval


def _ticking_sampler(seconds, **kwargs):
    """A sampler on a fake clock reading 0, 1, 2, …, and the list its
    source reads from: one ``(cumulative counts, latencies)`` entry per
    tick after the priming one."""
    clock = iter(float(t) for t in range(seconds + 1))
    polls = []
    feed = iter(polls)
    sampler = TelemetrySampler(
        lambda: next(feed), time_fn=lambda: next(clock), **kwargs
    )
    sampler.tick()  # prime
    return sampler, polls


def test_long_runs_keep_the_first_rows_on_every_substrate():
    seconds = MAX_TIMELINE_SNAPSHOTS + 100
    streamed = []
    sampler, polls = _ticking_sampler(seconds, sinks=(streamed.append,))
    polls.extend(
        ((k + 1, k + 1, 0, 0), [0.001]) for k in range(seconds)
    )
    for _ in range(seconds):
        sampler.tick()
    outcomes = [(k + 0.5, 0.001, None) for k in range(seconds)]
    assert len(sampler.timeline) == MAX_TIMELINE_SNAPSHOTS
    assert sampler.timeline[0]["t"] == 1.0
    assert sampler.timeline == timeline_from_outcomes(outcomes)
    # The cap is the Report's; a stream still gets every row.
    assert [row["t"] for row in streamed] == [
        float(k + 1) for k in range(seconds)
    ]


def test_closing_tick_writes_a_row_only_for_what_it_counted():
    counts = [(0, 0, 0, 0)]
    clock = iter([0.0, 1.0, 1.0002, 1.0004])
    sampler = TelemetrySampler(
        lambda: (counts[0], ()), time_fn=lambda: next(clock)
    )
    sampler.tick()  # prime
    counts[0] = (5, 5, 0, 0)
    assert sampler.tick()["queries"] == 5
    # The stop lands just after a timer tick: nothing to report.
    assert sampler.tick() is None
    assert len(sampler.timeline) == 1
    # Had something been counted in that sliver, it gets its row.
    counts[0] = (6, 5, 1, 1)
    tail = sampler.tick()
    assert (tail["queries"], tail["failed"], tail["interval_s"]) == (1, 1, 0.0)
    validate_snapshot(tail)
    assert sum(row["queries"] for row in sampler.timeline) == 6


_OUTCOME = st.tuples(
    st.floats(min_value=0.0, max_value=0.999),  # issued this far in
    st.one_of(  # resolution time, or the error of a failure
        st.floats(min_value=1e-5, max_value=30.0),
        st.sampled_from(["timeout waiting for response", "rcode 3"]),
    ),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_OUTCOME, max_size=6), max_size=12))
def test_sampler_and_outcome_timelines_agree_row_for_row(seconds):
    """The two callers of the row builder as each other's oracle: the
    same outcomes, fed second by second through a sampler or bucketed
    after the fact, give the same rows."""
    outcomes = []
    sampler, polls = _ticking_sampler(len(seconds))
    queries = succeeded = failed = timeouts = 0
    for second, issued in enumerate(seconds):
        latencies = []
        for offset, result in issued:
            queries += 1
            if isinstance(result, float):
                succeeded += 1
                latencies.append(result)
                outcomes.append((second + offset, result, None))
            else:
                failed += 1
                timeouts += "timeout" in result
                outcomes.append((second + offset, None, result))
        polls.append(((queries, succeeded, failed, timeouts), latencies))
        sampler.tick()
    # A finished run's timeline spans its first to its last busy second.
    busy = [i for i, issued in enumerate(seconds) if issued]
    expected = sampler.timeline[busy[0]:busy[-1] + 1] if busy else []
    assert timeline_from_outcomes(outcomes) == expected


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
    outcomes = [
        (0.1, 0.010, None),
        (0.6, 0.020, None),
        (1.2, None, "timeout waiting for response"),
        (2.5, 0.040, None),
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


# -- the row's reader -------------------------------------------------------


def test_validate_snapshot_rejects_bad_records():
    good = {
        "t": 1.0, "interval_s": 1.0, "queries": 1, "succeeded": 1,
        "failed": 0, "timeouts": 0, "qps": 1.0,
        "latency_ms": {"p50": 1.0, "p99": 1.0, "mean": 1.0},
    }
    validate_snapshot(good)
    validate_snapshot(dict(good, latency_ms={"p50": None, "p99": None,
                                             "mean": None}))
    for bad in (
        dict(good, queries=-1),
        dict(good, queries=1.0),
        dict(good, succeeded=True),
        dict(good, qps=-0.5),
        dict(good, t=None),
        dict(good, surprise=1),
        {key: value for key, value in good.items() if key != "failed"},
        dict(good, latency_ms={"p50": 1.0, "p99": 1.0}),
        dict(good, latency_ms={"p50": "1", "p99": 1.0, "mean": 1.0}),
        [good],
    ):
        with pytest.raises(ReportError):
            validate_snapshot(bad)


def test_report_schema_accepts_snapshot_document(tmp_path):
    # ``python -m repro.api.validate`` reads a document without
    # ``report_version`` as a telemetry row.
    from repro.api.validate import main

    path = tmp_path / "row.json"
    path.write_text(json.dumps({
        "t": 1.0, "interval_s": 1.0, "queries": 5, "succeeded": 5,
        "failed": 0, "timeouts": 0, "qps": 5.0,
        "latency_ms": {"p50": 0.5, "p99": 0.9, "mean": 0.6},
    }))
    assert main([str(path)]) == 0


# -- structured logging ----------------------------------------------------


def test_logger_emits_json_with_bound_context():
    stream = io.StringIO()
    log = get_logger("test.obs", run="r1").bind(worker=2)
    configure(stream=stream, level="warning")
    try:
        log.warning("hello", extra=7)
        log.info("hidden")
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
    assert record["level"] == "warning"
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
    listener = ObsHttpThread(
        _loaded_exposition, lambda: (True, {"role": "test"}), port=0
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
    thread = ObsHttpThread(
        _loaded_exposition, lambda: (True, {}), port=0
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
