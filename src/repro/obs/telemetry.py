"""Per-second telemetry: one row per interval, built one way.

Every substrate reports its run as a time series of rows::

    {"t": 3.0, "interval_s": 1.0, "queries": 512, "succeeded": 508,
     "failed": 4, "timeouts": 1, "qps": 508.0,
     "latency_ms": {"p50": 0.4, "p99": 2.1, "mean": 0.6}}

``t`` is seconds since the run started; counts are what happened *in
the interval*, not cumulative totals, so a row reads as "the last
second". :func:`telemetry_row` is the only code that writes one: from
the interval's four counts and the raw latencies of its successes,
with exact percentiles over those samples — the same arithmetic for
streamed lines and for the Report's ``telemetry`` block, live or
simulated.

Two callers feed it. A :class:`TelemetrySampler` polls a running
source once per interval (the load generator's outcome counts and
latencies, a serving pool's answered-query count), so a live success
lands in the row of the second it *completed* in.
:func:`timeline_from_outcomes` buckets a finished sim or fleet run's
per-query outcomes by the second they were *issued* in.
"""

from __future__ import annotations

import asyncio
import time
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro.api.report import ReportError

__all__ = [
    "TelemetrySampler",
    "telemetry_row",
    "run_sampler",
    "merge_timelines",
    "timeline_from_outcomes",
    "format_snapshot",
    "validate_snapshot",
]

#: Maximum timeline length carried inside a Report — long runs keep
#: the first N intervals rather than ballooning the artifact.
MAX_TIMELINE_SNAPSHOTS = 600

#: The four counts of a row, in the order a sampler source states them.
Counts = Tuple[int, int, int, int]

#: What a :class:`TelemetrySampler` polls: the cumulative ``(queries,
#: succeeded, failed, timeouts)`` and the latencies (seconds) of the
#: successes seen since the previous call.
SampleSource = Callable[[], Tuple[Counts, Sequence[float]]]


def telemetry_row(
    t: float,
    interval: float,
    counts: Counts,
    latencies: Iterable[float] = (),
) -> Dict[str, Any]:
    """The row of one interval ending at *t*: its *counts* (``queries,
    succeeded, failed, timeouts``) and exact percentiles over
    *latencies*, the resolution times (seconds) of its successes —
    ``null`` when there are none."""
    queries, succeeded, failed, timeouts = counts
    samples = sorted(latencies)
    latency: Dict[str, Optional[float]] = {
        "p50": None, "p99": None, "mean": None,
    }
    if samples:
        from repro.experiments.metrics import interpolate_sorted

        last = len(samples) - 1
        latency = {
            "p50": round(interpolate_sorted(samples, 0.50 * last) * 1000, 3),
            "p99": round(interpolate_sorted(samples, 0.99 * last) * 1000, 3),
            "mean": round(sum(samples) / len(samples) * 1000, 3),
        }
    return {
        "t": round(t, 3),
        "interval_s": round(interval, 3),
        "queries": queries,
        "succeeded": succeeded,
        "failed": failed,
        "timeouts": timeouts,
        "qps": round(succeeded / (interval if interval > 0 else 1.0), 3),
        "latency_ms": latency,
    }


class TelemetrySampler:
    """Turns a polled source into one row per elapsed interval.

    *source* is a :data:`SampleSource`. The first ``tick()`` only marks
    the start of the run (counts start from zero there) and returns
    ``None``; each later one polls the source and returns the row of
    the interval since the previous tick. ``timeline`` keeps the first
    :data:`MAX_TIMELINE_SNAPSHOTS` rows; *sinks* are callables invoked
    with every row as it is produced — the streaming/progress hook.
    """

    def __init__(
        self,
        source: SampleSource,
        interval: float = 1.0,
        time_fn: Callable[[], float] = time.monotonic,
        sinks: Sequence[Callable[[Dict[str, Any]], None]] = (),
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.timeline: List[Dict[str, Any]] = []
        self._source = source
        self._time_fn = time_fn
        self._sinks = list(sinks)
        self._started: Optional[float] = None
        self._prev_at = 0.0
        self._prev: Counts = (0, 0, 0, 0)

    def tick(self) -> Optional[Dict[str, Any]]:
        """Poll now; return the interval's row (None when there is
        none: the priming call, or nothing counted in no time)."""
        now = self._time_fn()
        if self._started is None:
            self._started = self._prev_at = now
            return None
        counts, latencies = self._source()
        elapsed = now - self._prev_at
        # A pool's total drops when a worker dies mid-run; a row never
        # counts below zero.
        deltas = tuple(max(c - p, 0) for c, p in zip(counts, self._prev))
        if not any(deltas) and round(elapsed, 3) == 0:
            # A stop landing just after a timer tick: no row to write.
            return None
        record = telemetry_row(
            now - self._started, elapsed, deltas, latencies
        )
        self._prev = counts
        self._prev_at = now
        if len(self.timeline) < MAX_TIMELINE_SNAPSHOTS:
            self.timeline.append(record)
        for sink in self._sinks:
            try:
                sink(record)
            except (ValueError, OSError):
                # A broken stream sink must not end the run.
                pass
        return record


async def run_sampler(
    sampler: TelemetrySampler,
    stop: "asyncio.Event",
) -> List[Dict[str, Any]]:
    """Drive *sampler* every ``sampler.interval`` seconds until *stop*.

    Takes one final sample after the stop event fires so the tail of
    the run (the partial last interval) lands in the timeline.
    """
    sampler.tick()  # prime
    while not stop.is_set():
        try:
            await asyncio.wait_for(stop.wait(), timeout=sampler.interval)
        except asyncio.TimeoutError:
            sampler.tick()
    sampler.tick()
    return sampler.timeline


def merge_timelines(
    timelines: Sequence[List[Dict[str, Any]]],
) -> List[Dict[str, Any]]:
    """Merge per-worker timelines by interval index.

    Counts and qps sum; interval quantiles/means combine weighted by
    each worker's success count in that interval (an approximation —
    exact pooling would need the raw samples, which the snapshots
    deliberately do not carry). ``t``/``interval_s`` take the
    max/mean of the contributing records.
    """
    live = [t for t in timelines if t]
    if not live:
        return []
    merged: List[Dict[str, Any]] = []
    for i in range(max(len(t) for t in live)):
        rows = [t[i] for t in live if i < len(t)]
        queries = sum(r["queries"] for r in rows)
        succeeded = sum(r["succeeded"] for r in rows)
        failed = sum(r["failed"] for r in rows)
        timeouts = sum(r["timeouts"] for r in rows)
        qps = round(sum(r["qps"] for r in rows), 3)
        latency: Dict[str, Optional[float]] = {}
        for key in ("p50", "p99", "mean"):
            weighted = [
                (r["latency_ms"][key], r["succeeded"])
                for r in rows
                if r["latency_ms"].get(key) is not None and r["succeeded"] > 0
            ]
            weight = sum(w for _v, w in weighted)
            latency[key] = (
                round(sum(v * w for v, w in weighted) / weight, 3)
                if weight else None
            )
        merged.append({
            "t": round(max(r["t"] for r in rows), 3),
            "interval_s": round(
                sum(r["interval_s"] for r in rows) / len(rows), 3
            ),
            "queries": queries,
            "succeeded": succeeded,
            "failed": failed,
            "timeouts": timeouts,
            "qps": qps,
            "latency_ms": latency,
        })
    return merged


def timeline_from_outcomes(
    outcomes: Iterable[Tuple[float, Optional[float], Optional[str]]],
    interval: float = 1.0,
) -> List[Dict[str, Any]]:
    """Build the telemetry timeline for a finished sim or fleet run.

    *outcomes* are the run's ``(issued_at, resolution_time, error)``
    triples. Queries bucket by issue time — a success counts, latency
    included, in the interval it was issued in, whenever it completed;
    empty intervals between the first and last issue get their zero
    row. A failure counts as a timeout where
    :func:`~repro.api.report.classify_error` says so, as it does in the
    run's ``queries.timeouts``.
    """
    from repro.api.report import classify_error

    buckets: Dict[int, Dict[str, Any]] = {}
    for issued, rtime, error in outcomes:
        index = int(issued / interval)
        bucket = buckets.get(index)
        if bucket is None:
            bucket = buckets[index] = {
                "queries": 0, "succeeded": 0, "failed": 0, "timeouts": 0,
                "latencies": [],
            }
        bucket["queries"] += 1
        if rtime is not None:
            bucket["succeeded"] += 1
            bucket["latencies"].append(rtime)
        else:
            bucket["failed"] += 1
            if error and classify_error(error) == "timeout":
                bucket["timeouts"] += 1
    timeline: List[Dict[str, Any]] = []
    if not buckets:
        return timeline
    empty = {"queries": 0, "succeeded": 0, "failed": 0, "timeouts": 0,
             "latencies": []}
    for index in range(min(buckets), max(buckets) + 1):
        bucket = buckets.get(index, empty)
        timeline.append(telemetry_row(
            (index + 1) * interval,
            interval,
            (bucket["queries"], bucket["succeeded"], bucket["failed"],
             bucket["timeouts"]),
            bucket["latencies"],
        ))
        if len(timeline) >= MAX_TIMELINE_SNAPSHOTS:
            break
    return timeline


def format_snapshot(record: Dict[str, Any]) -> str:
    """One human-readable progress line for a telemetry record."""
    latency = record.get("latency_ms", {})
    p99 = latency.get("p99")
    p99_text = f"{p99:.1f}ms" if p99 is not None else "-"
    return (
        f"t={record['t']:>6.1f}s sent={record['queries']:>6} "
        f"ok={record['succeeded']:>6} fail={record['failed']:>4} "
        f"qps={record['qps']:>8.1f} p99={p99_text}"
    )


#: The keys of a row, and of its ``latency_ms`` object.
_ROW_KEYS = {
    "t", "interval_s", "queries", "succeeded", "failed", "timeouts", "qps",
    "latency_ms",
}
_LATENCY_KEYS = {"p50", "p99", "mean"}


def validate_snapshot(record: Dict[str, Any]) -> None:
    """Raise :class:`~repro.api.report.ReportError` unless *record*
    reads as a row :func:`telemetry_row` writes: exactly its keys, the
    four counts integers, ``t``, ``interval_s`` and ``qps`` numbers,
    none of them negative, and each latency a number or null."""
    if not isinstance(record, dict) or set(record) != _ROW_KEYS:
        raise ReportError(f"not a telemetry row: {record!r}")
    latency = record["latency_ms"]
    if not (
        all(type(record[key]) is int and record[key] >= 0
            for key in ("queries", "succeeded", "failed", "timeouts"))
        and all(type(record[key]) in (int, float) and record[key] >= 0
                for key in ("t", "interval_s", "qps"))
        and isinstance(latency, dict) and set(latency) == _LATENCY_KEYS
        and all(value is None or type(value) in (int, float)
                for value in latency.values())
    ):
        raise ReportError(f"bad telemetry row: {record!r}")
