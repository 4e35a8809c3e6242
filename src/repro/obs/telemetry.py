"""Per-second telemetry: registry snapshots diffed into a time series.

A :class:`TelemetrySampler` polls a :class:`~repro.obs.metrics.
MetricsRegistry` (or any callable returning a snapshot dict — how the
pool parent feeds merged worker snapshots) once per interval and
diffs consecutive snapshots into compact NDJSON-ready records::

    {"t": 3.0, "interval_s": 1.0, "queries": 512, "succeeded": 508,
     "failed": 4, "timeouts": 1, "qps": 508.0,
     "latency_ms": {"p50": 0.4, "p99": 2.1, "mean": 0.6}}

``t`` is seconds since the sampler started; counts are *deltas over
the interval*, not cumulative totals, so a snapshot line reads as
"what happened in the last second". Interval quantiles come from the
shared log-spaced histogram buckets (linear interpolation within the
winning bucket) — estimates, but consistent between live scrapes,
streamed lines, and the Report's ``telemetry`` block.

The same vocabulary covers simulation: :func:`timeline_from_outcomes`
buckets a finished sim run's per-query outcomes by completion second,
so ``repro run`` reports carry the identical block either substrate.
"""

from __future__ import annotations

import asyncio
import time
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Union,
)

from .metrics import MetricsRegistry

__all__ = [
    "SNAPSHOT_SCHEMA",
    "QUERIES_TOTAL",
    "RESPONSES_TOTAL",
    "LATENCY_SECONDS",
    "TelemetrySampler",
    "run_sampler",
    "merge_timelines",
    "timeline_from_outcomes",
    "format_snapshot",
    "validate_snapshot",
]

#: Canonical instrument names the sampler reads. Loadgen, server, and
#: sim all publish through these so one sampler serves every layer.
QUERIES_TOTAL = "repro_queries_total"
RESPONSES_TOTAL = "repro_responses_total"
LATENCY_SECONDS = "repro_latency_seconds"

#: Maximum timeline length carried inside a Report — long runs keep
#: the first N intervals rather than ballooning the artifact.
MAX_TIMELINE_SNAPSHOTS = 600

#: JSON-Schema (the :mod:`repro.api.schema` subset) for one snapshot
#: line. ``tests/report_schema.json`` embeds the same definition as
#: ``$defs/telemetry_snapshot``; a test asserts the two stay in sync.
SNAPSHOT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "t", "interval_s", "queries", "succeeded", "failed",
        "timeouts", "qps", "latency_ms",
    ],
    "additionalProperties": False,
    "properties": {
        "t": {"type": "number", "minimum": 0},
        "interval_s": {"type": "number", "minimum": 0},
        "queries": {"type": "integer", "minimum": 0},
        "succeeded": {"type": "integer", "minimum": 0},
        "failed": {"type": "integer", "minimum": 0},
        "timeouts": {"type": "integer", "minimum": 0},
        "qps": {"type": "number", "minimum": 0},
        "latency_ms": {
            "type": "object",
            "required": ["p50", "p99", "mean"],
            "additionalProperties": False,
            "properties": {
                "p50": {"type": ["number", "null"]},
                "p99": {"type": ["number", "null"]},
                "mean": {"type": ["number", "null"]},
            },
        },
    },
}

SnapshotSource = Union[MetricsRegistry, Callable[[], Dict[str, object]]]


def _series_total(
    snapshot: Dict[str, object], family: str, **want: str
) -> int:
    """Sum a counter family's samples matching the *want* labels."""
    entry = snapshot.get(family)
    if entry is None:
        return 0
    total = 0
    for labels, value in entry["samples"]:
        if all(labels.get(k) == v for k, v in want.items()):
            total += value
    return int(total)


def _histogram_state(
    snapshot: Dict[str, object], family: str
) -> Optional[Dict[str, object]]:
    """Collapse a histogram family's samples into one (counts, sum)."""
    entry = snapshot.get(family)
    if entry is None or entry.get("kind") != "histogram":
        return None
    bounds = entry.get("buckets", [])
    counts: Optional[List[int]] = None
    total = 0.0
    count = 0
    for _labels, (sample_counts, sample_count, sample_sum) in entry["samples"]:
        if counts is None:
            counts = list(sample_counts)
        else:
            for i, c in enumerate(sample_counts):
                counts[i] += c
        count += sample_count
        total += sample_sum
    if counts is None:
        counts = [0] * (len(bounds) + 1)
    return {"bounds": bounds, "counts": counts, "count": count, "sum": total}


def quantile_from_buckets(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> Optional[float]:
    """Estimate the q-quantile (seconds) from non-cumulative buckets.

    Linear interpolation within the winning bucket; the overflow
    bucket reports its lower bound (the estimate cannot exceed what
    the buckets resolve). Returns ``None`` with no observations.
    """
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    cumulative = 0
    for i, c in enumerate(counts):
        if c == 0:
            continue
        if cumulative + c >= rank:
            lower = bounds[i - 1] if 0 < i <= len(bounds) else 0.0
            if i >= len(bounds):
                return float(bounds[-1]) if bounds else None
            upper = bounds[i]
            fraction = (rank - cumulative) / c
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        cumulative += c
    return float(bounds[-1]) if bounds else None


def _diff_snapshot(
    prev: Dict[str, object],
    curr: Dict[str, object],
    t: float,
    interval: float,
) -> Dict[str, Any]:
    """One telemetry record from two consecutive registry snapshots."""
    queries = _series_total(curr, QUERIES_TOTAL) - _series_total(
        prev, QUERIES_TOTAL
    )
    succeeded = _series_total(
        curr, RESPONSES_TOTAL, result="ok"
    ) - _series_total(prev, RESPONSES_TOTAL, result="ok")
    timeouts = _series_total(
        curr, RESPONSES_TOTAL, result="timeout"
    ) - _series_total(prev, RESPONSES_TOTAL, result="timeout")
    failed = 0
    for result in ("timeout", "error", "rcode"):
        failed += _series_total(
            curr, RESPONSES_TOTAL, result=result
        ) - _series_total(prev, RESPONSES_TOTAL, result=result)

    latency: Dict[str, Optional[float]] = {"p50": None, "p99": None,
                                           "mean": None}
    curr_hist = _histogram_state(curr, LATENCY_SECONDS)
    if curr_hist is not None:
        prev_hist = _histogram_state(prev, LATENCY_SECONDS)
        if prev_hist is not None and len(prev_hist["counts"]) == len(
            curr_hist["counts"]
        ):
            delta_counts = [
                c - p
                for c, p in zip(curr_hist["counts"], prev_hist["counts"])
            ]
            delta_sum = curr_hist["sum"] - prev_hist["sum"]
        else:
            delta_counts = list(curr_hist["counts"])
            delta_sum = curr_hist["sum"]
        observed = sum(delta_counts)
        if observed > 0:
            bounds = curr_hist["bounds"]
            p50 = quantile_from_buckets(bounds, delta_counts, 0.50)
            p99 = quantile_from_buckets(bounds, delta_counts, 0.99)
            latency = {
                "p50": round(p50 * 1000, 3) if p50 is not None else None,
                "p99": round(p99 * 1000, 3) if p99 is not None else None,
                "mean": round(delta_sum / observed * 1000, 3),
            }

    span = interval if interval > 0 else 1.0
    return {
        "t": round(t, 3),
        "interval_s": round(interval, 3),
        "queries": max(queries, 0),
        "succeeded": max(succeeded, 0),
        "failed": max(failed, 0),
        "timeouts": max(timeouts, 0),
        "qps": round(max(succeeded, 0) / span, 3),
        "latency_ms": latency,
    }


class TelemetrySampler:
    """Diffs successive snapshots of a source into telemetry records.

    *source* is a registry or a zero-argument callable returning a
    snapshot dict. ``tick()`` takes one sample and returns the record
    for the elapsed interval (or ``None`` on the priming call when no
    time has passed); ``timeline`` accumulates every record. *sinks*
    are callables invoked with each record as it is produced — the
    streaming/progress hook.
    """

    def __init__(
        self,
        source: SnapshotSource,
        interval: float = 1.0,
        time_fn: Callable[[], float] = time.monotonic,
        sinks: Sequence[Callable[[Dict[str, Any]], None]] = (),
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.timeline: List[Dict[str, Any]] = []
        self._time_fn = time_fn
        self._sinks = list(sinks)
        if isinstance(source, MetricsRegistry):
            self._snap: Callable[[], Dict[str, object]] = source.snapshot
        else:
            self._snap = source
        self._started: Optional[float] = None
        self._prev: Optional[Dict[str, object]] = None
        self._prev_at = 0.0

    def tick(self) -> Optional[Dict[str, Any]]:
        """Sample now; return the interval record (None on priming)."""
        now = self._time_fn()
        snap = self._snap()
        if self._started is None:
            self._started = now
        if self._prev is None:
            # Prime against an empty baseline so the first tick after
            # interval elapses reports the opening interval's counts.
            self._prev = {}
            self._prev_at = now
            if now == self._started:
                return None
        elapsed = now - self._prev_at
        record = _diff_snapshot(
            self._prev, snap, t=now - self._started, interval=elapsed
        )
        self._prev = snap
        self._prev_at = now
        self.timeline.append(record)
        if len(self.timeline) > MAX_TIMELINE_SNAPSHOTS:
            del self.timeline[0 : len(self.timeline) - MAX_TIMELINE_SNAPSHOTS]
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
    outcomes: Iterable[object], interval: float = 1.0
) -> List[Dict[str, Any]]:
    """Build the telemetry timeline for a finished simulation run.

    *outcomes* are :class:`repro.scenarios.runner.QueryOutcome`
    rows (anything with ``issued_at``/``resolution_time``/``error``).
    Queries bucket by issue time; a bucket's latency stats are exact
    percentiles over the successes completing there — the sim has the
    full sample set, so no histogram estimation is needed.
    """
    from repro.experiments.metrics import interpolate_sorted

    buckets: Dict[int, Dict[str, Any]] = {}
    for outcome in outcomes:
        issued = getattr(outcome, "issued_at", 0.0) or 0.0
        index = int(issued / interval)
        bucket = buckets.get(index)
        if bucket is None:
            bucket = buckets[index] = {
                "queries": 0, "succeeded": 0, "failed": 0, "timeouts": 0,
                "latencies": [],
            }
        bucket["queries"] += 1
        rtime = getattr(outcome, "resolution_time", None)
        if rtime is not None:
            bucket["succeeded"] += 1
            bucket["latencies"].append(rtime)
        else:
            bucket["failed"] += 1
            error = (getattr(outcome, "error", "") or "").lower()
            if "timeout" in error:
                bucket["timeouts"] += 1
    timeline: List[Dict[str, Any]] = []
    if not buckets:
        return timeline
    for index in range(min(buckets), max(buckets) + 1):
        bucket = buckets.get(
            index,
            {"queries": 0, "succeeded": 0, "failed": 0, "timeouts": 0,
             "latencies": []},
        )
        samples = sorted(bucket["latencies"])
        latency: Dict[str, Optional[float]] = {
            "p50": None, "p99": None, "mean": None,
        }
        if samples:
            last = len(samples) - 1
            latency = {
                "p50": round(
                    interpolate_sorted(samples, 0.50 * last) * 1000, 3
                ),
                "p99": round(
                    interpolate_sorted(samples, 0.99 * last) * 1000, 3
                ),
                "mean": round(sum(samples) / len(samples) * 1000, 3),
            }
        timeline.append({
            "t": round((index + 1) * interval, 3),
            "interval_s": interval,
            "queries": bucket["queries"],
            "succeeded": bucket["succeeded"],
            "failed": bucket["failed"],
            "timeouts": bucket["timeouts"],
            "qps": round(bucket["succeeded"] / interval, 3),
            "latency_ms": latency,
        })
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


def validate_snapshot(record: Dict[str, Any]) -> None:
    """Raise :class:`repro.api.schema.ValidationError` on a bad record."""
    from repro.api.schema import validate

    validate(record, SNAPSHOT_SCHEMA)
