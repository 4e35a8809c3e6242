"""The unified, versioned result document of the ``repro.api`` façade.

One :class:`Report` describes the outcome of one run regardless of the
substrate that produced it: a discrete-event simulation
(:class:`~repro.scenarios.ScenarioRunner`), a wall-clock serve+load
pairing (:mod:`repro.live`), or an aggregate fleet pass
(:mod:`repro.fleet`). Metric names are **stable dotted identifiers**,
and :data:`REPORT_METRICS` is the one list of them. A row
(:class:`MetricRow`) gives a key or key pattern, the key's unit, the
substrates that emit it, and how it pools across the repeats of a run
and across the parallel load workers of a live one.

Rows listing every substrate — ``queries.*``, ``latency.*``,
``throughput.qps`` and ``cache.<client location>.*`` — are the common
vocabulary: Reports of one :class:`~repro.api.spec.RunSpec` on
different substrates carry the same such keys and diff directly.
Everything only one substrate can measure is namespaced under
``sim.*``, ``live.*`` or ``fleet.*``.

The converters (:func:`report_from_experiment_result`,
:func:`report_from_loadgen`,
:func:`repro.fleet.report.report_from_fleet`) say what each run
measured; :func:`pool_metrics`, the one pooling pass, applies the
rows' rules. :meth:`Report.from_json` reads a Report back and checks
it against the table (:func:`check_metrics`), as
``python -m repro.api.validate`` does for files. The ``live.server.*``,
``live.workers.serve.<i>.*`` and ``live.cache.resolver.*`` rows are
generated from :data:`SERVER_STATS`, the table of a live server's
stats block, which lives here so that the Report's table needs no
import of the live runtime.

This module is import-light on purpose (stdlib only at module level):
every run imports it, and :mod:`repro.live` imports the shared
:data:`REPORT_VERSION` stamp and both tables from here.
"""

from __future__ import annotations

import platform
import re
import subprocess
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Schema version shared by every JSON document the toolkit emits
#: (unified Reports, the loadgen report, ``sweep --json``). Bump on
#: breaking changes. Version 2 introduced the unified Report; version 1
#: was the loadgen-only report.
REPORT_VERSION = 2

#: Every substrate a RunSpec can execute on. Single-sourced: RunSpec
#: validation, Report validation and :data:`REPORT_METRICS` all derive
#: from this tuple.
SUBSTRATES = ("sim", "live", "fleet")


class MetricRow(NamedTuple):
    """One Report key or key pattern of :data:`REPORT_METRICS`."""

    #: Dotted key; a ``{name}`` segment stands for what
    #: ``PLACEHOLDERS[name]`` matches. The last segment is literal.
    key: str
    #: A key of :data:`UNITS`.
    unit: str
    substrates: Tuple[str, ...]
    #: How the repeats of a run pool: ``sum``, ``mean`` (a repeat that
    #: states nothing counts 0), ``max``, ``first`` or ``all``. Derived
    #: after pooling instead: ``count`` (of repeats), ``samples`` (from
    #: every success latency) or ``ratio`` (from the counters beside
    #: it). ``run``: stated once for the whole run. The rows from
    #: ``SERVER_STATS`` carry its merge, which
    #: :func:`repro.live.workers.merge_server_stats` applies.
    repeats: str
    #: How the side-by-side workers of a live repeat pool (same rules):
    #: load workers, or serve workers for the ``SERVER_STATS`` rows.
    #: Empty where one worker states the key.
    workers: str = ""
    #: Decimals every pooling of several values, and every pooling of
    #: repeats, rounds to.
    digits: Optional[int] = None


#: What each ``{placeholder}`` of a row key matches (a regex).
PLACEHOLDERS = {
    # The client-side cache locations: every substrate observes them,
    # so they are the only non-namespaced ones.
    "client": "client_dns|client_coap",
    # The simulator's shared caches.
    "server": "proxy|resolver",
    # A load or serve worker's index.
    "i": r"\d+",
}

#: The types a unit's values take; every unit also admits null.
UNITS = {
    "count": (int,),
    "ratio": (float, int),
    "ms": (float, int),
    "s": (float, int),
    "qps": (float, int),
    "per_s": (float, int),
    "label": (str,),
    "flag": (bool,),
}


def _rows(prefix, leaves, unit, substrates, repeats, workers="", digits=None):
    """One row per space-separated leaf of *leaves* under *prefix*."""
    return tuple(
        MetricRow(f"{prefix}.{leaf}", unit, substrates, repeats, workers,
                  digits)
        for leaf in leaves.split()
    )


class ServerStat(NamedTuple):
    """One leaf of a :meth:`~repro.live.server.DocLiveServer.stats`
    block: how blocks pool it, how ``/metrics`` shows it, and where a
    Report shows it."""

    #: Dotted path of the leaf in the stats block.
    path: str
    #: How many blocks become one: ``sum``, ``max``, ``any``, ``first``
    #: (a fact every block states alike), or ``ratio`` (not pooled:
    #: taken again from the pooled hits and misses).
    merge: str
    #: Exposition family, after ``repro_`` (one worker's series) or
    #: ``repro_pool_`` (the pool's); empty: not on ``/metrics``.
    family: str = ""
    labels: Dict[str, str] = {}
    help: str = ""
    kind: str = "counter"
    #: ``server``: a Report's ``live.server.<path>``; ``worker``: that
    #: and, per serve worker, ``live.workers.serve.<i>.<path>``.
    report: str = ""


_DATAGRAMS = "UDP datagrams by direction"
_FASTPATH = "wire-cache fastpath lookups"
_IO_EVENTS = "transport I/O events"
_RESOLVER = "resolver cache lookups"

#: Every leaf of a :meth:`~repro.live.server.DocLiveServer.stats`
#: block, one row each: the one place that says how a server counter
#: merges (:func:`repro.live.workers.merge_server_stats`) and how it is
#: shown (:func:`repro.live.workers.stats_snapshot`, the
#: :data:`REPORT_METRICS` rows below). A counter added to ``stats()``
#: needs its row here and nothing else.
SERVER_STATS: Tuple[ServerStat, ...] = (
    ServerStat("transport", "first"),
    ServerStat("endpoint", "first"),
    ServerStat("names", "first"),
    ServerStat("queries_handled", "sum", "queries_total", {},
               "DNS queries handled by the serving stack", report="worker"),
    ServerStat("datagrams_received", "sum", "datagrams_total",
               {"direction": "in"}, _DATAGRAMS, report="worker"),
    ServerStat("datagrams_sent", "sum", "datagrams_total",
               {"direction": "out"}, _DATAGRAMS, report="worker"),
    ServerStat("validations_sent", "sum", "validations_total", {},
               "cache-validation responses sent", report="server"),
    ServerStat("fastpath_hits", "sum", "fastpath_total",
               {"result": "hit"}, _FASTPATH),
    ServerStat("fastpath_misses", "sum", "fastpath_total",
               {"result": "miss"}, _FASTPATH),
    ServerStat("io.recv_bursts", "sum", "io_events_total",
               {"kind": "recv_burst"}, _IO_EVENTS),
    ServerStat("io.largest_burst", "max", "io_largest_burst", {},
               "largest batched recv burst", kind="gauge"),
    ServerStat("io.recv_errors", "sum", "io_events_total",
               {"kind": "recv_error"}, _IO_EVENTS),
    ServerStat("io.send_buffer_drops", "sum", "io_events_total",
               {"kind": "send_buffer_drop"}, _IO_EVENTS),
    ServerStat("io.send_errors", "sum", "io_events_total",
               {"kind": "send_error"}, _IO_EVENTS),
    ServerStat("io.reuse_port", "any"),
    ServerStat("resolver_cache.hits", "sum", "resolver_cache_total",
               {"result": "hit"}, _RESOLVER),
    ServerStat("resolver_cache.misses", "sum", "resolver_cache_total",
               {"result": "miss"}, _RESOLVER),
    ServerStat("resolver_cache.hit_ratio", "ratio"),
)


def _server_rows(prefix, report):
    """Rows for the ``SERVER_STATS`` leaves under *prefix*: those with
    a ``report`` in *report*, or under ``resolver_cache.``."""
    return tuple(
        MetricRow(
            f"{prefix}.{row.path.rpartition('.')[2]}",
            "ratio" if row.merge == "ratio" else "count",
            ("live",), row.merge, row.merge,
        )
        for row in SERVER_STATS
        if (row.report in report if report
            else row.path.startswith("resolver_cache."))
    )


_CACHE_COUNTERS = "hits misses stale_hits validations validation_failures"
_CACHE_RATIOS = "hit_ratio stale_ratio validation_ratio"
_LIVE = ("live",)
_FLEET = ("fleet",)

#: Every key a Report may carry, in emission order.
REPORT_METRICS: Tuple[MetricRow, ...] = (
    *_rows("queries", "issued succeeded failed timeouts rcode_failures",
           "count", SUBSTRATES, "sum", "sum"),
    # Over completed queries.
    MetricRow("queries.success_rate", "ratio", SUBSTRATES, "ratio", "ratio"),
    *_rows("latency", "p50_ms p95_ms p99_ms mean_ms max_ms", "ms",
           SUBSTRATES, "samples", "samples"),
    # Successes per second over the span they landed in, per run:
    # side-by-side workers add, repeats (each restarting the clock)
    # average.
    MetricRow("throughput.qps", "qps", SUBSTRATES, "mean", "sum", 3),
    *_rows("cache.{client}", _CACHE_COUNTERS, "count", SUBSTRATES,
           "sum", "sum"),
    *_rows("cache.{client}", _CACHE_RATIOS, "ratio", SUBSTRATES,
           "ratio", "ratio"),
    *_rows("sim.cache.{server}", _CACHE_COUNTERS, "count", ("sim",), "sum"),
    *_rows("sim.cache.{server}", _CACHE_RATIOS, "ratio", ("sim",), "ratio"),
    *_rows("sim.link", "frames_1hop frames_2hop bytes_1hop bytes_2hop "
           "queries_frames responses_frames", "count", ("sim",), "sum"),
    MetricRow("sim.repeats", "count", ("sim",), "count"),
    MetricRow("live.mode", "label", _LIVE, "first", "first"),
    # Rounded so that three shares of 100/3 read 100.0.
    MetricRow("live.offered_rate_qps", "qps", _LIVE, "first", "sum", 9),
    MetricRow("live.concurrency", "count", _LIVE, "first", "sum"),
    # The slowest side-by-side worker's; repeats run one after another.
    MetricRow("live.elapsed_s", "s", _LIVE, "sum", "max", 3),
    MetricRow("live.repeats", "count", _LIVE, "count"),
    # Load workers that stamped an index, and those that delivered
    # nothing (what they would have offered is in no sum).
    *_rows("live.workers.load", "count failed", "count", _LIVE, "run"),
    *_rows("live.workers.load.{i}",
           "queries succeeded failed timeouts rcode_failures", "count",
           _LIVE, "sum"),
    MetricRow("live.workers.load.{i}.achieved_qps", "qps", _LIVE, "mean",
              digits=3),
    *_rows("live.workers.serve", "count failed", "count", _LIVE, "run"),
    MetricRow("live.workers.serve.failed_workers", "label", _LIVE, "run"),
    MetricRow("live.workers.reuseport", "flag", _LIVE, "run"),
    MetricRow("live.workers.warning", "label", _LIVE, "run"),
    *_server_rows("live.workers.serve.{i}", ("worker",)),
    *_server_rows("live.server", ("server", "worker")),
    *_server_rows("live.cache.resolver", ()),
    MetricRow("fleet.clients", "count", _FLEET, "first"),
    # Sampled active clients, scaled to the fleet after pooling.
    MetricRow("fleet.active_clients", "count", _FLEET, "mean"),
    MetricRow("fleet.repeats", "count", _FLEET, "count"),
    MetricRow("fleet.sample.queries", "count", _FLEET, "first"),
    MetricRow("fleet.sample.scale", "ratio", _FLEET, "first", digits=3),
    # Every fleet query simulated and every success latency kept.
    MetricRow("fleet.tolerance.exact", "flag", _FLEET, "all"),
    MetricRow("fleet.churn", "per_s", _FLEET, "first"),
    *_rows("fleet", "duty_cycle flash_crowd", "ratio", _FLEET, "first"),
    *_rows("fleet.calibration", "probe_clients probe_queries", "count",
           _FLEET, "first"),
    *_rows("fleet.calibration", "success_rate p_timeout p_rcode", "ratio",
           _FLEET, "first", digits=4),
    *_rows("fleet.calibration", "wire_p50_ms wire_p95_ms", "ms", _FLEET,
           "first"),
)

#: Rules :func:`pool_metrics` derives instead of pooling.
_DERIVED = ("count", "samples", "ratio")

#: The pooling rules, shared with the serve side's
#: :data:`SERVER_STATS` merge.
POOL_RULES = {
    "sum": sum,
    "max": max,
    "any": any,
    "all": all,
    "first": lambda values: values[0],
}


def _matches(parts: Sequence[str], segments: Sequence[str]) -> bool:
    """Whether the concrete key *segments* are an instance of a row
    key's *parts* (every row key starts with a literal segment)."""
    return (
        len(parts) == len(segments) and parts[0] == segments[0]
        and all(
            re.fullmatch(PLACEHOLDERS[part[1:-1]], segment)
            if part.startswith("{") else part == segment
            for part, segment in zip(parts, segments)
        )
    )


_KEY_PARTS = [(row, row.key.split(".")) for row in REPORT_METRICS]


@lru_cache(maxsize=4096)
def metric_rows(key: str) -> Tuple[MetricRow, ...]:
    """The rows of :data:`REPORT_METRICS` that *key* matches — exactly
    one for every key a Report carries."""
    segments = key.split(".")
    return tuple(row for row, parts in _KEY_PARTS if _matches(parts, segments))


@lru_cache(maxsize=1024)
def _stated_leaves(prefix: str) -> Tuple[str, ...]:
    """The leaves of the non-derived rows directly under *prefix*."""
    segments = prefix.split(".")
    return tuple(
        parts[-1] for row, parts in _KEY_PARTS
        if row.repeats not in _DERIVED and _matches(parts[:-1], segments)
    )


def row_values(prefix: str, source) -> Dict[str, object]:
    """``{prefix.leaf: value}`` for every non-derived row directly under
    the concrete *prefix*, read off *source* (a mapping or an object's
    attributes); leaves *source* does not state are left out."""
    if not isinstance(source, dict):
        source = {
            leaf: getattr(source, leaf)
            for leaf in _stated_leaves(prefix) if hasattr(source, leaf)
        }
    return {
        f"{prefix}.{leaf}": source[leaf]
        for leaf in _stated_leaves(prefix) if leaf in source
    }


class ReportError(ValueError):
    """A malformed or version-incompatible report document."""


@lru_cache(maxsize=1)
def _git_commit() -> str:
    """The repository commit this process runs from (or ``unknown``)."""
    try:
        import os

        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else "unknown"


def provenance() -> Dict[str, str]:
    """The shared provenance stamp: interpreter, platform, git commit.

    One function for every JSON artifact so reports from different
    subsystems (api, loadgen, sweep) stay attributable to the
    same build the same way.
    """
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git": _git_commit(),
    }


def quantile_ms(ordered: Sequence[float], q: float) -> float:
    """Percentile *q* of sorted, non-empty seconds samples, in ms."""
    from repro.experiments.metrics import interpolate_sorted

    position = (len(ordered) - 1) * q / 100.0
    return round(interpolate_sorted(ordered, position) * 1000, 3)


def latency_metrics(latencies_s: Sequence[float]) -> Dict[str, Optional[float]]:
    """The common ``latency.*`` values (ms) from raw seconds samples —
    the one run-level latency reducer of every substrate."""
    if not latencies_s:
        return {
            row.key: None for row in REPORT_METRICS if row.repeats == "samples"
        }
    ordered = sorted(latencies_s)
    return {
        "latency.p50_ms": quantile_ms(ordered, 50),
        "latency.p95_ms": quantile_ms(ordered, 95),
        "latency.p99_ms": quantile_ms(ordered, 99),
        # Summed in input order, not sorted order: the banked sim and
        # fleet digests read the last bit of this mean.
        "latency.mean_ms": round(
            sum(latencies_s) / len(latencies_s) * 1000, 3
        ),
        "latency.max_ms": round(ordered[-1] * 1000, 3),
    }


def pooled_cache_stats(blocks):
    """Cache counters from many sources pooled into one
    :class:`~repro.cache.CacheStats` via its ``merge``.

    A block is a ``CacheStats`` or a plain counter mapping (the loadgen
    and fleet vocabularies; ratio entries in a mapping are ignored —
    ratios are only ever read back off the pooled object's properties).
    """
    from dataclasses import fields

    from repro.cache import CacheStats

    pooled = CacheStats()
    for block in blocks:
        if not isinstance(block, CacheStats):
            block = CacheStats(**{
                spec.name: block.get(spec.name, 0)
                for spec in fields(CacheStats)
            })
        pooled.merge(block)
    return pooled


def _triples(outcomes):
    """The ``(issued_at, resolution_time, error)`` of each sim row."""
    return (
        (outcome.issued_at, outcome.resolution_time, outcome.error)
        for outcome in outcomes
    )


def tally_outcomes(outcomes):
    """Walk one run's ``(issued_at, resolution_time, error)`` triples
    (sim feeds them from its :class:`~repro.scenarios.runner.QueryOutcome`
    rows, fleet zips them from its columns).

    Returns ``(succeeded, timeouts, rcode_failures, qps)``. Every run
    restarts its clock, so throughput is derived per run — successes
    over the span from the first issue to the last success — and
    averaged across repeats by the ``throughput.qps`` row, the same
    aggregation the live substrate applies to its per-repeat achieved
    qps.
    """
    succeeded = timeouts = rcode_failures = 0
    first_issue: Optional[float] = None
    last_done: Optional[float] = None
    for issued_at, resolution_time, error in outcomes:
        if resolution_time is not None:
            succeeded += 1
            done = issued_at + resolution_time
            last_done = done if last_done is None else max(last_done, done)
        elif error:
            kind = classify_error(error)
            if kind == "timeout":
                timeouts += 1
            elif kind == "rcode":
                rcode_failures += 1
        if first_issue is None or issued_at < first_issue:
            first_issue = issued_at
    span = (
        last_done - first_issue
        if last_done is not None and first_issue is not None
        else 0.0
    )
    return (
        succeeded, timeouts, rcode_failures,
        succeeded / span if span > 0 else 0.0,
    )


# -- the one pooling pass ----------------------------------------------------


def _pool(rule: str, values, digits: Optional[int], count: int):
    """*values* pooled by *rule* (``mean`` over *count*), nulls aside."""
    values = [value for value in values if value is not None]
    if not values:
        return None
    value = sum(values) / count if rule == "mean" else POOL_RULES[rule](values)
    return value if digits is None else round(value, digits)


def _merge(partials, axis: str) -> Dict[str, object]:
    """*partials* pooled key by key by each row's rule for *axis*
    (``workers`` or ``repeats``); a worker's lone value is its own."""
    merged: Dict[str, object] = {}
    for key in dict.fromkeys(key for part in partials for key in part):
        values = [part[key] for part in partials if key in part]
        if key == "latencies_s":
            merged[key] = [rtt for value in values for rtt in value]
        elif axis == "workers" and len(values) == 1:
            merged[key] = values[0]
        else:
            (row,) = metric_rows(key)
            merged[key] = _pool(
                getattr(row, axis), values, row.digits, len(partials)
            )
    return merged


def _ratio(key: str, pooled: Dict[str, object]) -> float:
    """A ``ratio`` row's value, from the pooled counters beside it."""
    prefix, _, leaf = key.rpartition(".")
    counters = {
        name.rpartition(".")[2]: value
        for name, value in pooled.items() if name.rpartition(".")[0] == prefix
    }
    if leaf == "success_rate":
        completed = counters["succeeded"] + counters["failed"]
        return counters["succeeded"] / completed if completed else 0.0
    return getattr(pooled_cache_stats([counters]), leaf)


def _instance_order(prefix: str):
    return [int(part) if part.isdigit() else part
            for part in prefix.split(".")]


def pool_metrics(
    substrate: str,
    runs: Sequence[Sequence[Dict[str, object]]],
    whole: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """A Report's metrics from per-run partials — the one pooling pass.

    *runs* has one entry per repeat: the partials its side-by-side load
    workers delivered (one partial on sim and fleet). A partial maps
    Report keys to what one worker measured, and ``latencies_s`` to its
    success latencies. Workers pool by each row's ``workers`` rule,
    repeats by its ``repeats`` rule, then the ``count``, ``samples``
    and ``ratio`` rows are derived; *whole* holds the ``run`` rows and
    the ``SERVER_STATS`` rows already merged. Keys come out in table
    order, the instances of a pattern in index or name order.
    """
    pooled = _merge([_merge(workers, "workers") for workers in runs],
                    "repeats")
    latency = latency_metrics(pooled.pop("latencies_s", ()))
    pooled.update(whole or {})
    instances: Dict[str, set] = {}
    for key in pooled:
        (row,) = metric_rows(key)
        instances.setdefault(row.key.rpartition(".")[0], set()).add(
            key.rpartition(".")[0]
        )
    metrics: Dict[str, object] = {}
    rows = [row for row in REPORT_METRICS if substrate in row.substrates]
    for pattern, group in groupby(
        rows, lambda row: row.key.rpartition(".")[0]
    ):
        group = list(group)
        prefixes = instances.get(pattern, set())
        for prefix in (
            sorted(prefixes, key=_instance_order)
            if "{" in pattern else [pattern]
        ):
            for row in group:
                key = f"{prefix}.{row.key.rpartition('.')[2]}"
                if key in pooled:
                    metrics[key] = pooled[key]
                elif row.repeats == "count":
                    metrics[key] = len(runs)
                elif row.repeats == "samples":
                    metrics[key] = latency[key]
                elif row.repeats == "ratio" and prefix in prefixes:
                    metrics[key] = _ratio(key, pooled)
    return metrics


#: The keys every Report carries: the rows listing every substrate,
#: without a placeholder.
_ALWAYS = tuple(
    row.key for row in REPORT_METRICS
    if row.substrates == SUBSTRATES and "{" not in row.key
)

#: The units whose values are never negative.
_NON_NEGATIVE = ("count", "ratio", "qps", "ms")


def check_metrics(substrate: str, metrics: Dict[str, object]) -> None:
    """Raise :class:`ReportError` unless every key of *metrics* matches
    exactly one row, one listing *substrate*; every value has its row's
    unit's type, and no count, ratio, rate or latency (ms) is negative; no key of a
    row listing every substrate is null but ``latency.*``; every key of
    :data:`_ALWAYS` is there; and the query counters add up."""
    missing = [key for key in _ALWAYS if key not in metrics]
    if missing:
        raise ReportError(f"metrics are missing {', '.join(missing)}")
    for key, value in metrics.items():
        rows = metric_rows(key)
        if len(rows) != 1 or substrate not in rows[0].substrates:
            raise ReportError(f"metric {key!r} is not one {substrate} row")
        unit = rows[0].unit
        if value is None:
            if rows[0].substrates == SUBSTRATES and not key.startswith("latency."):
                raise ReportError(f"metric {key!r} is null")
        elif type(value) not in UNITS[unit]:
            raise ReportError(f"metric {key!r} is not a {unit}")
        elif unit in _NON_NEGATIVE and value < 0:
            raise ReportError(f"metric {key!r} is negative")
    issued, succeeded, failed, timeouts, rcode_failures = (
        metrics[f"queries.{leaf}"]
        for leaf in "issued succeeded failed timeouts rcode_failures".split()
    )
    if issued != succeeded + failed:
        raise ReportError("queries.issued != succeeded + failed")
    if timeouts + rcode_failures > failed:
        raise ReportError("queries.timeouts + rcode_failures > failed")


#: The keys of the :func:`provenance` stamp.
_PROVENANCE = {"python", "platform", "git"}


def _check_envelope(payload, keys, optional=()) -> None:
    """Raise :class:`ReportError` unless *payload* is an object with
    exactly *keys* and any of *optional*, a ``report_version`` of at
    least 1 and a :func:`provenance` stamp: what every document the
    toolkit writes, but a telemetry row, carries."""
    if not isinstance(payload, dict):
        raise ReportError(f"expected an object, got {type(payload).__name__}")
    missing = sorted(keys - set(payload))
    unknown = sorted(set(payload) - keys - set(optional))
    if missing or unknown:
        raise ReportError(f"missing keys {missing}, unknown keys {unknown}")
    version = payload["report_version"]
    if type(version) is not int or version < 1:
        raise ReportError(f"bad report_version: {version!r}")
    stamp = payload["provenance"]
    if not (
        isinstance(stamp, dict) and set(stamp) == _PROVENANCE
        and all(isinstance(value, str) for value in stamp.values())
    ):
        raise ReportError(f"bad provenance: {stamp!r}")


@dataclass
class Report:
    """One run's outcome, versioned and substrate-agnostic.

    ``spec`` is the JSON-ready description of the
    :class:`~repro.api.spec.RunSpec` that produced the run; ``metrics``
    maps the keys of :data:`REPORT_METRICS` to scalars. ``raw`` keeps
    the substrate-native result object (an
    :class:`~repro.scenarios.runner.ExperimentResult` or
    :class:`~repro.fleet.engine.FleetResult`, a list of them, or the
    loadgen dicts as the converter was given them) for Python callers —
    it is never serialised and does not participate in equality.
    """

    substrate: str
    spec: Dict[str, object]
    metrics: Dict[str, object]
    report_version: int = REPORT_VERSION
    provenance: Dict[str, str] = field(default_factory=provenance)
    telemetry: Optional[List[Dict[str, object]]] = None
    raw: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.substrate not in SUBSTRATES:
            raise ReportError(
                f"unknown substrate {self.substrate!r} "
                f"(known: {', '.join(SUBSTRATES)})"
            )

    # -- (de)serialisation -------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """The JSON document (plain dict, ``json.dumps``-ready as-is).

        The ``telemetry`` time series (per-second run snapshots, the
        :mod:`repro.obs.telemetry` vocabulary) appears only when the
        run recorded one — single-repeat runs on either substrate.
        """
        payload: Dict[str, object] = {
            "report_version": self.report_version,
            "substrate": self.substrate,
            "spec": self.spec,
            "provenance": self.provenance,
            "metrics": dict(self.metrics),
        }
        if self.telemetry is not None:
            payload["telemetry"] = list(self.telemetry)
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "Report":
        """Read a Report from :meth:`to_json` output, and check it: the
        keys ``to_json`` writes and no others, a known substrate, a
        ``spec`` object, every telemetry row
        (:func:`~repro.obs.telemetry.validate_snapshot`) and the
        metrics (:func:`check_metrics`). Raises :class:`ReportError`."""
        _check_envelope(
            payload,
            {"report_version", "substrate", "spec", "provenance", "metrics"},
            ("telemetry",),
        )
        spec, metrics = payload["spec"], payload["metrics"]
        telemetry = payload.get("telemetry", [])
        if not (isinstance(spec, dict) and isinstance(metrics, dict)
                and isinstance(telemetry, list)):
            raise ReportError("spec and metrics must be objects, "
                              "telemetry a list")
        report = cls(
            substrate=payload["substrate"],
            spec=dict(spec),
            metrics=dict(metrics),
            report_version=payload["report_version"],
            provenance=dict(payload["provenance"]),
            telemetry=list(telemetry) if "telemetry" in payload else None,
        )
        check_metrics(report.substrate, report.metrics)
        if telemetry:
            from repro.obs.telemetry import validate_snapshot

            for row in telemetry:
                validate_snapshot(row)
        return report

    # -- accessors ---------------------------------------------------------

    def common_metrics(self) -> Dict[str, object]:
        """The metrics whose row lists every substrate."""
        return {
            key: value
            for key, value in self.metrics.items()
            if any(row.substrates == SUBSTRATES for row in metric_rows(key))
        }


def sweep_to_json(reports: Dict[str, Report]) -> Dict[str, object]:
    """A sweep's Reports (:func:`repro.api.sweep`) as one
    ``json.dumps``-ready document: the shared ``report_version`` and
    provenance stamp around each cell's :meth:`Report.to_json` under
    its grid key."""
    return {
        "report_version": REPORT_VERSION,
        "kind": "sweep",
        "provenance": provenance(),
        "cells": {key: report.to_json() for key, report in reports.items()},
    }


def sweep_from_json(payload: Dict[str, object]) -> Dict[str, Report]:
    """Read a :func:`sweep_to_json` document back into its Reports by
    grid key, checking the envelope and every cell
    (:meth:`Report.from_json`). Raises :class:`ReportError`."""
    _check_envelope(payload, {"report_version", "kind", "provenance", "cells"})
    cells = payload["cells"]
    if payload["kind"] != "sweep" or not isinstance(cells, dict):
        raise ReportError("a sweep has kind 'sweep' and an object of cells")
    return {key: Report.from_json(cell) for key, cell in cells.items()}


# -- substrate converters --------------------------------------------------

#: Error-name fragments classified as timeouts (sim outcomes record the
#: raising exception's type name).
_TIMEOUT_MARKERS = ("timeout",)

#: Error-name fragments classified as response-code failures.
_RCODE_MARKERS = ("rcode", "nxdomain", "servfail", "docerror")


def classify_error(error_name: str) -> str:
    """``timeout``, ``rcode`` or ``other``: the one failure classifier
    of the sim and fleet tallies, the telemetry timeline and the fleet
    calibration."""
    lowered = error_name.lower()
    if any(marker in lowered for marker in _TIMEOUT_MARKERS):
        return "timeout"
    if any(marker in lowered for marker in _RCODE_MARKERS):
        return "rcode"
    return "other"


def cache_values(caches, namespace: str = "") -> Dict[str, object]:
    """The counters of a ``{location: block}`` cache mapping as partial
    entries: ``cache.<location>.*`` for the client locations, and
    ``<namespace>cache.<location>.*`` for the others where the
    *namespace* has rows for them."""
    values: Dict[str, object] = {}
    for location, block in caches.items():
        location = location.replace("-", "_")
        values.update(
            row_values(f"cache.{location}", block)
            or row_values(f"{namespace}cache.{location}", block)
        )
    return values


def report_from_experiment_result(
    results,
    spec: Optional[Dict[str, object]] = None,
) -> Report:
    """Build the unified Report from simulation output.

    *results* is one :class:`~repro.scenarios.runner.ExperimentResult`
    or a list of them, one per repeat (:func:`pool_metrics` pools them).
    """
    single = not isinstance(results, (list, tuple))
    pooled = [results] if single else list(results)
    if not pooled:
        raise ReportError("cannot report on zero experiment results")

    runs = []
    for result in pooled:
        succeeded, timeouts, rcode_failures, qps = tally_outcomes(
            _triples(result.outcomes)
        )
        issued = len(result.outcomes)
        partial = {
            "queries.issued": issued,
            "queries.succeeded": succeeded,
            "queries.failed": issued - succeeded,
            "queries.timeouts": timeouts,
            "queries.rcode_failures": rcode_failures,
            "throughput.qps": qps,
            "latencies_s": result.resolution_times,
            **cache_values(result.cache_stats, "sim."),
            **row_values("sim.link", result.link),
        }
        runs.append([partial])
    # The telemetry timeline only makes sense for one run: repeats
    # restart the simulated clock, so their per-second series would
    # overlay rather than concatenate.
    telemetry = None
    if len(pooled) == 1 and pooled[0].outcomes:
        from repro.obs.telemetry import timeline_from_outcomes

        telemetry = timeline_from_outcomes(
            _triples(pooled[0].outcomes)
        )
    return Report(
        substrate="sim",
        spec=spec if spec is not None else {},
        metrics=pool_metrics("sim", runs),
        telemetry=telemetry,
        raw=results if not single else pooled[0],
    )


def _live_partial(report: Dict[str, object]) -> Dict[str, object]:
    """What one :func:`~repro.live.loadgen.generate_load` dict measured."""
    partial = {
        "queries.issued": report["queries"],
        "queries.succeeded": report["succeeded"],
        "queries.failed": report["failed"],
        "queries.timeouts": report["timeouts"],
        "queries.rcode_failures": report["rcode_failures"],
        "throughput.qps": report["achieved_qps"],
        "latencies_s": report["latencies_s"],
        **cache_values(report.get("cache", {})),
        "live.mode": report["mode"],
        "live.offered_rate_qps": report["offered_rate_qps"],
        "live.concurrency": report["concurrency"],
        "live.elapsed_s": report["elapsed_s"],
    }
    if "worker" in report:
        partial.update(
            row_values(f"live.workers.load.{int(report['worker'])}", report)
        )
    return partial


def _live_whole(workers, load_failed, server_stats) -> Dict[str, object]:
    """The ``run`` rows and the merged ``SERVER_STATS`` rows of a live
    run. Only forked load workers stamp a ``worker`` index, and only a
    serve pool's block (:func:`repro.live.workers.merge_server_stats`)
    has ``runtime`` and ``workers``; a plain
    :meth:`~repro.live.server.DocLiveServer.stats` block has neither.
    """
    whole: Dict[str, object] = {}
    stamped = {
        int(report["worker"]) for report in workers if "worker" in report
    }
    if stamped:
        whole["live.workers.load.count"] = len(stamped)
        whole["live.workers.load.failed"] = load_failed
    if not server_stats:
        return whole
    runtime = server_stats.get("runtime")
    if isinstance(runtime, dict):
        failed_workers = server_stats.get("failed_workers", [])
        whole.update({
            "live.workers.serve.count": runtime.get("serve_workers", 1),
            "live.workers.serve.failed": server_stats.get("workers_failed", 0),
            "live.workers.serve.failed_workers": (
                ",".join(str(i) for i in failed_workers) or None
            ),
            "live.workers.reuseport": bool(runtime.get("reuseport")),
            "live.workers.warning": runtime.get("warning"),
        })
    per_worker = server_stats.get("workers")
    for entry in per_worker if isinstance(per_worker, list) else ():
        whole.update(row_values(
            f"live.workers.serve.{entry.get('worker', 0)}", entry
        ))
    whole.update(row_values("live.server", server_stats))
    resolver_cache = server_stats.get("resolver_cache")
    if isinstance(resolver_cache, dict):
        whole.update(row_values("live.cache.resolver", resolver_cache))
    return whole


def report_from_loadgen(
    reports,
    spec: Optional[Dict[str, object]] = None,
    server_stats: Optional[Dict[str, object]] = None,
    load_failed: int = 0,
) -> Report:
    """Build the unified Report from live load-generation output.

    *reports* is one :func:`~repro.live.loadgen.generate_load` dict, or
    a list with one entry per repeat, an entry being one dict or the
    list of dicts that repeat's load workers delivered
    (:func:`repro.live.workers.run_load`). Each dict is one partial of
    :func:`pool_metrics`: counters sum on both axes, every dict's
    ``latencies_s`` (one entry per success) pool, so the run-level
    latency is exact however many workers and repeats delivered it;
    side-by-side workers add their ``achieved_qps`` and offered load
    and the slowest one's ``elapsed_s`` is the repeat's, repeats
    average their throughput and add their elapsed time.

    *load_failed* is the number of load workers, over all repeats, that
    delivered nothing. *server_stats* optionally attaches the paired
    server's counters under ``live.server.*``.
    """
    from repro.obs.telemetry import merge_timelines

    single = not isinstance(reports, (list, tuple))
    repeats = [
        list(entry) if isinstance(entry, (list, tuple)) else [entry]
        for entry in ([reports] if single else reports)
    ]
    if not repeats or not all(repeats):
        raise ReportError("cannot report on zero loadgen reports")
    workers = [report for repeat in repeats for report in repeat]
    metrics = pool_metrics(
        "live",
        [[_live_partial(report) for report in repeat] for repeat in repeats],
        _live_whole(workers, load_failed, server_stats),
    )
    # Same single-run rule as the sim side: repeats restart the clock,
    # so only an unrepeated run carries its per-second series.
    telemetry = None
    if len(repeats) == 1:
        telemetry = merge_timelines(
            [report.get("telemetry") or [] for report in repeats[0]]
        ) or None
    return Report(
        substrate="live",
        spec=spec if spec is not None else {},
        metrics=metrics,
        telemetry=telemetry,
        raw=reports,
    )
