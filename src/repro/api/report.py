"""The unified, versioned result document of the ``repro.api`` façade.

One :class:`Report` describes the outcome of one run regardless of the
substrate that produced it: a discrete-event simulation
(:class:`~repro.scenarios.ScenarioRunner`), a wall-clock serve+load
pairing (:mod:`repro.live`), or an aggregate fleet pass
(:mod:`repro.fleet`). Metric names are **stable dotted identifiers**
shared by every substrate, and emitted for all of them by one
function, :func:`common_vocabulary`:

``queries.*``
    ``issued``, ``succeeded``, ``failed``, ``timeouts``,
    ``rcode_failures``, ``success_rate``.
``latency.*``
    ``p50_ms``, ``p95_ms``, ``p99_ms``, ``mean_ms``, ``max_ms``
    (``null`` when no query succeeded).
``throughput.qps``
    Successful resolutions per second over the span successes landed in.
``cache.<location>.*``
    Per-location cache counters and ratios for the *client-side* cache
    locations the run's spec enabled (``client_dns``, ``client_coap``):
    ``hits``, ``misses``, ``stale_hits``, ``validations``,
    ``validation_failures``, ``hit_ratio``, ``stale_ratio``,
    ``validation_ratio``.

Everything only one substrate can measure is **explicitly namespaced**
under ``sim.*`` (link frames/bytes, resolver/proxy cache stats),
``live.*`` (wall-clock elapsed time, offered rate, loop mode, server
counters), or ``fleet.*`` (client count, sampling scale, service-model
calibration — see :mod:`repro.fleet`). Reports produced from the same
:class:`~repro.api.spec.RunSpec` on different substrates therefore
carry identical non-namespaced key sets and diff directly.

This module is import-light on purpose (stdlib only at module level):
:mod:`repro.live.loadgen` imports the shared :data:`REPORT_VERSION` /
:func:`provenance` stamp from here without pulling in the scenario
engine.
"""

from __future__ import annotations

import platform
import subprocess
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

#: Schema version shared by every JSON document the toolkit emits
#: (unified Reports, the loadgen report, ``sweep --json``). Bump on
#: breaking changes. Version 2 introduced the unified Report; version 1
#: was the loadgen-only report.
REPORT_VERSION = 2

#: Every substrate a RunSpec can execute on. Single-sourced: RunSpec
#: validation, Report validation, the ``common_metrics()`` namespace
#: filter, and ``tests/report_schema.json`` (via the schema-sync test)
#: all derive from this tuple, so adding a substrate is one edit here
#: plus the matching schema entry.
SUBSTRATES = ("sim", "live", "fleet")

#: The metric-key prefixes that mark substrate-namespaced metrics —
#: everything else is the common, substrate-agnostic vocabulary.
SUBSTRATE_NAMESPACES = tuple(f"{substrate}." for substrate in SUBSTRATES)

#: Sub-metrics every cache location reports, in emission order.
CACHE_METRICS = (
    "hits", "misses", "stale_hits", "validations", "validation_failures",
    "hit_ratio", "stale_ratio", "validation_ratio",
)

#: Cache locations that live on the client side — the only locations
#: both substrates can observe, hence the only non-namespaced ones.
CLIENT_CACHE_LOCATIONS = ("client_dns", "client_coap")

#: Latency quantile keys of the common vocabulary (milliseconds).
LATENCY_METRICS = ("p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms")


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
        return {f"latency.{key}": None for key in LATENCY_METRICS}
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


def pooled_caches(runs) -> Dict[str, object]:
    """The ``{location: block}`` cache mappings of many runs pooled
    per location (:func:`pooled_cache_stats`), location names
    normalized (``client-dns`` → ``client_dns``)."""
    by_location: Dict[str, list] = {}
    for caches in runs:
        for location, block in caches.items():
            by_location.setdefault(
                location.replace("-", "_"), []
            ).append(block)
    return {
        location: pooled_cache_stats(blocks)
        for location, blocks in by_location.items()
    }


def cache_metrics(stats, prefix: str = "") -> Dict[str, object]:
    """One location's :data:`CACHE_METRICS` read off a ``CacheStats``:
    its counters, and the ratios as its properties define them."""
    return {f"{prefix}{key}": getattr(stats, key) for key in CACHE_METRICS}


def tally_outcomes(outcomes):
    """Walk one run's query outcomes (``issued_at`` /
    ``resolution_time`` / ``error`` rows, the sim and fleet vocabulary).

    Returns ``(succeeded, timeouts, rcode_failures, qps)``. Every run
    restarts its clock, so throughput is derived per run — successes
    over the span from the first issue to the last success — and
    averaged across repeats by :func:`common_vocabulary`, the same
    aggregation the live substrate applies to its per-repeat achieved
    qps.
    """
    succeeded = timeouts = rcode_failures = 0
    first_issue: Optional[float] = None
    last_done: Optional[float] = None
    for outcome in outcomes:
        if outcome.resolution_time is not None:
            succeeded += 1
            done = outcome.issued_at + outcome.resolution_time
            last_done = done if last_done is None else max(last_done, done)
        elif outcome.error:
            kind = _classify_error(outcome.error)
            if kind == "timeout":
                timeouts += 1
            elif kind == "rcode":
                rcode_failures += 1
        if first_issue is None or outcome.issued_at < first_issue:
            first_issue = outcome.issued_at
    span = (
        last_done - first_issue
        if last_done is not None and first_issue is not None
        else 0.0
    )
    return (
        succeeded, timeouts, rcode_failures,
        succeeded / span if span > 0 else 0.0,
    )


def common_vocabulary(
    *,
    issued: int,
    succeeded: int,
    failed: int,
    timeouts: int,
    rcode_failures: int,
    latency: Dict[str, Optional[float]],
    qps_values: Sequence[float],
    caches: Dict[str, object],
) -> Dict[str, object]:
    """The substrate-agnostic vocabulary, emitted in one place.

    ``queries.*`` from the pooled counters (the success rate is over
    completed queries), ``latency.*`` as given (see
    :func:`latency_metrics`), ``throughput.qps`` as the mean of the
    per-repeat rates, and ``cache.<location>.*`` for the client-side
    locations among the pooled ``CacheStats`` in *caches* (keyed by
    normalized location) — what only one substrate can see (the
    simulator's resolver and proxy) is that substrate's to namespace.
    """
    completed = succeeded + failed
    metrics: Dict[str, object] = {
        "queries.issued": issued,
        "queries.succeeded": succeeded,
        "queries.failed": failed,
        "queries.timeouts": timeouts,
        "queries.rcode_failures": rcode_failures,
        "queries.success_rate": succeeded / completed if completed else 0.0,
    }
    metrics.update(latency)
    metrics["throughput.qps"] = (
        round(sum(qps_values) / len(qps_values), 3) if qps_values else 0.0
    )
    for location in sorted(caches):
        if location in CLIENT_CACHE_LOCATIONS:
            metrics.update(
                cache_metrics(caches[location], f"cache.{location}.")
            )
    return metrics


@dataclass
class Report:
    """One run's outcome, versioned and substrate-agnostic.

    ``spec`` is the JSON-ready description of the
    :class:`~repro.api.spec.RunSpec` that produced the run; ``metrics``
    maps the stable dotted names documented in the module docstring to
    scalars. ``raw`` keeps the substrate-native result object (an
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
        """Rebuild a Report from :meth:`to_json` output."""
        if not isinstance(payload, dict):
            raise ReportError(f"report must be an object, got {type(payload)}")
        missing = [
            key
            for key in ("report_version", "substrate", "spec", "metrics")
            if key not in payload
        ]
        if missing:
            raise ReportError(f"report is missing keys: {', '.join(missing)}")
        version = payload["report_version"]
        if not isinstance(version, int) or version < 1:
            raise ReportError(f"bad report_version: {version!r}")
        telemetry = payload.get("telemetry")
        return cls(
            substrate=payload["substrate"],
            spec=dict(payload["spec"]),
            metrics=dict(payload["metrics"]),
            report_version=version,
            provenance=dict(payload.get("provenance", {})),
            telemetry=list(telemetry) if telemetry is not None else None,
        )

    # -- accessors ---------------------------------------------------------

    def common_metrics(self) -> Dict[str, object]:
        """The substrate-agnostic (non-namespaced) metric subset."""
        return {
            key: value
            for key, value in self.metrics.items()
            if not key.startswith(SUBSTRATE_NAMESPACES)
        }

    def __getitem__(self, key: str) -> object:
        return self.metrics[key]


# -- substrate converters --------------------------------------------------

#: Error-name fragments classified as timeouts (sim outcomes record the
#: raising exception's type name).
_TIMEOUT_MARKERS = ("timeout",)

#: Error-name fragments classified as response-code failures.
_RCODE_MARKERS = ("rcode", "nxdomain", "servfail", "docerror")


def _classify_error(error_name: str) -> str:
    lowered = error_name.lower()
    if any(marker in lowered for marker in _TIMEOUT_MARKERS):
        return "timeout"
    if any(marker in lowered for marker in _RCODE_MARKERS):
        return "rcode"
    return "other"


def report_from_experiment_result(
    results,
    spec: Optional[Dict[str, object]] = None,
) -> Report:
    """Build the unified Report from simulation output.

    *results* is one :class:`~repro.scenarios.runner.ExperimentResult`
    or a list of them (repeated runs pool their samples: latencies and
    counters aggregate, cache stats merge per location).
    """
    single = not isinstance(results, (list, tuple))
    pooled = [results] if single else list(results)
    if not pooled:
        raise ReportError("cannot report on zero experiment results")

    issued = succeeded = timeouts = rcode_failures = 0
    latencies: List[float] = []
    qps_values: List[float] = []
    link_totals = {
        "frames_1hop": 0, "frames_2hop": 0,
        "bytes_1hop": 0, "bytes_2hop": 0,
        "queries_frames": 0, "responses_frames": 0,
    }
    for result in pooled:
        run_ok, run_timeouts, run_rcode, qps = tally_outcomes(result.outcomes)
        issued += len(result.outcomes)
        succeeded += run_ok
        timeouts += run_timeouts
        rcode_failures += run_rcode
        latencies.extend(result.resolution_times)
        qps_values.append(qps)
        for key in link_totals:
            link_totals[key] += getattr(result.link, key)
    caches = pooled_caches(result.cache_stats for result in pooled)

    metrics = common_vocabulary(
        issued=issued,
        succeeded=succeeded,
        failed=issued - succeeded,
        timeouts=timeouts,
        rcode_failures=rcode_failures,
        latency=latency_metrics(latencies),
        qps_values=qps_values,
        caches=caches,
    )
    for location in sorted(caches):
        if location not in CLIENT_CACHE_LOCATIONS:
            metrics.update(
                cache_metrics(caches[location], f"sim.cache.{location}.")
            )
    for key, value in link_totals.items():
        metrics[f"sim.link.{key}"] = value
    metrics["sim.repeats"] = len(pooled)
    # The telemetry timeline only makes sense for one run: repeats
    # restart the simulated clock, so their per-second series would
    # overlay rather than concatenate.
    telemetry = None
    if len(pooled) == 1 and pooled[0].outcomes:
        from repro.obs.telemetry import timeline_from_outcomes

        telemetry = timeline_from_outcomes(pooled[0].outcomes)
    return Report(
        substrate="sim",
        spec=spec if spec is not None else {},
        metrics=metrics,
        telemetry=telemetry,
        raw=results if not single else pooled[0],
    )


#: Per-load-worker counters surfaced as ``live.workers.load.<i>.*``.
_LOAD_WORKER_METRICS = (
    "queries", "succeeded", "failed", "timeouts", "rcode_failures",
    "achieved_qps",
)


def _worker_metrics(workers, load_failed, server_stats) -> Dict[str, object]:
    """The ``live.workers.*`` namespace from sharded-run detail.

    Load-side detail is each loadgen dict's own ``worker`` index (a
    forked load worker stamps it on what it delivers) and *load_failed*,
    the number of load workers that delivered nothing; serve-side
    detail rides in *server_stats*' ``workers``/``runtime`` blocks
    (:func:`repro.live.workers.merge_server_stats`). Per-worker counters
    sum index-by-index across repeats — summing any
    ``live.workers.load.<i>.queries`` column therefore reproduces the
    top-level ``queries.issued``. A load side that ran in the caller's
    process stamps no ``worker`` and adds no ``live.workers.load.*``;
    every self-served run has a serve pool, of one worker or more, and
    reports it. A plain :meth:`~repro.live.server.DocLiveServer.stats`
    block (a library caller's own in-loop server) has neither pool
    block and adds nothing here.
    """
    from repro.live.server import SERVER_STATS

    metrics: Dict[str, object] = {}
    load_totals: Dict[int, Dict[str, float]] = {}
    for report in workers:
        if "worker" not in report:
            continue
        totals = load_totals.setdefault(
            int(report["worker"]),
            {key: 0 for key in _LOAD_WORKER_METRICS},
        )
        for key in _LOAD_WORKER_METRICS:
            totals[key] += report[key]
    if load_totals:
        metrics["live.workers.load.count"] = len(load_totals)
        metrics["live.workers.load.failed"] = load_failed
        for index in sorted(load_totals):
            for key in _LOAD_WORKER_METRICS:
                value = load_totals[index][key]
                metrics[f"live.workers.load.{index}.{key}"] = (
                    round(value, 3) if key == "achieved_qps" else value
                )
    if server_stats:
        runtime = server_stats.get("runtime")
        per_worker = server_stats.get("workers")
        if isinstance(runtime, dict):
            metrics["live.workers.serve.count"] = runtime.get(
                "serve_workers", 1
            )
            metrics["live.workers.serve.failed"] = server_stats.get(
                "workers_failed", 0
            )
            failed_workers = server_stats.get("failed_workers", [])
            metrics["live.workers.serve.failed_workers"] = (
                ",".join(str(i) for i in failed_workers)
                if failed_workers else None
            )
            metrics["live.workers.reuseport"] = bool(
                runtime.get("reuseport")
            )
            metrics["live.workers.warning"] = runtime.get("warning")
        if isinstance(per_worker, list):
            for entry in per_worker:
                index = entry.get("worker", 0)
                for row in SERVER_STATS:
                    if row.report == "worker" and row.path in entry:
                        metrics[f"live.workers.serve.{index}.{row.path}"] = (
                            entry[row.path]
                        )
    return metrics


def report_from_loadgen(
    reports,
    spec: Optional[Dict[str, object]] = None,
    server_stats: Optional[Dict[str, object]] = None,
    load_failed: int = 0,
) -> Report:
    """Build the unified Report from live load-generation output — the
    one place loadgen dicts are pooled, on both axes.

    *reports* is one :func:`~repro.live.loadgen.generate_load` dict, or
    a list with one entry per repeat, an entry being one dict or the
    list of dicts that repeat's load workers delivered
    (:func:`repro.live.workers.run_load`). Counters sum, every dict's
    ``latencies_s`` (one entry per success) concatenate and
    :func:`latency_metrics` reduces them, so the run-level latency is
    exact however many workers and repeats delivered it, and caches pool
    per location, all over every dict. The workers of
    one repeat ran side by side: their ``achieved_qps`` and their
    shares of the offered rate or concurrency add, and the slowest
    one's ``elapsed_s`` is the repeat's. Repeats ran one after another:
    ``throughput.qps`` is the mean of theirs, ``live.elapsed_s`` the
    sum, and the offered load is read off the first.

    *load_failed* is the number of load workers, over all repeats, that
    delivered nothing (what they would have offered is in no sum).
    *server_stats* optionally attaches the paired server's counters
    under ``live.server.*``.
    """
    from repro.live.server import SERVER_STATS
    from repro.obs.telemetry import merge_timelines

    single = not isinstance(reports, (list, tuple))
    repeats = [
        list(entry) if isinstance(entry, (list, tuple)) else [entry]
        for entry in ([reports] if single else reports)
    ]
    if not repeats or not all(repeats):
        raise ReportError("cannot report on zero loadgen reports")
    workers = [report for repeat in repeats for report in repeat]

    counters = {
        "queries": 0, "succeeded": 0, "failed": 0,
        "timeouts": 0, "rcode_failures": 0,
    }
    latencies_s: List[float] = []
    for report in workers:
        for key in counters:
            counters[key] += report[key]
        latencies_s.extend(report["latencies_s"])
    metrics = common_vocabulary(
        issued=counters["queries"],
        succeeded=counters["succeeded"],
        failed=counters["failed"],
        timeouts=counters["timeouts"],
        rcode_failures=counters["rcode_failures"],
        latency=latency_metrics(latencies_s),
        qps_values=[
            round(sum(report["achieved_qps"] for report in repeat), 3)
            for repeat in repeats
        ],
        caches=pooled_caches(report.get("cache", {}) for report in workers),
    )

    first = repeats[0]
    mode = first[0]["mode"]
    metrics["live.mode"] = mode
    # Rounded so that three shares of 100/3 read 100.0.
    metrics["live.offered_rate_qps"] = (
        round(sum(report["offered_rate_qps"] for report in first), 9)
        if mode == "open" else None
    )
    metrics["live.concurrency"] = (
        sum(report["concurrency"] for report in first)
        if mode == "closed" else None
    )
    metrics["live.elapsed_s"] = round(sum(
        max(report["elapsed_s"] for report in repeat) for repeat in repeats
    ), 3)
    metrics["live.repeats"] = len(repeats)
    metrics.update(_worker_metrics(workers, load_failed, server_stats))
    if server_stats:
        for row in SERVER_STATS:
            if row.report and row.path in server_stats:
                metrics[f"live.server.{row.path}"] = server_stats[row.path]
        resolver_cache = server_stats.get("resolver_cache")
        if isinstance(resolver_cache, dict):
            for key, value in resolver_cache.items():
                metrics[f"live.cache.resolver.{key}"] = value
    # Same single-run rule as the sim side: repeats restart the clock,
    # so only an unrepeated run carries its per-second series.
    telemetry = None
    if len(repeats) == 1:
        telemetry = merge_timelines(
            [report.get("telemetry") or [] for report in first]
        ) or None
    return Report(
        substrate="live",
        spec=spec if spec is not None else {},
        metrics=metrics,
        telemetry=telemetry,
        raw=reports,
    )


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """``python -m repro.api.report`` — print the provenance stamp."""
    import json

    print(json.dumps(
        {"report_version": REPORT_VERSION, "provenance": provenance()},
        indent=2,
    ))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
