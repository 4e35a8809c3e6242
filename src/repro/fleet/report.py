"""Fleet results → the unified :class:`~repro.api.report.Report`.

A fleet Report carries exactly the non-namespaced metric key set the
other substrates emit — ``queries.*``, ``latency.*``,
``throughput.qps``, and ``cache.client_dns.*`` / ``cache.client_coap.*``
when those locations are active — plus a ``fleet.*`` namespaced block
describing the scaling plan, the fleet-only dimensions, and the
service-model calibration. Sampled counters are blown up to fleet
totals by the run's :class:`~repro.fleet.arrivals.SamplePlan` scales;
latency comes straight from the (unscaled) latency sample, since
quantiles are scale-invariant under client sampling. The engine keeps a
uniform 4 096 of a run's success latencies, not all of them, so past
that many successes ``latency.*`` is an estimate and
``fleet.tolerance.exact`` reads false.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.api.report import (
    Report,
    ReportError,
    cache_values,
    pool_metrics,
    row_values,
    tally_outcomes,
)

from .engine import FleetResult


def _scaled_telemetry(
    result: FleetResult,
) -> Optional[List[Dict[str, object]]]:
    """The per-second timeline, with counts scaled to fleet totals.

    Buckets come from the sampled columns via the shared
    :func:`~repro.obs.telemetry.timeline_from_outcomes`; each row's
    counts then scale by the plan's query scale (rounded back to
    integers) and :func:`~repro.obs.telemetry.telemetry_row` rebuilds
    the row from them, so the series reads as what the whole fleet did
    per second and its rate is ``succeeded / interval`` like every other
    row's. Latency quantiles stay unscaled — sampling thins the
    population, not the per-query latency distribution.
    """
    if not result.issued_at:
        return None
    from repro.obs.telemetry import telemetry_row, timeline_from_outcomes

    timeline = timeline_from_outcomes(_triples(result))
    scale = result.plan.query_scale
    if scale == 1.0:
        return timeline
    scaled = []
    for row in timeline:
        counts = tuple(
            int(round(row[key] * scale))
            for key in ("queries", "succeeded", "failed", "timeouts")
        )
        entry = telemetry_row(row["t"], row["interval_s"], counts)
        entry["latency_ms"] = row["latency_ms"]
        scaled.append(entry)
    return scaled


def _triples(result: FleetResult):
    """The run's ``(issued_at, resolution_time, error)`` per query."""
    return zip(result.issued_at, result.resolution_time, result.error)


def _fleet_partial(result: FleetResult) -> Dict[str, object]:
    """What one fleet run measured, its sampled counters blown up to
    fleet totals by the plan's scales."""
    plan = result.plan
    scale = plan.query_scale
    succeeded, timeouts, rcode_failures, qps = tally_outcomes(
        _triples(result)
    )
    issued = int(round(len(result.issued_at) * scale))
    ok = int(round(succeeded * scale))
    failed = issued - ok
    # Round the failure breakdown inside the scaled failure total so
    # issued = succeeded + failed always survives the scaling.
    timeouts = min(failed, int(round(timeouts * scale)))
    return {
        "queries.issued": issued,
        "queries.succeeded": ok,
        "queries.failed": failed,
        "queries.timeouts": timeouts,
        "queries.rcode_failures": min(
            failed - timeouts, int(round(rcode_failures * scale))
        ),
        # The sampled sub-fleet ran at rate × clients/fleet_clients, so
        # its achieved qps scales back up by the client scale.
        "throughput.qps": qps * plan.client_scale,
        "latencies_s": result.latency_sample,
        **cache_values(result.cache_stats),
        "fleet.clients": plan.fleet_clients,
        "fleet.active_clients": result.active_clients,
        "fleet.sample.queries": plan.queries,
        "fleet.sample.scale": scale,
        # "Exact" = every fleet query was simulated individually and
        # every success latency kept — the Report equals an exact-sim
        # aggregate up to the service-model approximation, with no
        # sampling error on top.
        "fleet.tolerance.exact": (
            plan.exact and result.successes <= len(result.latency_sample)
        ),
        **row_values("fleet", result.options),
        **row_values("fleet.calibration", result.calibration),
    }


def report_from_fleet(
    results,
    spec: Optional[Dict[str, object]] = None,
) -> Report:
    """Build the unified Report from fleet-engine output.

    *results* is one :class:`~repro.fleet.engine.FleetResult` or a list
    of them, one per repeat (:func:`~repro.api.report.pool_metrics`
    pools them).
    """
    single = not isinstance(results, (list, tuple))
    pooled = [results] if single else list(results)
    if not pooled:
        raise ReportError("cannot report on zero fleet results")

    metrics = pool_metrics("fleet", [[_fleet_partial(r)] for r in pooled])
    head = pooled[0]
    metrics["fleet.active_clients"] = int(round(
        metrics["fleet.active_clients"] * head.plan.client_scale
    ))
    telemetry = _scaled_telemetry(head) if len(pooled) == 1 else None
    return Report(
        substrate="fleet",
        spec=spec if spec is not None else {},
        metrics=metrics,
        telemetry=telemetry,
        raw=results if not single else pooled[0],
    )
