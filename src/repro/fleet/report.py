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
    common_vocabulary,
    latency_metrics,
    pooled_caches,
    tally_outcomes,
)

from .engine import FleetResult


def _scaled_telemetry(
    result: FleetResult,
) -> Optional[List[Dict[str, object]]]:
    """The per-second timeline, with counts scaled to fleet totals.

    Buckets come from the sampled outcomes via the shared
    :func:`~repro.obs.telemetry.timeline_from_outcomes`; each row's
    counts then scale by the plan's query scale (rounded back to
    integers) and :func:`~repro.obs.telemetry.telemetry_row` rebuilds
    the row from them, so the series reads as what the whole fleet did
    per second and its rate is ``succeeded / interval`` like every other
    row's. Latency quantiles stay unscaled — sampling thins the
    population, not the per-query latency distribution.
    """
    if not result.outcomes:
        return None
    from repro.obs.telemetry import telemetry_row, timeline_from_outcomes

    timeline = timeline_from_outcomes(result.outcomes)
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


def report_from_fleet(
    results,
    spec: Optional[Dict[str, object]] = None,
) -> Report:
    """Build the unified Report from fleet-engine output.

    *results* is one :class:`~repro.fleet.engine.FleetResult` or a list
    of them (repeated runs pool: counters aggregate across repeats,
    latency samples pool, per-location cache counters sum).
    """
    single = not isinstance(results, (list, tuple))
    pooled = [results] if single else list(results)
    if not pooled:
        raise ReportError("cannot report on zero fleet results")

    issued = succeeded = timeouts = rcode_failures = 0
    latencies: List[float] = []
    qps_values: List[float] = []
    active_clients = 0
    saturated = False
    for result in pooled:
        plan = result.plan
        scale = plan.query_scale
        run_succeeded, run_timeouts, run_rcode, qps = tally_outcomes(
            result.outcomes
        )
        run_issued = int(round(len(result.outcomes) * scale))
        run_ok = int(round(run_succeeded * scale))
        run_failed = run_issued - run_ok
        # Round the failure breakdown inside the scaled failure total so
        # issued = succeeded + failed always survives the scaling.
        run_to = min(run_failed, int(round(run_timeouts * scale)))
        run_rc = min(run_failed - run_to, int(round(run_rcode * scale)))
        issued += run_issued
        succeeded += run_ok
        timeouts += run_to
        rcode_failures += run_rc
        latencies.extend(result.latency_sample)
        # The sampled sub-fleet ran at rate × clients/fleet_clients, so
        # its achieved qps scales back up by the client scale.
        qps_values.append(qps * plan.client_scale)
        active_clients += result.active_clients
        saturated = saturated or (
            result.successes > len(result.latency_sample)
        )

    # Counters sum across repeats, so the ratios describe the pooled
    # counters, not an average of averages.
    metrics = common_vocabulary(
        issued=issued,
        succeeded=succeeded,
        failed=issued - succeeded,
        timeouts=timeouts,
        rcode_failures=rcode_failures,
        latency=latency_metrics(latencies),
        qps_values=qps_values,
        caches=pooled_caches(result.cache_stats for result in pooled),
    )

    head = pooled[0]
    plan = head.plan
    options = head.options
    metrics["fleet.clients"] = plan.fleet_clients
    metrics["fleet.active_clients"] = int(
        round(active_clients / len(pooled) * plan.client_scale)
    )
    metrics["fleet.repeats"] = len(pooled)
    metrics["fleet.sample.queries"] = plan.queries
    metrics["fleet.sample.scale"] = round(plan.query_scale, 3)
    # "Exact" = every fleet query was simulated individually and every
    # success latency kept — the Report equals an exact-sim aggregate up
    # to the service-model approximation, with no sampling error on top.
    metrics["fleet.tolerance.exact"] = plan.exact and not saturated
    metrics["fleet.churn"] = options.churn
    metrics["fleet.duty_cycle"] = options.duty_cycle
    metrics["fleet.flash_crowd"] = options.flash_crowd
    metrics.update(head.calibration.metrics())

    telemetry = _scaled_telemetry(head) if len(pooled) == 1 else None
    return Report(
        substrate="fleet",
        spec=spec if spec is not None else {},
        metrics=metrics,
        telemetry=telemetry,
        raw=results if not single else pooled[0],
    )
