"""DoC load generation: measure real queries-per-second and latency.

Drives a :class:`~repro.live.client.LiveResolver` against a live
server in one of two disciplines:

* **open loop** — arrivals follow a :class:`~repro.scenarios.WorkloadSpec`
  arrival process (steady Poisson or on/off bursty) at the offered
  rate, independent of response latency: the honest way to measure a
  server under load;
* **closed loop** — ``concurrency`` workers issue back-to-back
  queries, measuring sustainable throughput at a fixed concurrency.

Names are drawn from the workload's popularity model (round-robin or
Zipf(α)) over the same deterministic universe the server built its
zone from. The result is a report dict: achieved qps, timeout and
failure counts, client cache ratios, the per-second telemetry rows and
every success's latency; :func:`repro.api.report.report_from_loadgen`
turns one or many of them into the JSON-ready Report.
"""

from __future__ import annotations

import asyncio
import random
from array import array
from typing import Callable, Dict, List, Optional, Sequence

from repro.api.report import REPORT_VERSION, classify_error, provenance
from repro.obs.telemetry import TelemetrySampler, run_sampler
from repro.scenarios.scenario import WorkloadSpec

from .client import LiveResolver
from .wiring import LiveWiringError

#: Top-level keys every report carries, in emission order. The version
#: and provenance stamps are the toolkit-wide ones from
#: :mod:`repro.api.report`.
REPORT_FIELDS = (
    "report_version", "provenance", "mode", "transport",
    "offered_rate_qps", "concurrency", "duration_s", "elapsed_s",
    "queries", "succeeded", "failed", "timeouts", "rcode_failures",
    "success_rate", "achieved_qps", "cache", "workload", "seed",
    "telemetry", "latencies_s",
)

__all__ = [
    "LoadGenError",
    "REPORT_FIELDS",
    "REPORT_VERSION",
    "generate_load",
]


class LoadGenError(LiveWiringError):
    """An inconsistent load-generation configuration.

    Subclasses :class:`~repro.live.wiring.LiveWiringError` so the CLI
    catches every live misconfiguration through one import-light base.
    """


async def generate_load(
    resolver: LiveResolver,
    names: Sequence[str],
    rate: float = 50.0,
    duration: float = 2.0,
    mode: str = "open",
    concurrency: int = 8,
    timeout: Optional[float] = None,
    seed: int = 1,
    workload: Optional[WorkloadSpec] = None,
    snapshot_sinks: Sequence[Callable[[Dict[str, object]], None]] = (),
) -> Dict[str, object]:
    """Run one load-generation pass and return the report dict.

    *resolver* must already be connected. *workload* carries the
    arrival/popularity knobs (its ``query_rate``/``num_queries``/
    ``num_names`` are overridden from *rate*, *duration*, and
    *names* so one spec works for both simulated and live runs);
    omitted, a steady-Poisson/round-robin spec is derived.

    Query outcomes count in plain integers, and each success's latency
    is appended once, in seconds and unrounded, to one ``array('d')``
    (8 B a sample) that rides in the report as ``latencies_s``:
    :func:`repro.api.report.report_from_loadgen` pools those of every
    worker and repeat and reduces them exactly. A
    :class:`repro.obs.telemetry.TelemetrySampler` polls the counts and
    the array's new tail every second into the report's ``telemetry``
    time series: a success lands in the row of the second it completed
    in, with exact percentiles over that second's samples.
    *snapshot_sinks* receive each per-second record as it is produced —
    the hook behind ``--stream`` and the stderr progress line.
    """
    if not names:
        raise LoadGenError("names must not be empty")
    if duration <= 0:
        raise LoadGenError("duration must be positive")
    if mode not in ("open", "closed"):
        raise LoadGenError(f"unknown load mode {mode!r} (open or closed)")
    if mode == "open" and rate <= 0:
        raise LoadGenError("rate must be positive in open-loop mode")
    if mode == "closed" and concurrency < 1:
        raise LoadGenError("concurrency must be >= 1 in closed-loop mode")

    from dataclasses import replace

    num_queries = max(1, round(rate * duration)) if mode == "open" else 1
    base = workload if workload is not None else WorkloadSpec()
    spec = replace(
        base,
        num_queries=num_queries,
        num_names=len(names),
        query_rate=rate if mode == "open" else base.query_rate,
        start=0.0,
    )

    rng = random.Random(seed)
    loop = asyncio.get_running_loop()
    latencies = array("d")
    issued = succeeded = timeouts = errors = rcode_failures = 0
    sampled = 0  # latencies[:sampled] are in a telemetry row already
    last_success_at: Optional[float] = None

    async def one_query(sequence_index: int) -> None:
        nonlocal issued, succeeded, timeouts, errors, rcode_failures
        nonlocal last_success_at
        issued += 1
        name = names[spec.draw_name_index(rng, sequence_index)]
        rtype = spec.draw_rtype(rng)
        try:
            result = await resolver.resolve(name, rtype, timeout=timeout)
        except Exception as error:
            # The sim's classifier: a DoC 4.xx/5.xx (an OSCORE
            # rejection too) is an rcode failure, not an unnamed error.
            kind = classify_error(type(error).__name__)
            if kind == "timeout":
                timeouts += 1
            elif kind == "rcode":
                rcode_failures += 1
            else:
                errors += 1
        else:
            if result.ok:
                # A response is only a success when the name resolved:
                # NXDOMAIN against a mismatched zone (e.g. differing
                # --name-seed between serve and loadtest) must not
                # read as a healthy run.
                succeeded += 1
                latencies.append(result.rtt)
                last_success_at = loop.time()
            else:
                rcode_failures += 1

    def counts_and_new_latencies():
        nonlocal sampled
        fresh, sampled = latencies[sampled:], len(latencies)
        failed = timeouts + errors + rcode_failures
        return (issued, succeeded, failed, timeouts), fresh

    sampler = TelemetrySampler(
        counts_and_new_latencies, time_fn=loop.time,
        sinks=snapshot_sinks,
    )
    sampler_stop = asyncio.Event()
    sampler_task = asyncio.ensure_future(run_sampler(sampler, sampler_stop))

    started = loop.time()
    if mode == "open":
        arrivals = spec.arrival_times(rng)
        tasks: List[asyncio.Task] = []
        for index, at in enumerate(arrivals):
            if at > duration:
                break
            delay = started + at - loop.time()
            # Always yield, even when behind schedule: otherwise the
            # created tasks never start and a backlog fires as one
            # clump instead of at the offered arrival instants.
            await asyncio.sleep(delay if delay > 0 else 0)
            tasks.append(asyncio.ensure_future(one_query(index)))
        if tasks:
            await asyncio.gather(*tasks)
    else:
        deadline = started + duration
        counter = iter(range(1 << 62))

        async def worker() -> None:
            while loop.time() < deadline:
                await one_query(next(counter))

        await asyncio.gather(*(worker() for _ in range(concurrency)))
    elapsed = loop.time() - started
    sampler_stop.set()
    timeline = await sampler_task

    failed = timeouts + errors + rcode_failures
    completed = succeeded + failed
    # Throughput over the span in which successes actually landed —
    # waiting out the timeouts of stragglers after the offered window
    # must not dilute the rate the server demonstrably sustained.
    success_span = (
        last_success_at - started if last_success_at is not None else 0.0
    )
    report: Dict[str, object] = {
        "report_version": REPORT_VERSION,
        "provenance": provenance(),
        "mode": mode,
        "transport": resolver.transport_name,
        "offered_rate_qps": rate if mode == "open" else None,
        "concurrency": concurrency if mode == "closed" else None,
        "duration_s": duration,
        "elapsed_s": round(elapsed, 3),
        "queries": issued,
        "succeeded": succeeded,
        "failed": failed,
        "timeouts": timeouts,
        "rcode_failures": rcode_failures,
        "success_rate": succeeded / completed if completed else 0.0,
        "achieved_qps": (
            round(succeeded / success_span, 3)
            if success_span > 0 else 0.0
        ),
        "cache": resolver.stats().get("caches", {}),
        "workload": {
            "names": len(names),
            "arrival": spec.arrival,
            "burst_on": spec.burst_on,
            "burst_off": spec.burst_off,
            "zipf_alpha": spec.zipf_alpha,
        },
        "seed": seed,
        "telemetry": timeline,
        "latencies_s": latencies,
    }
    return report
