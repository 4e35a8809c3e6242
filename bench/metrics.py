"""The metrics the benchmark reports, and how they come out of the legs.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names, units and directions; ``BENCHMARK.json`` repeats them (the smoke
test checks that the two agree).
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Sequence, Tuple

from .trace import Tracer
from .workloads import Leg

#: name, unit, which direction is better, and the share of the parent's
#: median by which the metric may worsen before a change is a regression.
#: A bound has to be wider than the metric's own spread between runs
#: with different seeds (README, "Steadiness"): the timings move 12-15 %
#: with the state of this shared host, wire bytes 3.4 % with the seed.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "op/s", "higher", 0.25),
    ("cpu_us_per_op", "us", "lower", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("ok_share", "ratio", "higher", 0.001),
    ("wire_bytes_per_op", "B", "lower", 0.12),
)

#: Labels of ``trace.TARGETS`` that get a ``<label>.self_us_per_op``.
_SELF_US_LABELS = (
    "live.transport.recv", "live.transport.send",
    "coap.message.encode", "coap.message.decode", "coap.endpoint",
    "doc.server", "doc.client",
    "dns.message.encode", "dns.message.decode", "dns.resolver",
    "cache.lookup", "cache.store",
    "crypto.ccm.encrypt", "crypto.ccm.decrypt",
    "oscore.protect", "oscore.unprotect", "cborlib",
    "dtls.record.seal", "dtls.record.open", "dtls.handshake",
    "lowpan.to_frames", "lowpan.to_packet",
)

#: name, unit, which direction is better. No bounds: these say where an
#: end-to-end change came from, they do not gate.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    *((f"{label}.self_us_per_op", "us", "lower") for label in _SELF_US_LABELS),
    ("live.transport.datagrams_per_op", "count", "lower"),
    ("live.transport.burst_mean", "count", "higher"),
    ("live.transport.recv_errors", "count", "lower"),
    ("live.transport.send_buffer_drops", "count", "lower"),
    ("coap.message.calls_per_op", "count", "lower"),
    ("coap.endpoint.retransmissions_per_op", "count", "lower"),
    ("doc.server.fastpath_hit_ratio", "ratio", "higher"),
    ("dns.message.calls_per_op", "count", "lower"),
    ("dns.resolver.cache_hit_ratio", "ratio", "higher"),
    ("cache.lookups_per_op", "count", "lower"),
    ("cache.stores_per_op", "count", "lower"),
    ("cache.evictions_per_op", "count", "lower"),
    ("crypto.ccm.calls_per_op", "count", "lower"),
    ("lowpan.frames_per_op", "count", "lower"),
    ("sim.core.events_per_op", "count", "lower"),
    ("sim.core.cancelled_share", "ratio", "lower"),
    ("sim.core.run.self_us_per_event", "us", "lower"),
    ("sim.core.schedule.self_us_per_event", "us", "lower"),
    ("api.run.self_ms_per_cell", "ms", "lower"),
    ("fleet.service.calibrate_s", "s", "lower"),
    ("fleet.arrivals.s_per_leg", "s", "lower"),
    ("fleet.engine.self_s_per_leg", "s", "lower"),
    ("fleet.report.s_per_leg", "s", "lower"),
    ("fleet.sampled_clients", "count", "higher"),
    ("driver.p99_ms", "ms", "lower"),
    ("driver.p999_ms", "ms", "lower"),
    ("driver.samples", "count", "higher"),
    ("driver.leg_spread", "ratio", "lower"),
    ("driver.mean_over_quiet", "ratio", "lower"),
    ("loop.residual_us_per_op", "us", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.targets_missing", "count", "lower"),
)

#: The per-leg series ``--compare`` needs to tell a shift from noise.
PER_LEG_METRICS = ("ops_per_s", "cpu_us_per_op", "p50_ms")


def per_leg_series(legs: Sequence[Leg]) -> Dict[str, List[float]]:
    return {
        "ops_per_s": [(leg.ops - leg.failed) / leg.wall_s for leg in legs],
        "cpu_us_per_op": [leg.cpu_s / leg.ops * 1e6 for leg in legs],
        "p50_ms": [statistics.median(leg.call_s) * 1e3 for leg in legs],
    }


def quiet(values: Sequence[float]) -> float:
    """The first decile of timings of like work (the smallest of fewer
    than ten): what the work costs when the host leaves it alone.

    The neighbours of this shared host slow single slices by 10-40 %, in
    bursts of 10 ms to a few seconds, and never speed one up. Over the
    slices of a 15 s run the median follows those bursts (18-35 % from
    run to run while they last), the first decile does not (2-5 %), and
    both move alike when the program itself gets slower (README,
    "Steadiness").
    """
    ordered = sorted(values)
    return ordered[len(ordered) // 10]


def quiet_leg(legs: Sequence[Leg]) -> Tuple[float, float, List[float]]:
    """(wall s, CPU s, call durations) of one leg put together from the
    quiet slices of every kind; the calls are one per kind."""
    kinds: Dict[int, List[Tuple[int, int, float, float, float]]] = {}
    for leg in legs:
        for entry in leg.slices:
            kinds.setdefault(entry[0], []).append(entry)
    wall_s = cpu_s = 0.0
    calls = []
    for slices in kinds.values():
        # Slices of one kind hold the same number of operations.
        per_leg = legs[0].ops / len(kinds) / slices[0][1]
        wall_s += quiet([entry[2] for entry in slices]) * per_leg
        cpu_s += quiet([entry[3] for entry in slices]) * per_leg
        calls.append(quiet([entry[4] for entry in slices]))
    return wall_s, cpu_s, calls


def spread(values: Sequence[float]) -> float:
    """(max − min) ÷ median: the in-run noise estimate of a series."""
    return (max(values) - min(values)) / statistics.median(values)


def end_to_end(
    legs: Sequence[Leg], ready_s: Sequence[float]
) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run.

    *ready_s* are the samples, one per fresh interpreter, of process
    start → first timed operation of leg 1; later legs contribute what
    they paid to rebuild their inputs.
    """
    rebuilds = [leg.setup_s for leg in legs[1:]]
    attempted = sum(leg.ops for leg in legs)
    failed = sum(leg.failed for leg in legs)
    ok_share = 1 - failed / attempted
    wall_s, cpu_s, calls = quiet_leg(legs)
    return {
        "setup_s": quiet(ready_s) + quiet(rebuilds),
        "ops_per_s": legs[0].ops * ok_share / wall_s,
        "cpu_us_per_op": cpu_s / legs[0].ops * 1e6,
        "p50_ms": statistics.median(calls) * 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": ok_share,
        "wire_bytes_per_op":
            statistics.median(leg.wire_bytes_per_op for leg in legs),
    }


def supported_percentile(ordered: Sequence[float], share: float) -> float:
    """The *share* quantile of *ordered* samples, or 0 when fewer than
    ten samples lie beyond it (too few to call it a percentile)."""
    beyond = int(len(ordered) * (1 - share))
    if beyond < 10:
        return 0.0
    return ordered[len(ordered) - beyond - 1]


def per_layer(
    untraced: Sequence[Leg], traced: Sequence[Leg], tracer: Tracer
) -> Dict[str, float]:
    """The per-layer metrics: self times and counts of the traced legs,
    per operation, next to the untraced legs they are compared with."""
    ops = sum(leg.ops for leg in traced)
    legs = len(traced)

    def layer_sum(key: str) -> float:
        return sum(leg.layer.get(key, 0) for leg in traced)

    def layer_mean(key: str) -> float:
        return layer_sum(key) / legs

    values = {
        f"{label}.self_us_per_op": tracer.self_s(label) * 1e6 / ops
        for label in _SELF_US_LABELS
    }
    bursts = layer_sum("recv_bursts")
    events = tracer.calls("sim.core.events")
    cancels = tracer.calls("sim.core.cancels")
    cells = layer_sum("cells")
    values.update({
        "live.transport.datagrams_per_op": layer_sum("datagrams") / ops,
        "live.transport.burst_mean":
            layer_sum("datagrams_received") / bursts if bursts else 0.0,
        "live.transport.recv_errors": layer_sum("recv_errors"),
        "live.transport.send_buffer_drops": layer_sum("send_buffer_drops"),
        "coap.message.calls_per_op": (
            tracer.calls("coap.message.encode")
            + tracer.calls("coap.message.decode")
        ) / ops,
        "coap.endpoint.retransmissions_per_op":
            tracer.calls("coap.endpoint.timeouts") / ops,
        "doc.server.fastpath_hit_ratio": layer_mean("fastpath_hit_ratio"),
        "dns.message.calls_per_op": (
            tracer.calls("dns.message.encode")
            + tracer.calls("dns.message.decode")
        ) / ops,
        "dns.resolver.cache_hit_ratio": layer_mean("resolver_cache_hit_ratio"),
        "cache.lookups_per_op": tracer.calls("cache.lookup") / ops,
        "cache.stores_per_op": tracer.calls("cache.store") / ops,
        "cache.evictions_per_op": tracer.calls("cache.evictions") / ops,
        "crypto.ccm.calls_per_op": (
            tracer.calls("crypto.ccm.encrypt")
            + tracer.calls("crypto.ccm.decrypt")
        ) / ops,
        "lowpan.frames_per_op": layer_sum("frames") / ops,
        "sim.core.events_per_op": events / ops,
        "sim.core.cancelled_share":
            cancels / (events + cancels) if events else 0.0,
        "sim.core.run.self_us_per_event":
            tracer.self_s("sim.core.run") * 1e6 / events if events else 0.0,
        "sim.core.schedule.self_us_per_event":
            tracer.self_s("sim.core.schedule") * 1e6 / events
            if events else 0.0,
        "api.run.self_ms_per_cell":
            tracer.self_s("api.run") * 1e3 / cells if cells else 0.0,
        "fleet.service.calibrate_s": layer_mean("calibrate_s"),
        "fleet.arrivals.s_per_leg": tracer.self_s("fleet.arrivals") / legs,
        "fleet.engine.self_s_per_leg": tracer.self_s("fleet.engine") / legs,
        "fleet.report.s_per_leg": tracer.self_s("fleet.report") / legs,
        "fleet.sampled_clients": layer_mean("sampled_clients"),
    })

    calls = sorted(sample for leg in untraced for sample in leg.call_s)
    untraced_ops = per_leg_series(untraced)["ops_per_s"]
    untraced_quiet_s = quiet_leg(untraced)[0]
    cpu_us = sum(leg.cpu_s for leg in traced) * 1e6 / ops
    self_us = tracer.total_self_s() * 1e6 / ops
    values.update({
        "driver.p99_ms": supported_percentile(calls, 0.99) * 1e3,
        "driver.p999_ms": supported_percentile(calls, 0.999) * 1e3,
        "driver.samples": len(calls),
        "driver.leg_spread": spread(untraced_ops),
        # Above 1 by what the host's bursts, and whatever the program
        # does in fewer than nine slices of ten, added to the run.
        "driver.mean_over_quiet":
            statistics.fmean(leg.wall_s for leg in untraced)
            / untraced_quiet_s,
        "loop.residual_us_per_op": cpu_us - self_us,
        "trace.coverage": self_us / cpu_us,
        "trace.overhead_share": 1 - untraced_quiet_s / quiet_leg(traced)[0],
        "trace.targets_missing": len(tracer.missing),
    })
    return values
