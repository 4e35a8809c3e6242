"""Reference fleet walk: the always-materialise engine, kept as an oracle.

This is the walk :func:`repro.fleet.run_fleet` performed before it
learnt to elide cache state no later query can read, written as a plain
loop: every client gets its ``KeyedCache`` pair on its first query,
every successful exchange stores, the service model re-derives its
failure probabilities on every draw, and the van der Corput point is
summed bit by bit. ``tests/test_fleet.py`` holds the engine to it —
``outcomes``, ``cache_stats``, ``latency_sample``, ``successes`` and
``active_clients`` must be equal for every spec.

Only what the engine itself decides is re-stated here. The inputs of
the walk (sample plan, arrival columns, calibration) and the cache it
drives (``repro.cache.KeyedCache``) are shared with the engine on
purpose: they are not what the differential tests.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace
from typing import Dict, Optional, Tuple

from repro.cache import CacheStats, EvictionPolicy, KeyedCache, LookupState
from repro.experiments.metrics import interpolate_sorted
from repro.fleet.arrivals import (
    defer_to_wake,
    flash_crowd_warp,
    generate_arrivals,
    plan_sample,
    sampled_workload,
)
from repro.fleet.options import FleetOptions
from repro.fleet.service import Calibration, calibrate
from repro.scenarios.runner import NAME_TEMPLATE, QueryOutcome
from repro.scenarios.scenario import Scenario
from repro.transports.registry import registry


def van_der_corput_loop(index: int) -> float:
    """Base-2 radical inverse of ``index + 1``, one bit at a time."""
    n = index + 1
    value, denominator = 0.0, 1.0
    while n:
        denominator *= 2.0
        value += (n & 1) / denominator
        n >>= 1
    return value


class ReferenceServiceModel:
    """Error accumulators + low-discrepancy resampling, unhoisted."""

    def __init__(self, calibration: Calibration) -> None:
        self.calibration = calibration
        self.timeout_acc = 0.0
        self.rcode_acc = 0.0
        self.first_index = 0
        self.rest_index = 0

    def draw(self, first_exchange: bool) -> Tuple[str, Optional[float]]:
        calibration = self.calibration
        self.timeout_acc += calibration.p_timeout
        if self.timeout_acc >= 1.0:
            self.timeout_acc -= 1.0
            return "timeout", None
        self.rcode_acc += calibration.p_rcode
        if self.rcode_acc >= 1.0:
            self.rcode_acc -= 1.0
            return "rcode", None
        if first_exchange:
            samples = calibration.first_latencies or calibration.rest_latencies
        else:
            samples = calibration.rest_latencies or calibration.first_latencies
        if not samples:
            return "timeout", None
        if first_exchange:
            u = van_der_corput_loop(self.first_index)
            self.first_index += 1
        else:
            u = van_der_corput_loop(self.rest_index)
            self.rest_index += 1
        return "ok", interpolate_sorted(samples, u * (len(samples) - 1))


class ReferenceSample:
    """Vitter's Algorithm R: a uniform sample of at most 4 096 values,
    its replacement slots drawn from a stream seeded like the run's."""

    def __init__(self, seed: int, capacity: int = 4096) -> None:
        self.rng, self.capacity = random.Random(seed), capacity
        self.values, self.count = [], 0

    def add(self, value: float) -> None:
        self.count += 1
        if len(self.values) < self.capacity:
            self.values.append(value)
        elif (slot := self.rng.randrange(self.count)) < self.capacity:
            self.values[slot] = value


def reference_run_fleet(
    scenario: Scenario, options: Optional[FleetOptions] = None
) -> SimpleNamespace:
    """The parent commit's walk; returns the fields the tests compare."""
    options = options if options is not None else FleetOptions()
    profile = registry.get(scenario.transport)
    calibration = calibrate(scenario, options)
    workload = scenario.workload
    plan = plan_sample(
        scenario.topology.clients,
        workload.num_queries,
        workload.query_rate,
        options.sample_cap,
    )

    rng = random.Random(scenario.seed)
    ttls = [
        float(rng.randint(*workload.ttl)) for _ in range(workload.num_names)
    ]
    arrivals = generate_arrivals(workload, plan, rng)
    names = sampled_workload(workload, plan).draw_name_indices(
        rng, plan.queries
    )
    if options.flash_crowd > 1.0:
        arrivals = flash_crowd_warp(
            arrivals, options.flash_crowd, workload.start,
            plan.queries / plan.rate,
        )
    clients = [index % plan.clients for index in range(plan.queries)]
    issue_times = defer_to_wake(
        arrivals, clients, options.duty_cycle, options.duty_period
    )
    if options.duty_cycle < 1.0:
        order = sorted(range(plan.queries), key=issue_times.__getitem__)
    else:
        order = list(range(plan.queries))

    model_rng = random.Random(f"fleet-model-{scenario.seed}")
    caching = scenario.caching_spec
    dns_enabled = caching.client_dns
    coap_enabled = caching.client_coap and profile.coap_based
    coap_consulted = coap_enabled and scenario.transport != "oscore"
    stats: Dict[str, CacheStats] = {}
    if dns_enabled:
        stats["client-dns"] = CacheStats()
    if coap_enabled:
        stats["client-coap"] = CacheStats()
    dns_caches: Dict[int, KeyedCache] = {}
    coap_caches: Dict[int, KeyedCache] = {}
    last_seen: Dict[int, float] = {}

    service = ReferenceServiceModel(calibration)
    sample = ReferenceSample(scenario.seed)
    outcomes = []
    wired_clients = set()
    run_duration = scenario.run_duration

    for index in order:
        issued_at = issue_times[index]
        if issued_at > run_duration:
            continue
        client = clients[index]
        name_index = names[index]
        rtype = workload.draw_rtype(rng)
        outcome = QueryOutcome(
            name=NAME_TEMPLATE.format(index=name_index),
            client=f"fleet{client}",
            issued_at=issued_at,
            resolution_time=None,
            rtype=rtype,
        )
        outcomes.append(outcome)

        # Churn: did the client survive since its last query?
        last = last_seen.get(client)
        last_seen[client] = issued_at
        if last is not None and options.churn > 0.0:
            gap = max(0.0, issued_at - last)
            if gap > 0.0 and (
                model_rng.random() >= math.exp(-options.churn * gap)
            ):
                for caches in (dns_caches, coap_caches):
                    if client in caches:
                        caches[client].clear()

        # Both caches exist from the client's first query on.
        dns = coap = None
        if dns_enabled:
            dns = dns_caches.get(client)
            if dns is None:
                dns = dns_caches[client] = KeyedCache(
                    caching.client_dns_capacity,
                    policy=EvictionPolicy.EXPIRED_FIRST,
                    keep_stale=False,
                    stats=stats["client-dns"],
                )
        if coap_consulted:
            coap = coap_caches.get(client)
            if coap is None:
                coap = coap_caches[client] = KeyedCache(
                    caching.client_coap_capacity,
                    policy=EvictionPolicy.EXPIRED_FIRST,
                    keep_stale=True,
                    stats=stats["client-coap"],
                )

        key = (name_index, rtype)
        if dns is not None:
            entry, state = dns.lookup(key, issued_at)
            if state is LookupState.HIT:
                outcome.resolution_time = 0.0
                sample.add(0.0)
                continue
        stale = False
        if coap is not None:
            entry, state = coap.lookup(key, issued_at)
            if state is LookupState.HIT:
                outcome.resolution_time = 0.0
                sample.add(0.0)
                if dns is not None:
                    remaining = entry.expires_at - issued_at
                    if remaining > 0:
                        dns.store(key, True, lifetime=remaining,
                                  now=issued_at)
                continue
            stale = state is LookupState.STALE

        first_exchange = client not in wired_clients
        wired_clients.add(client)
        kind, latency = service.draw(first_exchange)
        if kind != "ok":
            outcome.error = (
                "TimeoutError" if kind == "timeout" else "RcodeError"
            )
            continue
        done = issued_at + latency
        if done > run_duration:
            continue
        outcome.resolution_time = latency
        sample.add(latency)
        ttl = ttls[name_index]
        if coap is not None and ttl > 0:
            if stale:
                coap.refresh(key, done, ttl)
            else:
                coap.store(key, True, lifetime=ttl, now=done)
        if dns is not None and ttl > 0:
            dns.store(key, True, lifetime=ttl, now=done)

    scaled = {}
    for location, pooled in stats.items():
        scaled[location] = {
            name: int(round(value * plan.query_scale))
            for name, value in pooled.as_dict().items()
        }
    return SimpleNamespace(
        outcomes=outcomes,
        latency_sample=sample.values,
        successes=sample.count,
        cache_stats=scaled,
        active_clients=len(last_seen),
    )
