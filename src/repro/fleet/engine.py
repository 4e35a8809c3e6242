"""The fleet engine: one aggregate pass over a run's query columns.

Where the exact simulator schedules per-event callbacks through a heap
and instantiates a protocol stack per client, the fleet engine
generates the whole run as arrays — arrival instants, name draws, and
client assignments in bulk (:mod:`repro.fleet.arrivals`) — and walks
them once in issue order, consulting the aggregate cache model
(:mod:`repro.fleet.cache`) and the calibrated service-time model
(:mod:`repro.fleet.service`) per query. Engine work is
``O(min(num_queries, sample_cap))`` regardless of the fleet size, so a
million-client run costs the same as a sixty-four-thousand-query one —
and the walk keeps state only where a later query can read it: how
often each client asks is known from the columns, so a client's caches
are built at its first store that one of its own later queries can
see (:mod:`repro.fleet.cache`), never for a client that asks once.

The walk's output is columns too, not one object per query: each
issued query appends its sample index, record type, issue instant,
resolution time and error to flat arrays and lists
(:class:`FleetResult`), and per-client state is a dense array over the
clients the walk can reach. :attr:`FleetResult.outcomes` rebuilds the
exact simulator's per-query rows on demand, for callers that compare
row by row; the Report reads the columns.

Semantics mirror the exact per-node stack query-for-query:

* client DNS cache hit → resolved immediately (latency 0), the CoAP
  cache is not consulted;
* DNS miss, fresh client CoAP hit → resolved immediately, the replayed
  response enters the DNS cache with its *remaining* freshness;
* stale CoAP hit → a wire exchange revalidates the entry (counted as a
  validation) and both caches restamp to the full TTL;
* miss everywhere → a wire exchange; successes store into both caches
  at completion time (zero-TTL answers are uncacheable), timeouts and
  rcode failures store nothing;
* arrivals after ``run_duration`` never issue, and exchanges still in
  flight at ``run_duration`` count as unresolved — both exactly as the
  event loop's ``run(until=...)`` cutoff behaves.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache import LookupState
from repro.scenarios.runner import NAME_TEMPLATE, QueryOutcome
from repro.scenarios.scenario import Scenario
from repro.transports.registry import registry

from .arrivals import (
    SamplePlan,
    defer_to_wake,
    flash_crowd_warp,
    generate_arrivals,
    plan_sample,
    sampled_workload,
)
from .cache import FleetCacheModel
from .options import FleetOptions
from .service import Calibration, ServiceModel, calibrate

#: Success latencies a run keeps (a uniform sample of them, Algorithm R).
_SAMPLE_CAPACITY = 4096


@dataclass
class FleetResult:
    """One fleet run's raw output (unscaled sample + the scaling plan).

    The sampled queries that issued are five columns of equal length,
    in walk (issue) order and unscaled: ``query`` (the index ``i`` in
    the sample — client ``i % plan.clients``, name
    ``name_indices[i]``), ``rtype``, ``issued_at``,
    ``resolution_time`` (``None`` unless resolved) and ``error``
    (``None`` unless the exchange failed).
    """

    scenario: Scenario
    options: FleetOptions
    plan: SamplePlan
    calibration: Calibration
    query: array
    rtype: array
    issued_at: List[float]
    resolution_time: List[Optional[float]]
    error: List[Optional[str]]
    #: The sample's name draw, one name index per query index.
    name_indices: List[int]
    #: A uniform sample of at most 4 096 success latencies (seconds):
    #: the fleet cannot keep and sort every draw inside its walk.
    latency_sample: List[float]
    #: Successes the sample was drawn from.
    successes: int
    #: Per-location cache counters of the sample, fleet-scaled.
    cache_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    active_clients: int = 0

    @property
    def outcomes(self) -> List[QueryOutcome]:
        """The columns as the exact simulator's per-query rows (built on
        every access)."""
        labels = [
            NAME_TEMPLATE.format(index=i)
            for i in range(self.scenario.workload.num_names)
        ]
        clients, names = self.plan.clients, self.name_indices
        return [
            QueryOutcome(
                labels[names[index]], f"fleet{index % clients}",
                issued_at, resolution_time, error, rtype,
            )
            for index, rtype, issued_at, resolution_time, error in zip(
                self.query, self.rtype, self.issued_at,
                self.resolution_time, self.error,
            )
        ]


def run_fleet(
    scenario: Scenario, options: Optional[FleetOptions] = None
) -> FleetResult:
    """Execute *scenario* on the fleet substrate."""
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

    # One seeded stream for the workload draws, consumed in the exact
    # runner's order (zone TTLs, then arrivals, then per-query draws);
    # bulk draws advance it exactly as per-query draws would.
    rng = random.Random(scenario.seed)
    ttls = [
        float(rng.randint(*workload.ttl)) for _ in range(workload.num_names)
    ]
    arrivals = generate_arrivals(workload, plan, rng)
    names = sampled_workload(workload, plan).draw_name_indices(
        rng, plan.queries
    )

    if options.flash_crowd > 1.0:
        duration = plan.queries / plan.rate
        arrivals = flash_crowd_warp(
            arrivals, options.flash_crowd, workload.start, duration
        )
    # The exact runner assigns query i to client i % clients; the fleet
    # does the same over the sampled sub-fleet.
    num_clients = plan.clients
    if options.duty_cycle < 1.0:
        issue_times = defer_to_wake(
            arrivals,
            [index % num_clients for index in range(plan.queries)],
            options.duty_cycle,
            options.duty_period,
        )
        # Deferral can reorder queries; caches must see issue order.
        order = sorted(range(plan.queries), key=issue_times.__getitem__)
    else:
        issue_times, order = arrivals, range(plan.queries)
    # How often each client asks is known before the walk: the first
    # `extra` clients once more than `rounds`. A client's last query
    # cannot leave anything behind that a lookup will see.
    rounds, extra = divmod(plan.queries, num_clients)
    # Query i goes to client i % num_clients with i < plan.queries, so
    # no client index reaches past the smaller of the two: per-client
    # state is sized by it, not by the (possibly huge) client count.
    reachable = min(num_clients, plan.queries)

    # Model-internal draws (churn survival) come from a separate seeded
    # stream so fleet-only dimensions never shift the workload streams.
    model_rng = random.Random(f"fleet-model-{scenario.seed}")
    cache_model = FleetCacheModel(
        scenario.caching_spec,
        reachable,
        coap_based=profile.coap_based,
        # Plain OSCORE protects requests end-to-end; the outer message
        # the CoAP layer sees is not cacheable, so the per-node stack
        # never consults its client CoAP cache (counters stay zero).
        coap_active=not profile.object_security,
        churn=options.churn,
        model_rng=model_rng,
    )
    # Vitter's Algorithm R over its own seeded stream: past capacity,
    # the n-th success replaces a random slot with probability 4096/n.
    sample: List[float] = []
    randrange = random.Random(scenario.seed).randrange
    successes = 0

    def observe(latency: float) -> None:
        nonlocal successes
        successes += 1
        if successes <= _SAMPLE_CAPACITY:
            sample.append(latency)
            return
        slot = randrange(successes)
        if slot < _SAMPLE_CAPACITY:
            sample[slot] = latency

    # The output columns (see FleetResult), appended once per issued
    # query; the failure path overwrites its error slot.
    queries, rtypes = array("I"), array("H")
    issued: List[float] = []
    resolutions: List[Optional[float]] = []
    errors: List[Optional[str]] = []
    # Which clients have been over the wire, one byte each.
    wired = bytearray(reachable)
    run_duration = scenario.run_duration
    # What the walk calls once per sampled query, bound once.
    draw_rtype = workload.draw_rtype
    draw_service = ServiceModel(calibration).draw
    touch, caches = cache_model.touch, cache_model.caches
    caching = bool(cache_model.consulted)
    record_query, record_rtype = queries.append, rtypes.append
    record_issue, resolved, record_error = (
        issued.append, resolutions.append, errors.append
    )
    HIT, STALE, OK = LookupState.HIT, LookupState.STALE, ServiceModel.OK

    for index in order:
        issued_at = issue_times[index]
        if issued_at > run_duration:
            continue
        client = index % num_clients
        name_index = names[index]
        rtype = draw_rtype(rng)
        record_query(index)
        record_rtype(rtype)
        record_issue(issued_at)
        record_error(None)
        asked = touch(client, issued_at)
        key = (name_index, rtype)

        # No pair yet: the client's caches are empty, the lookups have
        # missed (and are counted), and nothing can be stale.
        pair = caches(client)
        stale = False
        if pair is not None:
            dns, coap = pair
            if dns is not None:
                entry, state = dns.lookup(key, issued_at)
                if state is HIT:
                    resolved(0.0)
                    observe(0.0)
                    continue
            if coap is not None:
                entry, state = coap.lookup(key, issued_at)
                if state is HIT:
                    resolved(0.0)
                    observe(0.0)
                    if dns is not None:
                        remaining = entry.expires_at - issued_at
                        if remaining > 0:
                            # The replayed response carries aged TTLs,
                            # so the DNS entry expires with the CoAP one.
                            dns.store(key, True, lifetime=remaining,
                                      now=issued_at)
                    continue
                stale = state is STALE

        first_exchange = not wired[client]
        wired[client] = 1
        kind, latency = draw_service(first_exchange)
        if kind != OK:
            resolved(None)
            errors[-1] = (
                "TimeoutError" if kind == ServiceModel.TIMEOUT
                else "RcodeError"
            )
            continue
        done = issued_at + latency
        if done > run_duration:
            # Still in flight when the run ends: unresolved, no error —
            # the same fate the event-loop cutoff hands such queries.
            resolved(None)
            continue
        resolved(latency)
        observe(latency)
        ttl = ttls[name_index]
        if ttl <= 0 or not caching:
            continue
        if pair is None:
            if asked == rounds + (client < extra):
                # Nobody will read this store, and an empty cache has
                # nothing to evict: no counter can tell it was skipped.
                continue
            pair = cache_model.materialise(client)
        dns, coap = pair
        if coap is not None:
            if stale:
                coap.refresh(key, done, ttl)
            else:
                coap.store(key, True, lifetime=ttl, now=done)
        if dns is not None:
            dns.store(key, True, lifetime=ttl, now=done)

    return FleetResult(
        scenario=scenario,
        options=options,
        plan=plan,
        calibration=calibration,
        query=queries,
        rtype=rtypes,
        issued_at=issued,
        resolution_time=resolutions,
        error=errors,
        name_indices=names,
        latency_sample=sample,
        successes=successes,
        cache_stats=cache_model.scaled_stats(plan.query_scale),
        active_clients=cache_model.active_clients,
    )
