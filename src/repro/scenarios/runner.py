"""The scenario engine: one runner for every transport and topology.

:class:`ScenarioRunner` builds the scenario's topology, provisions and
installs the transport through the plugin registry, drives the
declarative workload, and returns one :class:`ExperimentResult` — the
raw measurements (:class:`QueryOutcome` per query, the
:class:`LinkUtilization` tally, client CoAP events, per-location
:class:`~repro.cache.CacheStats`) the Figure 7/10/11/15 benchmarks and
the unified :class:`repro.api.Report` are computed from. A grid of
runs is :func:`repro.api.sweep`: one RunSpec per cell, one Report back.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache import CacheStats
from repro.coap.endpoint import ClientEvent
from repro.obs.log import get_logger
from repro.sim import Simulator
from repro.transports.registry import TransportEnv, registry

from .scenario import Scenario, WorkloadSpec

_log = get_logger("repro.scenarios.runner")

#: Name template producing the paper's median 24-character names.
NAME_TEMPLATE = "name{index:04d}.example-iot.org"


def build_workload_zone(workload: WorkloadSpec, rng, names=None):
    """Authoritative data for a workload: ``num_names`` 24-character
    names, each holding ``records_per_name`` records of every record
    type in the mix (so any drawn query type resolves).

    *names* overrides the template-generated universe (the live
    runtime passes its shared name list) while keeping the address
    layout — and therefore the answers — identical to simulated runs.
    """
    from repro.dns import RecordType, Zone
    from repro.dns.enums import DNSClass
    from repro.dns.rdata import AAAAData, AData
    from repro.dns.zone import ZoneRecord

    if names is None:
        names = [
            NAME_TEMPLATE.format(index=index)
            for index in range(workload.num_names)
        ]
    zone = Zone()
    for index, name in enumerate(names):
        ttl = rng.randint(*workload.ttl)
        for record_index in range(workload.records_per_name):
            for rtype in workload.record_types:
                if rtype == RecordType.A:
                    rdata = AData(f"192.0.2.{record_index + 1}")
                else:
                    rdata = AAAAData(
                        f"2001:db8::{index:x}:{record_index + 1:x}"
                    )
                zone.add(ZoneRecord(name, rtype, ttl, rdata, DNSClass.IN))
    return zone


@dataclass(slots=True)
class QueryOutcome:
    """One query's fate (slotted: a sim run holds one per query; a
    fleet run builds them only when its ``outcomes`` are read)."""

    name: str
    client: str
    issued_at: float
    resolution_time: Optional[float]   # None on failure
    error: Optional[str] = None
    rtype: Optional[int] = None


@dataclass
class LinkUtilization:
    """Frames/bytes split by link distance to the sink (Figure 10).

    ``frames_1hop``/``bytes_1hop`` cover the bottleneck link into the
    border router; ``frames_2hop``/``bytes_2hop`` the outermost client
    links. For topologies deeper than two hops, ``per_hop_frames`` maps
    every hop distance to its frame count.
    """

    frames_1hop: int
    frames_2hop: int
    bytes_1hop: int
    bytes_2hop: int
    queries_frames: int
    responses_frames: int
    per_hop_frames: Dict[int, int] = field(default_factory=dict)


@dataclass
class ExperimentResult:
    """Everything one run produced."""

    #: The declarative scenario the run executed.
    scenario: Scenario
    outcomes: List[QueryOutcome]
    link: LinkUtilization
    #: Client CoAP (re-)transmission and cache events (Figure 11).
    client_events: List[ClientEvent]
    proxy_cache_hits: int = 0
    proxy_revalidations: int = 0
    #: Aggregated :class:`repro.cache.CacheStats` per cache location
    #: ("client-dns", "client-coap", "proxy", "resolver") — client
    #: caches pooled across all clients. The Figure 11 event counts.
    cache_stats: Dict[str, CacheStats] = field(default_factory=dict)

    @property
    def resolution_times(self) -> List[float]:
        return [
            outcome.resolution_time
            for outcome in self.outcomes
            if outcome.resolution_time is not None
        ]

    @property
    def success_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return len(self.resolution_times) / len(self.outcomes)


class ScenarioRunner:
    """Executes one scenario via the transport registry."""

    def run(self, scenario: Scenario) -> ExperimentResult:
        """Execute one scenario and gather its measurements."""
        from repro.coap.proxy import ForwardProxy
        from repro.dns import RecursiveResolver

        profile = registry.get(scenario.transport)
        workload = scenario.workload
        sim = Simulator(seed=scenario.seed)
        # Every metric reads aggregate frame tallies, never individual
        # frame records, so the run attaches the counting observer.
        topo = scenario.topology.build(sim, capture="counts")
        zone = build_workload_zone(workload, sim.rng)
        # A TTL *range* reproduces the paper's mocked-resolver behaviour:
        # every cache renewal at the resolver draws a fresh TTL, the churn
        # that distinguishes DoH-like from EOL-TTLs revalidation.
        ttl_range = workload.ttl if workload.ttl[0] != workload.ttl[1] else None
        resolver = RecursiveResolver(
            zone, upstream_ttl_range=ttl_range, rng=sim.rng
        )

        env = TransportEnv(
            sim=sim, topology=topo, resolver=resolver, scenario=scenario
        )
        profile.provision(env)
        env.server = profile.build_server(env)

        caching = scenario.caching_spec
        proxy = None
        if scenario.use_proxy:
            # The forward proxy is a plain-CoAP hop on the canonical port;
            # placement off degrades it to an opaque forwarder.
            from repro.transports.profiles import COAP_PORT

            proxy = ForwardProxy(
                sim,
                topo.forwarder.bind(COAP_PORT),
                topo.forwarder.bind(),
                env.server.endpoint,
                cache_entries=caching.proxy_capacity if caching.proxy else 0,
            )
            env.target = (topo.forwarder.address, COAP_PORT)
        else:
            env.target = env.server.endpoint

        clients = [
            profile.build_client(env, node, index)
            for index, node in enumerate(topo.clients)
        ]
        # ExperimentResult.client_events (Figure 11) is the one reader
        # of the clients' transmission timelines.
        for client in clients:
            if getattr(client, "coap", None) is not None:
                client.coap.events = []

        # -- workload ------------------------------------------------------
        outcomes: List[QueryOutcome] = []
        arrivals = workload.arrival_times(sim.rng)
        # sim.run stops at run_duration: arrivals past it are never
        # issued, and without this the Report reads as a clean run.
        issued = bisect_right(arrivals, scenario.run_duration)
        if issued < len(arrivals):
            _log.warning(
                "run_duration ends before the last arrival; "
                "the tail is never issued",
                scenario=scenario.name,
                requested=len(arrivals),
                issued=issued,
                run_duration=scenario.run_duration,
                first_late_arrival=arrivals[issued],
            )

        def issue(index: int) -> None:
            client_index = index % len(clients)
            client = clients[client_index]
            name = NAME_TEMPLATE.format(
                index=workload.draw_name_index(sim.rng, index)
            )
            rtype = workload.draw_rtype(sim.rng)
            outcome = QueryOutcome(
                name=name,
                client=topo.clients[client_index].name,
                issued_at=sim.now,
                resolution_time=None,
                rtype=rtype,
            )
            outcomes.append(outcome)

            def on_done(result, error) -> None:
                if error is not None:
                    outcome.error = type(error).__name__
                    return
                outcome.resolution_time = sim.now - outcome.issued_at

            client.resolve(name, rtype, on_done)

        sim.schedule_many(
            (at, issue, (index,)) for index, at in enumerate(arrivals)
        )

        sim.run(until=scenario.run_duration)

        # -- collect -------------------------------------------------------
        kinds = topo.tally.by_kind()
        queries = kinds.get("query", 0)
        responses = kinds.get("response", 0)
        link = LinkUtilization(
            frames_1hop=topo.proxy_sink_frames(),
            frames_2hop=topo.client_proxy_frames(),
            bytes_1hop=topo.proxy_sink_bytes(),
            bytes_2hop=topo.client_proxy_bytes(),
            queries_frames=queries,
            responses_frames=responses,
            per_hop_frames={
                hop: topo.frames_at_hop(hop) for hop in range(1, topo.hops + 1)
            },
        )
        client_events = []
        for client in clients:
            coap = getattr(client, "coap", None)
            if coap is not None:
                client_events.extend(coap.events)

        # -- per-location cache stats (Figure 11) -------------------------
        cache_stats: Dict[str, CacheStats] = {}

        def pool(location: str, cache) -> None:
            if cache is None:
                return
            cache_stats.setdefault(location, CacheStats()).merge(cache.stats)

        for client in clients:
            coap = getattr(client, "coap", None)
            pool("client-coap", getattr(coap, "cache", None))
            stub = getattr(client, "stub", None)
            pool("client-dns", getattr(stub, "cache", None))
        if proxy is not None:
            pool("proxy", proxy.cache)
        pool("resolver", resolver.cache)

        return ExperimentResult(
            scenario=scenario,
            outcomes=outcomes,
            link=link,
            client_events=client_events,
            proxy_cache_hits=(
                proxy.requests_served_from_cache if proxy is not None else 0
            ),
            proxy_revalidations=(
                proxy.requests_revalidated if proxy is not None else 0
            ),
            cache_stats=cache_stats,
        )
