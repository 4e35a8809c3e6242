"""The scenario engine: one runner for every transport and topology.

:class:`ScenarioRunner` builds the scenario's topology, provisions and
installs the transport through the plugin registry, drives the
declarative workload, and returns one :class:`ExperimentResult` — the
raw measurements (:class:`QueryOutcome` per query, the
:class:`LinkUtilization` tally, client CoAP events, per-location
:class:`~repro.cache.CacheStats`) the Figure 7/10/11/15 benchmarks and
the unified :class:`repro.api.Report` are computed from.
:meth:`ScenarioRunner.sweep` enumerates a
(transport × topology × loss × cache-placement × caching-scheme) grid
in one call; each :class:`SweepCell` carries its raw result and
renders it as a Report on demand.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.cache import CacheStats
from repro.coap.endpoint import ClientEvent
from repro.doc import CachingScheme
from repro.obs.log import get_logger
from repro.sim import Simulator
from repro.transports.registry import TransportEnv, registry

from .executors import ordered_map
from .scenario import CachingSpec, Scenario, ScenarioError, TopologySpec, WorkloadSpec

_log = get_logger("repro.scenarios.runner")

#: Name template producing the paper's median 24-character names.
NAME_TEMPLATE = "name{index:04d}.example-iot.org"


def _cell_key(
    transport: str,
    topology: str,
    loss: float,
    placement: Optional[str] = None,
    scheme: Optional[str] = None,
) -> Tuple:
    """The grid coordinate of one sweep cell.

    The legacy three-tuple, extended by the cache axes only when they
    were actually swept — one definition shared by cell identity,
    duplicate detection, and lookup.
    """
    key: Tuple = (transport, topology, loss)
    if placement is not None:
        key += (placement,)
    if scheme is not None:
        key += (scheme,)
    return key


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


@dataclass
class SweepCell:
    """One grid point and its result.

    ``placement``/``scheme`` stay ``None`` unless the sweep enumerated
    the cache dimensions — the cell key (and with it the addressing of
    pre-existing sweeps) only grows when those axes are actually swept.
    """

    transport: str
    topology: str
    loss: float
    scenario: Scenario
    #: ``None`` while the cell is an enumerated-but-unrun spec (see
    #: :meth:`ScenarioRunner.enumerate_cells`).
    result: Optional[ExperimentResult]
    placement: Optional[str] = None
    scheme: Optional[str] = None

    @property
    def key(self) -> Tuple:
        return _cell_key(
            self.transport, self.topology, self.loss,
            self.placement, self.scheme,
        )

    @property
    def key_string(self) -> str:
        """The grid coordinate as a stable ``/``-joined string — the
        JSON-object key of :meth:`SweepResult.to_json` (tuples cannot
        key a JSON object)."""
        parts = [self.transport, self.topology, f"{self.loss:g}"]
        if self.placement is not None:
            parts.append(self.placement)
        if self.scheme is not None:
            parts.append(self.scheme)
        return "/".join(parts)

    def report(self) -> "Report":
        """This cell's result as a unified :class:`repro.api.Report`.

        The Report's spec records the cell's fully-derived scenario, so
        a sweep serialises as self-describing per-cell documents.
        """
        from repro.api.report import report_from_experiment_result
        from repro.api.spec import RunSpec

        return report_from_experiment_result(
            self.result,
            spec=RunSpec.from_scenario(self.scenario).to_dict(),
        )


class SweepResult:
    """All cells of one sweep, addressable by their grid coordinates.

    The coordinate is ``(transport, topology, loss)``, extended by
    placement and scheme labels when the sweep enumerated the cache
    dimensions.
    """

    def __init__(self, cells: List[SweepCell]) -> None:
        self.cells = cells
        self._by_key: Dict[Tuple, SweepCell] = {}
        for cell in cells:
            if cell.key in self._by_key:
                raise ScenarioError(f"duplicate sweep cell {cell.key}")
            self._by_key[cell.key] = cell

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[SweepCell]:
        return iter(self.cells)

    def cell(
        self,
        transport: str,
        topology: str,
        loss: float,
        placement: Optional[str] = None,
        scheme: Optional[str] = None,
    ) -> SweepCell:
        key = _cell_key(transport, topology, loss, placement, scheme)
        try:
            return self._by_key[key]
        except KeyError:
            raise KeyError(
                f"no sweep cell {key!r}; have {sorted(self._by_key)}"
            ) from None

    def reports(self) -> Dict[str, "Report"]:
        """Per-cell unified Reports keyed by string grid coordinates."""
        return {cell.key_string: cell.report() for cell in self.cells}

    def to_json(self) -> Dict[str, object]:
        """The sweep as one ``json.dumps``-ready document.

        ``cells`` maps each cell's :attr:`~SweepCell.key_string` grid
        coordinate to its unified Report JSON; the envelope carries the
        shared ``report_version`` + provenance stamp.
        """
        from repro.api.report import REPORT_VERSION, provenance

        return {
            "report_version": REPORT_VERSION,
            "kind": "sweep",
            "provenance": provenance(),
            "cells": {
                cell.key_string: cell.report().to_json()
                for cell in self.cells
            },
        }


class ScenarioRunner:
    """Executes scenarios and scenario sweeps via the transport registry."""

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
        kinds = topo.sniffer.by_kind()
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

    def sweep(
        self,
        base: Optional[Scenario] = None,
        transports: Sequence[str] = ("udp", "coap", "oscore"),
        topologies: Sequence[Union[str, TopologySpec]] = ("figure2", "one-hop"),
        losses: Sequence[float] = (0.05, 0.25),
        cache_placements: Optional[Sequence[Union[str, CachingSpec]]] = None,
        schemes: Optional[Sequence[Union[str, CachingScheme]]] = None,
        workers: Optional[int] = None,
    ) -> SweepResult:
        """Run every grid cell of the requested dimensions.

        *topologies* accepts :class:`TopologySpec` instances or preset
        names (see :mod:`repro.scenarios.presets`); each cell derives
        its scenario from *base* (topology loss overridden per cell)
        and lands in the returned :class:`SweepResult`.

        *cache_placements* and *schemes* are optional extra axes (the
        Section 6.1 caching study). A placement is a
        :class:`CachingSpec` or a ``+``-joined placement string
        (``"none"``, ``"client-coap+proxy"``, ``"all"`` — see
        :meth:`CachingSpec.from_placement`); a placement that enables
        the proxy cache also enables the forward proxy for that cell,
        which every swept transport must be able to run through (see
        :class:`Scenario`). A scheme
        is a :class:`~repro.doc.CachingScheme` or its value
        (``"doh-like"``/``"eol-ttls"``). When either axis is left
        ``None``, the base scenario's configuration applies and the
        cell keys keep their legacy three-tuple shape.

        Cells are independent simulations, so the grid can fan out:
        ``workers`` > 1 runs them on that many processes
        (:func:`~repro.scenarios.executors.ordered_map`). Results come
        back in grid-enumeration order and are bit-identical for any
        worker count — every cell seeds its own simulator.
        """
        cells = self.enumerate_cells(
            base, transports, topologies, losses, cache_placements, schemes
        )
        return SweepResult(ordered_map(_execute_cell, cells, workers))

    def enumerate_cells(
        self,
        base: Optional[Scenario] = None,
        transports: Sequence[str] = ("udp", "coap", "oscore"),
        topologies: Sequence[Union[str, TopologySpec]] = ("figure2", "one-hop"),
        losses: Sequence[float] = (0.05, 0.25),
        cache_placements: Optional[Sequence[Union[str, CachingSpec]]] = None,
        schemes: Optional[Sequence[Union[str, CachingScheme]]] = None,
    ) -> List[SweepCell]:
        """The sweep grid as result-less :class:`SweepCell` specs.

        Each cell carries its fully-derived scenario but has not run
        yet (``result=None``); the cells are pure, picklable values in
        deterministic grid order, ready for any worker process. Colliding
        grid coordinates are rejected before any runtime is spent.
        """
        from .presets import get_topology

        base = base if base is not None else Scenario()
        specs = [
            spec if isinstance(spec, TopologySpec) else get_topology(spec)
            for spec in topologies
        ]
        placements = self._resolve_placements(cache_placements)
        scheme_values = self._resolve_schemes(schemes)
        seen = set()
        for key in self._grid_keys(transports, specs, losses, placements,
                                   scheme_values):
            if key in seen:
                raise ScenarioError(f"duplicate sweep cell {key}")
            seen.add(key)
        return [
            self._build_cell(
                base, transport, spec, loss,
                placement_label, placement, scheme_label, scheme,
            )
            for transport in transports
            for spec in specs
            for loss in losses
            for placement_label, placement in placements
            for scheme_label, scheme in scheme_values
        ]

    @staticmethod
    def _resolve_placements(cache_placements):
        """Normalise the placement axis to (label, spec-or-None) pairs.

        A placement that enables the proxy is checked against each
        transport where its cell's :class:`Scenario` is built, and
        every cell is built before any runs."""
        if cache_placements is None:
            return [(None, None)]
        placements = []
        for item in cache_placements:
            spec = (
                item
                if isinstance(item, CachingSpec)
                else CachingSpec.from_placement(item)
            )
            placements.append((spec.placement_label(), spec))
        return placements

    @staticmethod
    def _resolve_schemes(schemes):
        """Normalise the scheme axis to (label, scheme-or-None) pairs."""
        if schemes is None:
            return [(None, None)]
        resolved = []
        for item in schemes:
            scheme = item if isinstance(item, CachingScheme) else None
            if scheme is None:
                try:
                    scheme = CachingScheme(str(item))
                except ValueError:
                    known = ", ".join(s.value for s in CachingScheme)
                    raise ScenarioError(
                        f"unknown caching scheme {item!r} (known: {known})"
                    ) from None
            resolved.append((scheme.value, scheme))
        return resolved

    @staticmethod
    def _grid_keys(transports, specs, losses, placements, scheme_values):
        for transport in transports:
            for spec in specs:
                for loss in losses:
                    for placement_label, _ in placements:
                        for scheme_label, _ in scheme_values:
                            yield _cell_key(
                                transport, spec.name, loss,
                                placement_label, scheme_label,
                            )

    def _build_cell(
        self, base, transport, spec, loss,
        placement_label, placement, scheme_label, scheme,
    ) -> SweepCell:
        topology = replace(spec, loss=loss)
        name = f"{transport}/{spec.name}/loss={loss:g}"
        scenario = replace(
            base, name=name, transport=transport, topology=topology
        )
        if placement is not None:
            name += f"/cache={placement_label}"
            scenario = replace(
                scenario,
                caching=placement,
                # Caching *at* the proxy implies having one; a placement
                # without it keeps the base's (possibly opaque) forwarder.
                use_proxy=scenario.use_proxy or placement.proxy,
            )
        if scheme is not None:
            name += f"/scheme={scheme_label}"
            scenario = replace(scenario, scheme=scheme)
            if scenario.caching is not None and scenario.caching.scheme is not None:
                # An explicit spec scheme would override the swept axis
                # (caching_spec gives it precedence); defer it instead.
                scenario = replace(
                    scenario, caching=replace(scenario.caching, scheme=None)
                )
        scenario = replace(scenario, name=name)
        return SweepCell(
            transport=transport,
            topology=spec.name,
            loss=loss,
            scenario=scenario,
            result=None,
            placement=placement_label,
            scheme=scheme_label,
        )


def _execute_cell(cell: SweepCell) -> SweepCell:
    """Run one enumerated cell (module-level so worker processes can
    unpickle it)."""
    cell.result = ScenarioRunner().run(cell.scenario)
    return cell
