"""Declarative scenario configuration.

A :class:`Scenario` bundles everything one run needs: which transport
(by registry name), the topology shape (:class:`TopologySpec` — hop
count, client count, link loss, wired/wireless mix), and the workload
(:class:`WorkloadSpec` — Poisson rate, name count, record-type mix,
burst vs. steady arrivals), plus the caching/proxy knobs of the paper's
ablations. Scenarios are frozen dataclasses: derive variants with
:func:`dataclasses.replace`, or let :func:`repro.api.sweep` run
(transport × topology × loss) grids of them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.coap.codes import Code
from repro.dns import RecordType
from repro.doc import CachingScheme


class ScenarioError(ValueError):
    """An inconsistent scenario configuration."""


#: Placement tokens accepted by :meth:`CachingSpec.from_placement`.
_PLACEMENTS = ("client-dns", "client-coap", "proxy")


@dataclass(frozen=True)
class CachingSpec:
    """Where responses are cached, and how (the Section 6.1 dimension).

    One spec fixes the per-role cache *placement* (client DNS cache,
    client CoAP cache, forward-proxy cache — each on or off), the
    per-role capacities (Table 6 defaults: 8/8/50), and optionally the
    TTL↔Max-Age :class:`~repro.doc.CachingScheme`; ``scheme=None``
    defers to the scenario's own ``scheme`` field. The resolver's DNS
    cache is always present (it *is* the resolver, Figure 2's *S*).
    """

    client_dns: bool = False
    client_coap: bool = False
    proxy: bool = True
    client_dns_capacity: int = 8
    client_coap_capacity: int = 8
    proxy_capacity: int = 50
    scheme: Optional[CachingScheme] = None

    def __post_init__(self) -> None:
        for role in ("client_dns", "client_coap", "proxy"):
            capacity = getattr(self, f"{role}_capacity")
            if capacity < 1:
                raise ScenarioError(
                    f"{role}_capacity must be >= 1, got {capacity}"
                )

    @classmethod
    def from_placement(cls, placement: str, **overrides) -> "CachingSpec":
        """Parse ``"client-dns+client-coap+proxy"`` / ``"all"`` / ``"none"``.

        The string lists the enabled cache locations joined by ``+``;
        keyword *overrides* pass through to the constructor (e.g.
        ``proxy_capacity=100``).
        """
        normalized = placement.strip().lower()
        enabled = {name: False for name in _PLACEMENTS}
        if normalized == "all":
            enabled = {name: True for name in _PLACEMENTS}
        elif normalized != "none":
            for token in normalized.split("+"):
                token = token.strip()
                if token not in enabled:
                    raise ScenarioError(
                        f"unknown cache placement {token!r} "
                        f"(known: {', '.join(_PLACEMENTS)}, all, none)"
                    )
                enabled[token] = True
        return cls(
            client_dns=enabled["client-dns"],
            client_coap=enabled["client-coap"],
            proxy=enabled["proxy"],
            **overrides,
        )

    def placement_label(self) -> str:
        """The canonical ``+``-joined placement string (``"none"`` if
        every location is off)."""
        parts = [
            name
            for name, on in zip(
                _PLACEMENTS, (self.client_dns, self.client_coap, self.proxy)
            )
            if on
        ]
        return "+".join(parts) if parts else "none"


@dataclass(frozen=True)
class TopologySpec:
    """Shape of the network a scenario runs on.

    ``hops`` counts wireless hops between a client and the border
    router (the paper's Figure 2 deployment is ``hops=2``); with
    ``wired_tail`` the resolver host sits behind an extra wired link,
    without it the border router hosts the resolver itself.
    """

    name: str = "figure2"
    hops: int = 2
    clients: int = 2
    loss: float = 0.05
    l2_retries: int = 3
    wired_tail: bool = True

    def __post_init__(self) -> None:
        if self.hops < 1:
            raise ScenarioError(f"hops must be >= 1, got {self.hops}")
        if self.clients < 1:
            raise ScenarioError(f"clients must be >= 1, got {self.clients}")
        if not 0.0 <= self.loss < 1.0:
            raise ScenarioError(f"loss must be in [0, 1), got {self.loss}")
        if self.l2_retries < 0:
            raise ScenarioError("l2_retries must be >= 0")

    def build(self, sim, capture: str = "records"):
        """Instantiate this topology on *sim*.

        *capture* says whether a full sniffer keeps every frame
        (``"records"``) or only the aggregate tally is kept
        (``"counts"``).
        """
        from repro.stack import build_linear_topology

        return build_linear_topology(
            sim,
            hops=self.hops,
            clients=self.clients,
            loss=self.loss,
            l2_retries=self.l2_retries,
            wired_tail=self.wired_tail,
            capture=capture,
        )


#: Arrival-process names accepted by :attr:`WorkloadSpec.arrival`.
_ARRIVALS = ("poisson", "bursty")


@dataclass(frozen=True)
class WorkloadSpec:
    """Query workload driven against the scenario's clients.

    ``rtype_mix`` is a weighted mix of DNS record types; every name in
    the generated zone carries records of every type in the mix, so any
    draw resolves. ``burst_size > 1`` switches from steady Poisson
    arrivals to bursts: arrival instants stay Poisson but each instant
    issues a whole burst back-to-back (one query per client round-robin).

    ``arrival`` selects the arrival process: steady ``"poisson"``
    (default) or ``"bursty"`` — an on/off modulated Poisson process
    (``burst_on`` seconds of elevated-rate arrivals, ``burst_off``
    seconds of silence, same long-run average rate). ``zipf_alpha``
    turns on Zipf(α) name popularity: queries draw names by popularity
    rank instead of cycling through them round-robin. Both simulated
    sweeps (:class:`~repro.scenarios.ScenarioRunner`) and the live
    load generator (:mod:`repro.live.loadgen`) honour these knobs, so
    one spec describes a workload on either substrate.
    """

    num_queries: int = 50
    num_names: int = 50
    records_per_name: int = 1
    query_rate: float = 5.0
    rtype_mix: Tuple[Tuple[int, float], ...] = ((int(RecordType.AAAA), 1.0),)
    burst_size: int = 1
    ttl: Tuple[int, int] = (300, 300)
    start: float = 0.1
    arrival: str = "poisson"
    burst_on: float = 1.0
    burst_off: float = 4.0
    zipf_alpha: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_queries < 1:
            raise ScenarioError("num_queries must be >= 1")
        if self.num_names < 1:
            raise ScenarioError("num_names must be >= 1")
        if self.query_rate <= 0:
            raise ScenarioError("query_rate must be positive")
        if self.burst_size < 1:
            raise ScenarioError("burst_size must be >= 1")
        if not self.rtype_mix:
            raise ScenarioError("rtype_mix must not be empty")
        if any(weight <= 0 for _, weight in self.rtype_mix):
            raise ScenarioError("rtype_mix weights must be positive")
        if self.ttl[0] > self.ttl[1]:
            raise ScenarioError(f"ttl range reversed: {self.ttl}")
        if self.arrival not in _ARRIVALS:
            raise ScenarioError(
                f"unknown arrival process {self.arrival!r} "
                f"(known: {', '.join(_ARRIVALS)})"
            )
        if self.burst_on <= 0:
            raise ScenarioError("burst_on must be positive")
        if self.burst_off < 0:
            raise ScenarioError("burst_off must be >= 0")
        if self.zipf_alpha is not None and self.zipf_alpha < 0:
            raise ScenarioError("zipf_alpha must be >= 0")

    @property
    def record_types(self) -> Tuple[int, ...]:
        return tuple(rtype for rtype, _ in self.rtype_mix)

    def _instants(self, rng: random.Random, count: int) -> List[float]:
        from repro.sim import bursty_arrival_times, poisson_arrival_times

        if self.arrival == "bursty":
            return bursty_arrival_times(
                rng, self.query_rate, count,
                on_duration=self.burst_on, off_duration=self.burst_off,
                start=self.start,
            )
        return poisson_arrival_times(
            rng, self.query_rate, count, start=self.start
        )

    def arrival_times(self, rng: random.Random) -> List[float]:
        """The run's query arrival instants (one per query)."""
        if self.burst_size == 1:
            return self._instants(rng, self.num_queries)
        instants = self._instants(
            rng, math.ceil(self.num_queries / self.burst_size)
        )
        times = [t for t in instants for _ in range(self.burst_size)]
        return times[: self.num_queries]

    def draw_name_index(self, rng: random.Random, sequence_index: int) -> int:
        """The name (by index) that query *sequence_index* asks for.

        Without ``zipf_alpha`` this is the legacy round-robin walk over
        the name universe (no RNG draw, bit-identical to historical
        runs); with it, a Zipf(α) popularity draw.
        """
        if self.zipf_alpha is None:
            return sequence_index % self.num_names
        from repro.sim import sample_zipf_many, zipf_cumulative

        # The cumulative table is cached in repro.sim.workload (one
        # O(n) accumulate per (count, alpha), then O(log n) per draw —
        # this sits on the loadgen hot path). Consumes exactly one
        # rng.random() per draw, the same stream rng.choices() would.
        cumulative = zipf_cumulative(self.num_names, self.zipf_alpha)
        return sample_zipf_many(rng, cumulative, 1)[0]

    def draw_name_indices(
        self, rng: random.Random, count: int, start_index: int = 0
    ) -> List[int]:
        """Bulk form of :meth:`draw_name_index` for *count* queries.

        Advances the RNG exactly as *count* sequential single draws
        would (zero draws round-robin, one ``rng.random()`` per Zipf
        draw), so batched callers — the fleet engine — stay on the
        same popularity stream as per-query ones.
        """
        if count < 0:
            raise ScenarioError("count must be >= 0")
        if self.zipf_alpha is None:
            return [
                (start_index + offset) % self.num_names
                for offset in range(count)
            ]
        from repro.sim import sample_zipf_many, zipf_cumulative

        cumulative = zipf_cumulative(self.num_names, self.zipf_alpha)
        return sample_zipf_many(rng, cumulative, count)

    def draw_rtype(self, rng: random.Random) -> int:
        """One record type from the mix (no RNG draw for pure mixes)."""
        if len(self.rtype_mix) == 1:
            return self.rtype_mix[0][0]
        types = [rtype for rtype, _ in self.rtype_mix]
        weights = [weight for _, weight in self.rtype_mix]
        return rng.choices(types, weights=weights, k=1)[0]


@dataclass(frozen=True)
class Scenario:
    """One fully-specified run: transport × topology × workload.

    Cache placement and capacities are the ``caching``
    :class:`CachingSpec`; without one the defaults apply (no client
    caches, and the proxy that ``use_proxy`` puts in the path caches).
    Read the resolved view via :attr:`caching_spec`, never the raw
    field.
    """

    name: str = "default"
    transport: str = "coap"
    topology: TopologySpec = TopologySpec()
    workload: WorkloadSpec = WorkloadSpec()
    method: Code = Code.FETCH
    scheme: CachingScheme = CachingScheme.EOL_TTLS
    use_proxy: bool = False
    caching: Optional[CachingSpec] = None
    block_size: Optional[int] = None
    seed: int = 1
    run_duration: float = 300.0

    def __post_init__(self) -> None:
        from repro.transports.registry import registry

        profile = registry.get(self.transport)
        if not profile.simulatable:
            raise ScenarioError(
                f"transport {self.transport!r} is model-only and cannot run "
                f"(runnable: {', '.join(registry.names(simulatable_only=True))})"
            )
        if self.use_proxy and not profile.coap_based:
            raise ScenarioError("the CoAP proxy requires a CoAP transport")
        if self.use_proxy and profile.has_handshake:
            # The client's DTLS session runs to the server, so the
            # plain-CoAP proxy would receive records it cannot read.
            raise ScenarioError(
                f"transport {self.transport!r} cannot run through the CoAP "
                f"proxy (its DTLS session ends at the server); use oscore "
                f"through a proxy, or the client-side cache placements "
                f"(client-dns, client-coap)"
            )
        if (
            self.use_proxy
            and self.topology.hops == 1
            and not self.topology.wired_tail
        ):
            # One wireless hop with no wired tail puts the resolver on
            # the border router — the node the proxy would bind on.
            raise ScenarioError(
                "the proxy needs a forwarder distinct from the resolver "
                "host (use hops >= 2 or a wired tail)"
            )

    @property
    def caching_spec(self) -> CachingSpec:
        """The effective cache configuration of this run.

        The default :class:`CachingSpec` when no explicit ``caching``
        was given, with an unset ``scheme`` filled from the scenario's
        own.
        """
        spec = self.caching or CachingSpec()
        if spec.scheme is None:
            spec = replace(spec, scheme=self.scheme)
        return spec

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)
