"""Per-transport service-time model, calibrated on the exact simulator.

Every fleet query that misses its client caches pays a *wire exchange*
whose latency/loss/retransmission behaviour depends on the transport
profile, topology, link loss, and block sizes. Instead of re-deriving
those distributions analytically, the model runs the **exact**
simulator once per scenario on a small probe topology (the scenario
with its client count capped and client caches disabled, so every
probe query measures the full network path) and resamples the
empirical distribution it observed:

* success latencies split into the client's **first** exchange (which
  carries DTLS/OSCORE handshake cost) and **subsequent** exchanges;
* timeout and rcode-failure probabilities become deterministic
  expected counts via error accumulators, so a fleet run's failure
  counters match the probe's rates in expectation with near-zero
  variance;
* success latencies are drawn by inverse-CDF resampling at van der
  Corput (low-discrepancy) quantile points, so percentile summaries
  converge to the probe's distribution far faster than i.i.d. uniform
  resampling would.

Calibrations are memoised per process on the probe scenario's identity
— a sweep or repeated run calibrates each cell once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.experiments.metrics import interpolate_sorted
from repro.scenarios.scenario import CachingSpec, Scenario

from .options import FleetOptions

#: Probe-size defaults: at least this many probe queries regardless of
#: the fleet workload (tail resolution), at most this many (probe cost).
_PROBE_QUERIES_MIN = 64
_PROBE_QUERIES_MAX = 160


@dataclass(frozen=True)
class Calibration:
    """What one probe run taught us about the wire path."""

    probe_clients: int
    probe_queries: int
    issued: int
    succeeded: int
    timeouts: int
    rcode_failures: int
    #: Sorted success latencies of each client's first wire exchange.
    first_latencies: Tuple[float, ...]
    #: Sorted success latencies of all subsequent exchanges.
    rest_latencies: Tuple[float, ...]

    @property
    def p_timeout(self) -> float:
        return self.timeouts / self.issued if self.issued else 0.0

    @property
    def p_rcode(self) -> float:
        return self.rcode_failures / self.issued if self.issued else 0.0

    @property
    def success_rate(self) -> float:
        return self.succeeded / self.issued if self.issued else 0.0

    @property
    def wire_p50_ms(self) -> Optional[float]:
        return self._wire_quantile_ms(50)

    @property
    def wire_p95_ms(self) -> Optional[float]:
        return self._wire_quantile_ms(95)

    def _wire_quantile_ms(self, q: float) -> Optional[float]:
        """Percentile *q* of every probe success latency, in ms."""
        from repro.api.report import quantile_ms

        pooled = sorted(self.first_latencies + self.rest_latencies)
        return quantile_ms(pooled, q) if pooled else None


def probe_scenario(scenario: Scenario, options: FleetOptions) -> Scenario:
    """The exact-simulator run the service model calibrates against.

    The scenario itself, with the client count capped at the probe size
    and the *client* caches disabled — every probe query then measures
    the full wire path the fleet's cache misses will pay. Server-side
    state (resolver cache, forward proxy when the scenario has one)
    stays enabled: it is shared infrastructure, part of the path.
    """
    caching = scenario.caching_spec
    probe_clients = min(scenario.topology.clients, options.probe_clients)
    if options.probe_queries is not None:
        probe_queries = options.probe_queries
    else:
        probe_queries = min(
            max(scenario.workload.num_queries, _PROBE_QUERIES_MIN),
            _PROBE_QUERIES_MAX,
        )
    # Preserve the *per-client* query rate (aggregate rate scales with
    # the client count), so probe clients see the fleet's duty — not a
    # million clients' aggregate load funnelled through four nodes. The
    # floor keeps the probe finishing well inside the run-duration
    # cutoff even for very large (hence very slow per-client) fleets.
    probe_rate = (
        scenario.workload.query_rate
        * probe_clients
        / scenario.topology.clients
    )
    probe_rate = max(probe_rate, 2.0 * probe_queries / scenario.run_duration)
    return replace(
        scenario,
        topology=replace(scenario.topology, clients=probe_clients),
        workload=replace(
            scenario.workload,
            num_queries=probe_queries,
            query_rate=probe_rate,
        ),
        caching=CachingSpec(
            client_dns=False,
            client_coap=False,
            proxy=caching.proxy and scenario.use_proxy,
            proxy_capacity=caching.proxy_capacity,
            scheme=caching.scheme,
        ),
    )


def _calibration_key(probe: Scenario) -> Tuple:
    topology = probe.topology
    workload = probe.workload
    return (
        probe.transport,
        probe.scheme.value,
        probe.method,
        probe.block_size,
        probe.use_proxy,
        probe.seed,
        probe.run_duration,
        topology.hops,
        topology.clients,
        topology.loss,
        topology.l2_retries,
        topology.wired_tail,
        workload.num_queries,
        workload.num_names,
        workload.records_per_name,
        workload.query_rate,
        workload.rtype_mix,
        workload.burst_size,
        workload.ttl,
        workload.arrival,
        workload.burst_on,
        workload.burst_off,
        workload.zipf_alpha,
    )


_CALIBRATIONS: Dict[Tuple, Calibration] = {}


def calibrate(scenario: Scenario, options: FleetOptions) -> Calibration:
    """Run (or reuse) the probe for *scenario* and distil its model."""
    from repro.api.report import classify_error
    from repro.scenarios.runner import ScenarioRunner

    probe = probe_scenario(scenario, options)
    key = _calibration_key(probe)
    cached = _CALIBRATIONS.get(key)
    if cached is not None:
        return cached

    result = ScenarioRunner().run(probe)
    timeouts = rcode = 0
    first: List[float] = []
    rest: List[float] = []
    seen_clients = set()
    for outcome in result.outcomes:
        is_first = outcome.client not in seen_clients
        seen_clients.add(outcome.client)
        if outcome.resolution_time is not None:
            (first if is_first else rest).append(outcome.resolution_time)
        elif outcome.error:
            kind = classify_error(outcome.error)
            if kind == "timeout":
                timeouts += 1
            elif kind == "rcode":
                rcode += 1
    calibration = Calibration(
        probe_clients=probe.topology.clients,
        probe_queries=probe.workload.num_queries,
        issued=len(result.outcomes),
        succeeded=len(first) + len(rest),
        timeouts=timeouts,
        rcode_failures=rcode,
        first_latencies=tuple(sorted(first)),
        rest_latencies=tuple(sorted(rest)),
    )
    _CALIBRATIONS[key] = calibration
    return calibration


def _van_der_corput(index: int) -> float:
    """Base-2 radical inverse of ``index + 1`` — a (0, 1) sequence.

    The bits of ``n`` mirrored about the binary point: reversed as a
    string, over ``2**bit_length``. Every partial sum of the textbook
    bit loop is a dyadic rational a float holds exactly, so this is the
    same float for any index a run can reach (below 2**53).
    """
    n = index + 1
    return int(bin(n)[:1:-1], 2) / (1 << n.bit_length())


class ServiceModel:
    """Draws wire-exchange outcomes from a :class:`Calibration`.

    Failure scheduling is deterministic (error accumulators — a fleet
    run yields ``round(exchanges × p)`` failures of each kind);
    success latencies resample the probe's empirical distributions at
    low-discrepancy quantile points, with separate streams for a
    client's first exchange and its subsequent ones.
    """

    #: Outcome kinds a draw can produce.
    OK, TIMEOUT, RCODE = "ok", "timeout", "rcode"

    def __init__(self, calibration: Calibration) -> None:
        # Read once: the probabilities are properties that divide, and
        # a stream the probe left empty falls back to the other one —
        # a probe whose every exchange failed models a fleet that
        # times out.
        self._p_timeout = calibration.p_timeout
        self._p_rcode = calibration.p_rcode
        self._first = calibration.first_latencies or calibration.rest_latencies
        self._rest = calibration.rest_latencies or calibration.first_latencies
        self._timeout_acc = 0.0
        self._rcode_acc = 0.0
        self._first_index = 0
        self._rest_index = 0

    def draw(self, first_exchange: bool) -> Tuple[str, Optional[float]]:
        """One wire exchange: ``(kind, latency_s)``.

        *first_exchange* marks the issuing client's first trip over the
        wire (handshake-bearing transports pay more there). Latency is
        ``None`` for failed exchanges.
        """
        self._timeout_acc += self._p_timeout
        if self._timeout_acc >= 1.0:
            self._timeout_acc -= 1.0
            return self.TIMEOUT, None
        self._rcode_acc += self._p_rcode
        if self._rcode_acc >= 1.0:
            self._rcode_acc -= 1.0
            return self.RCODE, None
        if first_exchange:
            samples = self._first
            u = _van_der_corput(self._first_index)
            self._first_index += 1
        else:
            samples = self._rest
            u = _van_der_corput(self._rest_index)
            self._rest_index += 1
        if not samples:
            return self.TIMEOUT, None
        # The inverse empirical CDF at u: the calibration holds its
        # samples as sorted tuples, so a draw never sorts.
        return self.OK, interpolate_sorted(samples, u * (len(samples) - 1))
