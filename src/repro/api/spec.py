"""The substrate-agnostic run specification of the ``repro.api`` façade.

A :class:`RunSpec` is everything one run needs, on any substrate: a
declarative :class:`~repro.scenarios.Scenario` (transport × topology ×
workload × caching), the ``substrate`` to execute it on (``"sim"``,
``"live"``, or ``"fleet"``), and the execution knobs (seed override,
repeats, worker processes, live-loop or fleet options).
``repro.api.run(spec)`` compiles it to a
:class:`~repro.scenarios.ScenarioRunner` execution, a serve+loadtest
pairing, or a :func:`~repro.fleet.run_fleet` aggregate pass and returns
one :class:`~repro.api.report.Report` every way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.fleet.options import FleetOptions, FleetOptionsError
from repro.live.wiring import DEFAULT_SECRET
from repro.scenarios import Scenario, ScenarioError, scenario_from_spec

from .report import SUBSTRATES


class ApiError(ScenarioError):
    """An inconsistent RunSpec.

    Subclasses :class:`~repro.scenarios.ScenarioError` so the CLI's
    one misconfiguration handler covers the façade too.
    """


@dataclass(frozen=True)
class LiveOptions:
    """Knobs only the live substrate consumes.

    ``host=None`` (the default) self-serves: ``run()`` stands up a
    loopback :class:`~repro.live.workers.ServePool` on an ephemeral
    port (``port=0``) and drives the load against it — the zero-config
    serve+loadtest pairing. Point ``host``/``port`` at an already
    running server to measure it instead (the server must share the
    spec's name universe).

    ``serve_workers`` is the pool's size (N server processes, sharing
    the port through SO_REUSEPORT when N > 1), and every self-served
    Report carries its per-worker detail under ``live.workers.serve.*``.
    ``load_workers`` above 1 forks M distributed load generators
    (``live.workers.load.*``); one load worker runs in this process,
    where its progress and stream sinks are. Both default to 1.

    ``secret`` is the OSCORE master secret both sides derive their
    contexts from. It is key material: neither :meth:`to_dict` nor a
    Report carries it.
    """

    host: Optional[str] = None
    port: int = 0
    mode: str = "open"
    concurrency: int = 8
    timeout: float = 10.0
    dataset: Optional[str] = None
    name_seed: int = 7
    serve_workers: int = 1
    load_workers: int = 1
    secret: bytes = field(default=DEFAULT_SECRET, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in ("open", "closed"):
            raise ApiError(f"unknown live mode {self.mode!r} (open or closed)")
        if self.concurrency < 1:
            raise ApiError("concurrency must be >= 1")
        if self.timeout <= 0:
            raise ApiError("timeout must be positive")
        if self.serve_workers < 1:
            raise ApiError("serve_workers must be >= 1")
        if self.load_workers < 1:
            raise ApiError("load_workers must be >= 1")
        if self.serve_workers > 1 and self.host is not None:
            raise ApiError(
                "serve_workers applies to self-served runs only "
                "(drop live-host, or shard the external server itself)"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "host": self.host,
            "port": self.port,
            "mode": self.mode,
            "concurrency": self.concurrency,
            "timeout": self.timeout,
            "dataset": self.dataset,
            "name_seed": self.name_seed,
            "serve_workers": self.serve_workers,
            "load_workers": self.load_workers,
        }


@dataclass(frozen=True)
class RunSpec:
    """One run, ready for either substrate.

    ``seed=None`` defers to the scenario's own seed; an explicit value
    overrides it (``repeats`` > 1 derives per-repetition seeds, see
    :meth:`repeat_seeds`). ``workers`` fans repeated simulations out
    over a process pool.
    """

    scenario: Scenario = field(default_factory=Scenario)
    substrate: str = "sim"
    seed: Optional[int] = None
    repeats: int = 1
    workers: Optional[int] = None
    live: LiveOptions = field(default_factory=LiveOptions)
    fleet: FleetOptions = field(default_factory=FleetOptions)

    def __post_init__(self) -> None:
        if self.substrate not in SUBSTRATES:
            raise ApiError(
                f"unknown substrate {self.substrate!r} "
                f"(known: {', '.join(SUBSTRATES)})"
            )
        if self.repeats < 1:
            raise ApiError("repeats must be >= 1")
        if self.workers is not None and self.workers < 1:
            raise ApiError("workers must be >= 1")
        if self.substrate == "live":
            # Every transport a Scenario accepts runs live (the runnable
            # profiles are one set for both substrates); the proxy is
            # what only the simulator has. An *explicit* caching spec
            # naming the proxy, or the proxy forwarder itself, cannot
            # run live. (When `caching` is None the resolved
            # caching_spec defaults `proxy=True`, but without
            # `use_proxy` no proxy exists — that default must not
            # reject a plain live run.)
            explicit_proxy_cache = (
                self.scenario.caching is not None
                and self.scenario.caching.proxy
            )
            if explicit_proxy_cache or self.scenario.use_proxy:
                raise ApiError(
                    "the live substrate has no forward proxy; use a "
                    "client-side cache placement (client-dns, client-coap)"
                )

    # -- derivation --------------------------------------------------------

    @property
    def effective_seed(self) -> int:
        return self.seed if self.seed is not None else self.scenario.seed

    def to_scenario(self, seed: Optional[int] = None) -> Scenario:
        """The scenario this spec executes (optionally re-seeded)."""
        use = seed if seed is not None else self.effective_seed
        if use == self.scenario.seed:
            return self.scenario
        return self.scenario.with_seed(use)

    def repeat_seeds(self) -> list:
        """Per-repetition seeds, ``seed + 1000·k``: far enough apart
        that repeats of neighbouring base seeds never share a seed."""
        base = self.effective_seed
        return [base + repetition * 1000 for repetition in range(self.repeats)]

    def client_cache_placement(self) -> str:
        """The client-side slice of the caching placement, as the
        ``+``-joined vocabulary the live resolver accepts."""
        caching = self.scenario.caching_spec
        parts = [
            name
            for name, enabled in (
                ("client-dns", caching.client_dns),
                ("client-coap", caching.client_coap),
            )
            if enabled
        ]
        return "+".join(parts) if parts else "none"

    # -- construction ------------------------------------------------------

    @classmethod
    def from_scenario(cls, scenario: Scenario, **overrides) -> "RunSpec":
        return cls(scenario=scenario, **overrides)

    @classmethod
    def from_spec(cls, text: str, base: Optional["RunSpec"] = None) -> "RunSpec":
        """Parse ``"[preset][,key=value]..."`` into a RunSpec.

        Understands every :func:`~repro.scenarios.scenario_from_spec`
        key plus the façade's own: ``substrate``
        (``sim``/``live``/``fleet``), ``repeats``, ``workers``, the
        live-loop keys ``live-host``, ``live-port``, ``mode``,
        ``concurrency``, ``timeout``, ``serve_workers``,
        ``load_workers``, and the fleet keys ``churn``, ``duty_cycle``,
        ``duty_period``, ``flash_crowd``, ``fleet-sample-cap``,
        ``fleet-probe-clients``, ``fleet-probe-queries``.
        """
        base = base if base is not None else cls()
        api_fields: Dict[str, object] = {}
        live_fields: Dict[str, object] = {}
        fleet_fields: Dict[str, object] = {}
        scenario_parts = []
        for part in (p.strip() for p in text.split(",")):
            if not part:
                continue
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if "=" not in part:
                scenario_parts.append(part)
            elif key == "substrate":
                api_fields["substrate"] = value.lower()
            elif key == "repeats":
                api_fields["repeats"] = int(value)
            elif key == "workers":
                api_fields["workers"] = int(value)
            elif key == "live-host":
                live_fields["host"] = value
            elif key == "live-port":
                live_fields["port"] = int(value)
            elif key == "mode":
                live_fields["mode"] = value.lower()
            elif key == "concurrency":
                live_fields["concurrency"] = int(value)
            elif key == "timeout":
                live_fields["timeout"] = float(value)
            elif key in ("serve_workers", "serve-workers"):
                live_fields["serve_workers"] = int(value)
            elif key in ("load_workers", "load-workers"):
                live_fields["load_workers"] = int(value)
            elif key == "churn":
                fleet_fields["churn"] = float(value)
            elif key in ("duty_cycle", "duty-cycle"):
                fleet_fields["duty_cycle"] = float(value)
            elif key in ("duty_period", "duty-period"):
                fleet_fields["duty_period"] = float(value)
            elif key in ("flash_crowd", "flash-crowd"):
                fleet_fields["flash_crowd"] = float(value)
            elif key in ("fleet_sample_cap", "fleet-sample-cap"):
                fleet_fields["sample_cap"] = int(value)
            elif key in ("fleet_probe_clients", "fleet-probe-clients"):
                fleet_fields["probe_clients"] = int(value)
            elif key in ("fleet_probe_queries", "fleet-probe-queries"):
                fleet_fields["probe_queries"] = int(value)
            else:
                scenario_parts.append(part)
        scenario = base.scenario
        if scenario_parts:
            scenario = scenario_from_spec(
                ",".join(scenario_parts), base=scenario
            )
        live = replace(base.live, **live_fields) if live_fields else base.live
        try:
            fleet = (
                replace(base.fleet, **fleet_fields)
                if fleet_fields else base.fleet
            )
        except FleetOptionsError as error:
            raise ApiError(str(error)) from error
        return cls(
            scenario=scenario,
            substrate=api_fields.get("substrate", base.substrate),
            seed=base.seed,
            repeats=api_fields.get("repeats", base.repeats),
            workers=api_fields.get("workers", base.workers),
            live=live,
            fleet=fleet,
        )

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """The JSON-ready description stamped into a Report's ``spec``."""
        scenario = self.scenario
        workload = scenario.workload
        topology = scenario.topology
        caching = scenario.caching_spec
        spec: Dict[str, object] = {
            "name": scenario.name,
            "substrate": self.substrate,
            "transport": scenario.transport,
            "scheme": scenario.scheme.value,
            "seed": self.effective_seed,
            "repeats": self.repeats,
            "workers": self.workers,
            "workload": {
                "num_queries": workload.num_queries,
                "num_names": workload.num_names,
                "records_per_name": workload.records_per_name,
                "query_rate": workload.query_rate,
                "rtype_mix": [list(pair) for pair in workload.rtype_mix],
                "burst_size": workload.burst_size,
                "ttl": list(workload.ttl),
                "arrival": workload.arrival,
                "burst_on": workload.burst_on,
                "burst_off": workload.burst_off,
                "zipf_alpha": workload.zipf_alpha,
            },
            "caching": {
                "placement": caching.placement_label(),
                "scheme": (
                    caching.scheme.value
                    if caching.scheme is not None else None
                ),
            },
        }
        if self.substrate in ("sim", "fleet"):
            spec["topology"] = {
                "name": topology.name,
                "hops": topology.hops,
                "clients": topology.clients,
                "loss": topology.loss,
                "l2_retries": topology.l2_retries,
                "wired_tail": topology.wired_tail,
            }
            spec["use_proxy"] = scenario.use_proxy
            if self.substrate == "fleet":
                spec["fleet"] = self.fleet.to_dict()
        else:
            spec["live"] = self.live.to_dict()
        return spec
