"""Fleet-only execution knobs (the ``FleetOptions`` of a RunSpec).

Import-light on purpose: :mod:`repro.api.spec` pulls this module in at
import time, so it must not drag the engine (and with it the scenario
machinery) along.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


class FleetOptionsError(ValueError):
    """An inconsistent fleet configuration."""


#: Hard ceiling on the number of queries the engine simulates exactly;
#: anything above is represented by a client-sampled sub-fleet whose
#: counters scale up (see :mod:`repro.fleet.arrivals`). 64k sampled
#: queries walk in a fraction of a second on one core (README, "Fleet
#: substrate") while leaving percentile estimates tight.
DEFAULT_SAMPLE_CAP = 65536

#: Clients on the exact-simulator probe topology the service-time model
#: calibrates against (capped by the scenario's own client count).
DEFAULT_PROBE_CLIENTS = 4


@dataclass(frozen=True)
class FleetOptions:
    """Knobs only the fleet substrate consumes.

    The fleet-only scenario dimensions the exact simulator cannot
    reach at scale:

    ``churn``
        Fraction of the fleet replaced per second (client lifetimes are
        exponential with mean ``1/churn``). A replaced client restarts
        with cold caches; ``0.0`` (default) disables churn.
    ``duty_cycle`` / ``duty_period``
        Sleepy-node modelling: each client is awake for
        ``duty_cycle × duty_period`` seconds of every ``duty_period``
        second period (per-client phases are spread deterministically).
        Queries arising while a client sleeps are deferred to its next
        wake-up, clumping arrivals at wake boundaries. ``1.0``
        (default) keeps every client always-on.
    ``flash_crowd``
        Arrival-rate multiplier applied over the middle third of the
        nominal run: the base arrival stream is time-warped through the
        inverse cumulative intensity so the total query count is
        preserved while arrivals compress into the crowd window.
        ``1.0`` (default) disables the warp.

    ``sample_cap`` bounds the exactly-simulated query count;
    ``probe_clients``/``probe_queries`` size the calibration run of the
    per-transport service-time model (``probe_queries=None`` derives a
    default from the workload).
    """

    churn: float = 0.0
    duty_cycle: float = 1.0
    duty_period: float = 10.0
    flash_crowd: float = 1.0
    sample_cap: int = DEFAULT_SAMPLE_CAP
    probe_clients: int = DEFAULT_PROBE_CLIENTS
    probe_queries: Optional[int] = None

    def __post_init__(self) -> None:
        if self.churn < 0:
            raise FleetOptionsError("churn must be >= 0")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise FleetOptionsError("duty_cycle must be in (0, 1]")
        if self.duty_period <= 0:
            raise FleetOptionsError("duty_period must be positive")
        if self.flash_crowd < 1.0:
            raise FleetOptionsError("flash_crowd must be >= 1")
        if self.sample_cap < 1:
            raise FleetOptionsError("sample_cap must be >= 1")
        if self.probe_clients < 1:
            raise FleetOptionsError("probe_clients must be >= 1")
        if self.probe_queries is not None and self.probe_queries < 1:
            raise FleetOptionsError("probe_queries must be >= 1")

    def to_dict(self) -> Dict[str, object]:
        return {
            "churn": self.churn,
            "duty_cycle": self.duty_cycle,
            "duty_period": self.duty_period,
            "flash_crowd": self.flash_crowd,
            "sample_cap": self.sample_cap,
            "probe_clients": self.probe_clients,
            "probe_queries": self.probe_queries,
        }
