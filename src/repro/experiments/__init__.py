"""Shared experiment harness.

* :mod:`repro.experiments.packet_sizes` — byte-exact construction and
  per-layer dissection of the canonical messages (Figures 6, 14);
* :mod:`repro.experiments.metrics` — percentiles, quartiles, the
  Table 3 statistics row.

The testbed runs behind Figures 7, 10, 11, 15 are described by a
:class:`repro.api.RunSpec` (or a :class:`repro.scenarios.Scenario`)
and executed by :func:`repro.api.run` /
:class:`repro.scenarios.ScenarioRunner`.
"""

from .packet_sizes import (
    PacketDissection,
    canonical_messages,
    dissect_transport,
    dissect_all,
    FRAGMENTATION_LIMIT,
)
from .metrics import percentile, quantiles, summary_stats

__all__ = [
    "FRAGMENTATION_LIMIT",
    "PacketDissection",
    "canonical_messages",
    "dissect_all",
    "dissect_transport",
    "percentile",
    "quantiles",
    "summary_stats",
]
