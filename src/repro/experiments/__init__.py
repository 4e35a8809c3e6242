"""Shared experiment harness.

* :mod:`repro.experiments.packet_sizes` — byte-exact construction and
  per-layer dissection of the canonical messages (Figures 6, 14);
* :mod:`repro.experiments.metrics` — CDFs, quartiles, histograms;
* :mod:`repro.experiments.timelines` — the Figure 11 event series.

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
from .metrics import cdf, percentile, quantiles, summary_stats
from .timelines import TimelinePoint, event_timeline, offsets_in_windows

__all__ = [
    "FRAGMENTATION_LIMIT",
    "PacketDissection",
    "canonical_messages",
    "cdf",
    "dissect_all",
    "dissect_transport",
    "percentile",
    "quantiles",
    "TimelinePoint",
    "event_timeline",
    "offsets_in_windows",
    "summary_stats",
]
