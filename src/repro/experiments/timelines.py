"""Event timelines: the actual data series behind Figure 11.

Figure 11 scatters, per DNS query, the time offset of every client-side
CoAP event (initial transmission, retransmissions, cache hits and
validations) against the query's issue time, with the §4.2 back-off
windows shaded. This module turns an :class:`ExperimentResult` into
exactly those series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.coap.reliability import ReliabilityParams

from repro.scenarios.runner import ExperimentResult


@dataclass(frozen=True)
class TimelinePoint:
    """One Figure 11 marker."""

    query_time: float      # x: when the DNS query was issued
    offset: float          # y: event time minus query time
    kind: str              # transmission | retransmission | cache_hit | validation


def event_timeline(result: ExperimentResult) -> List[TimelinePoint]:
    """Flatten a run into Figure 11 points.

    Events are matched to queries by their (token, mid) exchange start:
    the first ``transmission`` of an exchange anchors the offsets of the
    exchange's retransmissions; cache events are anchored to themselves
    (offset ≈ 0, the paper's "negligible time offset").
    """
    anchors: Dict[Tuple[bytes, int], float] = {}
    points: List[TimelinePoint] = []
    for event in result.client_events:
        key = (event.token, event.mid)
        if event.kind == "transmission":
            anchors[key] = event.time
            points.append(TimelinePoint(event.time, 0.0, event.kind))
        elif event.kind == "retransmission":
            start = anchors.get(key, event.time)
            points.append(
                TimelinePoint(start, event.time - start, event.kind)
            )
        else:  # cache_hit / validation happen at request time
            points.append(TimelinePoint(event.time, 0.0, event.kind))
    return points


def retransmission_window_bands(
    params: ReliabilityParams = ReliabilityParams(),
) -> List[Tuple[float, float]]:
    """The gray bands of Figure 11 for the configured parameters."""
    return [
        params.retransmission_window(attempt)
        for attempt in range(1, params.max_retransmit + 1)
    ]


def offsets_in_windows(
    points: List[TimelinePoint],
    params: ReliabilityParams = ReliabilityParams(),
    tolerance: float = 0.10,
) -> float:
    """Fraction of retransmission offsets inside the §4.2 bands.

    Should be ≈ 1.0 for a correct message layer (events can lag the
    band edges slightly by queueing/airtime, hence the tolerance).
    """
    bands = retransmission_window_bands(params)
    retransmissions = [p for p in points if p.kind == "retransmission"]
    if not retransmissions:
        return 1.0
    inside = 0
    for point in retransmissions:
        for low, high in bands:
            if low * (1 - tolerance) <= point.offset <= high * (1 + tolerance):
                inside += 1
                break
    return inside / len(retransmissions)
