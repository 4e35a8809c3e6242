"""Discrete-event simulation substrate.

Replaces the paper's FIT IoT-LAB testbed: a deterministic event loop
(:mod:`repro.sim.core`), a shared-medium radio model with airtime,
loss, and link-layer retransmissions (:mod:`repro.sim.medium`), a
frame sniffer standing in for the testbed's ``sniffer_aggregator``
(:mod:`repro.sim.trace`), and a Poisson workload generator
(:mod:`repro.sim.workload`).
"""

from .clock import Clock, Timer
from .core import Event, Simulator
from .medium import RadioLink, RadioMedium
from .trace import FrameRecord, FrameTally, Sniffer
from .workload import (
    bursty_arrival_times,
    poisson_arrival_times,
    sample_zipf_many,
    zipf_cumulative,
    zipf_weights,
)

__all__ = [
    "Clock",
    "Event",
    "FrameRecord",
    "FrameTally",
    "RadioLink",
    "RadioMedium",
    "Simulator",
    "Sniffer",
    "Timer",
    "bursty_arrival_times",
    "poisson_arrival_times",
    "sample_zipf_many",
    "zipf_cumulative",
    "zipf_weights",
]
