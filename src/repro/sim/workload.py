"""Workload generation: arrival processes and name popularity.

Section 5.1: "The query rate is Poisson-distributed with λ = 5
queries/s" across the clients, for 50 names per run. Beyond that
baseline this module provides the scenario-diversity knobs shared by
the simulated sweeps and the live load generator
(:mod:`repro.live.loadgen`):

* :func:`bursty_arrival_times` — an on/off modulated Poisson process
  (exponential arrivals during ON periods, silence during OFF), the
  classic model for duty-cycled sensor traffic;
* :func:`zipf_cumulative` / :func:`sample_zipf_many` — Zipf(α) name
  popularity, the standard skew of real DNS workloads (a few hot
  names, a long cold tail).
"""

from __future__ import annotations

import random
from bisect import bisect
from functools import lru_cache
from itertools import accumulate
from typing import List, Sequence, Tuple


def poisson_arrival_times(
    rng: random.Random, rate: float, count: int, start: float = 0.0
) -> List[float]:
    """*count* arrival times of a Poisson process with *rate* events/s.

    Inter-arrival gaps are exponential with mean ``1/rate``.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")
    times = []
    current = start
    for _ in range(count):
        current += rng.expovariate(rate)
        times.append(current)
    return times


def bursty_arrival_times(
    rng: random.Random,
    rate: float,
    count: int,
    on_duration: float,
    off_duration: float,
    start: float = 0.0,
) -> List[float]:
    """*count* arrivals of an on/off modulated Poisson process.

    Time alternates between ON windows of *on_duration* seconds and
    OFF windows of *off_duration* seconds (the first window starts ON
    at *start*). During ON windows arrivals are Poisson with an
    elevated rate of ``rate * (on + off) / on`` so the long-run average
    rate stays *rate* — the same offered load as the steady process,
    concentrated into bursts. OFF windows produce no arrivals.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")
    if on_duration <= 0:
        raise ValueError("on_duration must be positive")
    if off_duration < 0:
        raise ValueError("off_duration must be non-negative")
    period = on_duration + off_duration
    on_rate = rate * period / on_duration
    times: List[float] = []
    current = start
    while len(times) < count:
        current += rng.expovariate(on_rate)
        # Fold the candidate into the ON portion of its period: any
        # arrival landing inside an OFF window is deferred past it.
        offset = (current - start) % period
        if offset >= on_duration:
            current += period - offset
            continue
        times.append(current)
    return times


def zipf_weights(count: int, alpha: float) -> List[float]:
    """Unnormalised Zipf(α) weights for ranks ``1..count``.

    Rank *k* gets weight ``k ** -alpha``; ``alpha = 0`` degenerates to
    the uniform distribution. Typical DNS popularity skews sit around
    ``alpha ≈ 0.9–1.1``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return [(k + 1) ** -alpha for k in range(count)]


@lru_cache(maxsize=256)
def zipf_cumulative(count: int, alpha: float) -> Tuple[float, ...]:
    """Cached cumulative Zipf(α) weights for ranks ``1..count``.

    The shared inversion table behind every Zipf draw in the repo:
    :meth:`repro.scenarios.WorkloadSpec.draw_name_index` (sim and live
    loadgen) and the fleet engine's bulk draws all bisect this array,
    so the popularity stream is identical across substrates. Cached on
    ``(count, alpha)`` because sweeps re-derive it per cell.
    """
    return tuple(accumulate(zipf_weights(count, alpha)))


def sample_zipf_many(
    rng: random.Random, cumulative: Sequence[float], n: int
) -> List[int]:
    """*n* rank indices (0-based) drawn from a cumulative-weight table.

    *cumulative* is a :func:`zipf_cumulative` table (any non-decreasing
    positive cumulative weights work). Consumes exactly one
    ``rng.random()`` per draw via the same scaled-uniform bisection as
    ``random.Random.choices`` — the stream contract: a bulk call of
    size *n* advances the RNG identically to *n* single draws through
    ``draw_name_index``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    total = cumulative[-1] + 0.0
    hi = len(cumulative) - 1
    random_ = rng.random
    return [bisect(cumulative, random_() * total, 0, hi) for _ in range(n)]
