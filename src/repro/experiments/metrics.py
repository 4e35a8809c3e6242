"""Small statistics helpers for the evaluation harness."""

from __future__ import annotations

from typing import Dict, Sequence, Tuple


def interpolate_sorted(ordered: Sequence[float], position: float) -> float:
    """The value at fractional index *position* of an already-sorted,
    non-empty sequence, linearly interpolated between its neighbours.

    The one exact quantile of the toolkit: every caller turns its
    quantile into a position (``(n - 1) * q / 100`` for a percentile,
    ``u * (n - 1)`` for an inverse-CDF draw) and sorts at most once.
    """
    last = len(ordered) - 1
    if not last:
        return ordered[0]
    lower = int(position)
    upper = lower + 1 if lower < last else last
    fraction = position - lower
    return ordered[lower] * (1 - fraction) + ordered[upper] * fraction


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("empty sequence")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    return interpolate_sorted(ordered, (len(ordered) - 1) * q / 100.0)


def quantiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3), the quartiles of Table 3."""
    return (
        percentile(values, 25),
        percentile(values, 50),
        percentile(values, 75),
    )


def summary_stats(values: Sequence[float]) -> Dict[str, float]:
    """The Table 3 statistics row: min/max/mode/mean/std/quartiles."""
    if not values:
        raise ValueError("empty sequence")
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    counts: Dict[float, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    mode = max(counts.items(), key=lambda item: (item[1], -item[0]))[0]
    q1, q2, q3 = quantiles(values)
    return {
        "count": float(n),
        "min": float(min(values)),
        "max": float(max(values)),
        "mode": float(mode),
        "mean": mean,
        "std": variance ** 0.5,
        "q1": q1,
        "q2": q2,
        "q3": q3,
    }


def fraction_below(values: Sequence[float], threshold: float) -> float:
    """Fraction of *values* strictly below *threshold* (CDF read-off)."""
    if not values:
        raise ValueError("empty sequence")
    return sum(1 for v in values if v < threshold) / len(values)
