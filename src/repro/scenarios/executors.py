"""The one way sweeps and repeats fan out: an ordered map.

A sweep (:func:`repro.api.sweep`) is an embarrassingly parallel grid:
every cell is a pure function of its :class:`repro.api.RunSpec` (each
cell builds its own :class:`~repro.sim.Simulator` with its own seeded
RNG), so cells can run in any order — or concurrently — without
affecting each other's results. The same holds for the seeded repeats
of one RunSpec.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class ExecutorError(ValueError):
    """An invalid worker count."""


def ordered_map(
    fn: Callable[[T], R], items: Sequence[T], workers: Optional[int] = None
) -> List[R]:
    """``[fn(item) for item in items]``, on *workers* processes.

    Results come back **in input order** whatever the completion order
    (``Executor.map`` yields in submission order), which is what keeps
    a sweep bit-identical for any worker count. ``workers`` of ``None``
    or 1, or a single item, runs in-process — no point paying process
    start-up for it. Otherwise *fn*, the items and the results cross
    process boundaries, so all three must be picklable (*fn* by import
    path; specs, scenarios, Reports and result structs are plain
    dataclasses).
    """
    if workers is not None and workers < 1:
        raise ExecutorError(f"workers must be >= 1, got {workers}")
    if workers is None or workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))
