"""Deterministic discrete-event loop.

A minimal scheduler in the style of SimPy's core but callback-based:
events are ``(time, sequence, callback)`` triples on a heap; equal
times fire in scheduling order, which keeps runs reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, Iterable, List, Optional, Tuple


class Event:
    """A scheduled callback; cancellable until it fires."""

    __slots__ = ("time", "callback", "args", "cancelled", "fired", "_sim")

    def __init__(
        self, time: float, callback: Callable, args: tuple,
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent; cancelling an
        already-fired event is a no-op)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._on_cancel()


class Simulator:
    """The event loop.

    Implements the :class:`repro.sim.clock.Clock` protocol (``now`` /
    ``schedule`` / ``schedule_at`` / ``rng``) on virtual time; the
    protocol stack built against it also runs unchanged on the
    wall-clock :class:`repro.live.clock.AsyncioClock`.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide RNG (`self.rng`); all stochastic
        behaviour (loss, back-off jitter, Poisson arrivals) must draw
        from it so runs are reproducible.
    """

    #: Compaction threshold: once the heap holds this many entries and
    #: more than half of them are cancelled, dead entries are purged so
    #: long parameter sweeps don't accumulate them.
    COMPACT_MIN_SIZE = 64

    def __init__(self, seed: int = 1) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._cancelled_in_heap = 0
        self.rng = random.Random(seed)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable, *args: Any) -> Event:
        """Run ``callback(*args)`` after *delay* seconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = Event(self._now + delay, callback, args, sim=self)
        heapq.heappush(self._heap, (event.time, next(self._sequence), event))
        return event

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> Event:
        """Run ``callback(*args)`` at absolute simulated *time*.

        Raises
        ------
        ValueError
            If *time* lies in the simulated past — mirroring
            :meth:`schedule`'s negative-delay error instead of silently
            clamping to "now", which used to mask scheduling bugs.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time}: simulated time is already "
                f"{self._now}"
            )
        return self.schedule(time - self._now, callback, *args)

    def schedule_many(
        self, entries: Iterable[Tuple[float, Callable, tuple]]
    ) -> List[Event]:
        """Schedule a batch of ``(time, callback, args)`` absolute-time events.

        Appends every entry and restores the heap invariant with a
        single :func:`heapq.heapify` — O(n + m) instead of m pushes at
        O(log n) each, which is what large-fleet arrival schedules pay
        per run. Pop order is identical to the equivalent sequence of
        :meth:`schedule_at` calls: entries receive consecutive sequence
        numbers in iteration order and ``(time, sequence)`` keys are
        unique, so the heap's total order does not depend on how the
        entries were inserted.

        Raises
        ------
        ValueError
            If any entry's time lies in the simulated past (matching
            :meth:`schedule_at`); no event is scheduled in that case.
        """
        staged: List[Tuple[float, Callable, tuple]] = []
        for time, callback, args in entries:
            if time < self._now:
                raise ValueError(
                    f"cannot schedule at {time}: simulated time is already "
                    f"{self._now}"
                )
            staged.append((time, callback, args))
        events: List[Event] = []
        for time, callback, args in staged:
            event = Event(time, callback, args, sim=self)
            self._heap.append((time, next(self._sequence), event))
            events.append(event)
        heapq.heapify(self._heap)
        return events

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> None:
        """Process events until the heap is empty or *until* is reached."""
        processed = 0
        while self._heap:
            time = self._heap[0][0]
            if until is not None and time > until:
                self._now = until
                return
            self._now = time
            # Coalesce same-timestamp pops: drain every entry stamped
            # with this time in one inner loop, skipping the until
            # check and clock update the outer loop repeats per event.
            # Callbacks may push new events (or trigger compaction via
            # cancel), so the heap must be re-read through self._heap.
            while self._heap and self._heap[0][0] == time:
                _, _, event = heapq.heappop(self._heap)
                if event.cancelled:
                    self._cancelled_in_heap -= 1
                    continue
                event.fired = True
                event.callback(*event.args)
                processed += 1
                if processed >= max_events:
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events — "
                        f"likely a loop"
                    )
        if until is not None:
            self._now = until

    def _on_cancel(self) -> None:
        self._cancelled_in_heap += 1
        if (
            len(self._heap) >= self.COMPACT_MIN_SIZE
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._heap = [
                entry for entry in self._heap if not entry[2].cancelled
            ]
            heapq.heapify(self._heap)
            self._cancelled_in_heap = 0
