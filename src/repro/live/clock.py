"""Wall-clock implementation of the :class:`repro.sim.clock.Clock`
protocol on the asyncio event loop.

Timers map to :meth:`asyncio.loop.call_later`, ``now`` to
:func:`time.monotonic` (rebased so a fresh clock starts at 0, like a
fresh :class:`~repro.sim.core.Simulator`), and ``rng`` is a seeded
:class:`random.Random` — making a live run replayable in its protocol
choices (MIDs, tokens, back-off jitter, DTLS randoms) under the same
seed, even though packet timing is real.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Callable


class AsyncioClock:
    """The :class:`~repro.sim.clock.Clock` of the live runtime.

    ``now`` works anywhere (it reads the monotonic clock directly);
    :meth:`schedule` requires a running event loop, which is always the
    case when the protocol stack arms timers — it only does so from
    within datagram callbacks and coroutines.

    Parameters
    ----------
    seed:
        Seed for ``rng``, the source of all stochastic protocol
        behaviour (mirrors ``Simulator(seed=...)``).
    """

    def __init__(self, seed: int = 1) -> None:
        self._epoch = time.monotonic()
        self.rng = random.Random(seed)

    @property
    def now(self) -> float:
        """Seconds of monotonic wall-clock time since construction."""
        return time.monotonic() - self._epoch

    def schedule(
        self, delay: float, callback: Callable, *args: Any
    ) -> asyncio.TimerHandle:
        """Run ``callback(*args)`` after *delay* wall-clock seconds.

        Returns the :class:`asyncio.TimerHandle`, whose idempotent
        ``cancel()`` satisfies the :class:`~repro.sim.clock.Timer`
        protocol.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        loop = asyncio.get_running_loop()
        return loop.call_later(delay, callback, *args)
