"""The Clock/Scheduler protocol the protocol stack is written against.

Every layer of the sans-IO stack — CoAP endpoints, the DoC client and
server, the DTLS adapters, the DNS-over-UDP baseline — needs exactly
three things from its runtime: the current time, one-shot timers, and
a seeded random source. :class:`Clock` names that contract so the same
protocol code runs on two interchangeable substrates:

* :class:`repro.sim.core.Simulator` — virtual time, deterministic
  discrete-event execution (the reproduction's measurement harness);
* :class:`repro.live.clock.AsyncioClock` — wall-clock time on the
  asyncio event loop, driving real UDP sockets (:mod:`repro.live`).

The protocol is structural (:func:`typing.runtime_checkable`): the
``Simulator`` predates it and implements it bit-identically without
inheriting from anything here.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Protocol, runtime_checkable


@runtime_checkable
class Timer(Protocol):
    """A scheduled one-shot callback that can be revoked.

    :meth:`cancel` must be idempotent and must tolerate being called
    after the callback has fired (both :class:`repro.sim.core.Event`
    and :class:`asyncio.TimerHandle` already behave this way).
    """

    def cancel(self) -> None: ...


@runtime_checkable
class Clock(Protocol):
    """Time, timers, and randomness — the stack's runtime contract.

    Attributes
    ----------
    rng:
        The run-wide seeded :class:`random.Random`. All stochastic
        protocol behaviour (message IDs, tokens, back-off jitter, DTLS
        randoms) must draw from it so runs are replayable from the
        seed alone on either substrate.
    """

    rng: random.Random

    @property
    def now(self) -> float:
        """Current time in seconds (simulated or monotonic wall-clock)."""
        ...

    def schedule(self, delay: float, callback: Callable, *args: Any) -> Timer:
        """Run ``callback(*args)`` after *delay* seconds; returns a
        cancellable timer. Negative delays raise :class:`ValueError`."""
        ...
