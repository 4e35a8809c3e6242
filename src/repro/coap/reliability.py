"""CoAP message-layer reliability (RFC 7252 §4.2).

Confirmable messages are retransmitted with binary exponential back-off:
the initial timeout is drawn uniformly from
``[ACK_TIMEOUT, ACK_TIMEOUT * ACK_RANDOM_FACTOR]`` and doubles up to
``MAX_RETRANSMIT`` times. The paper leans on this algorithm twice: its
DNS-over-UDP baseline adopts it for comparability (Appendix B), and the
gray retransmission regions of Figure 11 are exactly the cumulative
back-off windows computed by :meth:`ReliabilityParams.retransmission_window`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class ReliabilityParams:
    """RFC 7252 §4.8 transmission parameters."""

    ack_timeout: float = 2.0
    ack_random_factor: float = 1.5
    max_retransmit: int = 4
    nstart: int = 1

    def initial_timeout(self, rng: random.Random) -> float:
        """Draw the randomised initial ACK timeout."""
        return rng.uniform(
            self.ack_timeout, self.ack_timeout * self.ack_random_factor
        )

    def retransmission_window(self, attempt: int) -> Tuple[float, float]:
        """Earliest/latest offset of retransmission *attempt* (1-based).

        These are the boundaries of the gray areas in Figure 11.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        scale = (1 << attempt) - 1
        return (
            self.ack_timeout * scale,
            self.ack_timeout * self.ack_random_factor * scale,
        )


class TransmissionState:
    """Retransmission bookkeeping for one outstanding CON message."""

    def __init__(self, params: ReliabilityParams, rng: random.Random) -> None:
        self._params = params
        self.timeout = params.initial_timeout(rng)
        self.retransmissions = 0

    @property
    def exhausted(self) -> bool:
        """True when MAX_RETRANSMIT retransmissions have been spent."""
        return self.retransmissions >= self._params.max_retransmit

    def register_timeout(self) -> bool:
        """Record a timeout; True if a retransmission should be sent.

        Doubles the timeout for the next attempt per §4.2.
        """
        if self.exhausted:
            return False
        self.retransmissions += 1
        self.timeout *= 2
        return True
