"""A closed-form model of the reliability layer, sharing no code with it.

The simulator composes three things into every lossy figure: the
medium's i.i.d. per-hop frame loss *p* with *r* MAC retries (ACK
frames are never lost), the frames a message takes per hop, and the
CoAP retransmission of RFC 7252 §4.2, which the DNS-over-UDP baseline
adopts too (the paper's Appendix B). Composed:

* one frame survives one hop with ``q = 1 - p**(r + 1)``;
* an attempt whose request and response together cross *f* frame-hops
  succeeds with ``s = q**f``;
* a query times out when all ``MAX_RETRANSMIT + 1`` attempts fail,
  with probability ``(1 - s)**(MAX_RETRANSMIT + 1)``.

Stated assumption: no channel contention. The medium serialises frames
but never collides them, so the model has no contention term.

The constants are RFC 7252 §4.8's defaults, restated here rather than
imported from ``repro.coap.reliability``.
"""

from __future__ import annotations

import math

ACK_TIMEOUT = 2.0
ACK_RANDOM_FACTOR = 1.5
MAX_RETRANSMIT = 4

#: RFC 7252 §4.8.2: from the first transmission of a CON to the moment
#: its sender gives up, at the longest.
MAX_TRANSMIT_WAIT = ACK_TIMEOUT * ((1 << (MAX_RETRANSMIT + 1)) - 1) * ACK_RANDOM_FACTOR


def hop_survival(loss: float, l2_retries: int) -> float:
    """The chance one frame crosses one hop."""
    return 1.0 - loss ** (l2_retries + 1)


def attempt_success(loss: float, l2_retries: int, frame_hops: float) -> float:
    """The chance one attempt's request and response both arrive."""
    return hop_survival(loss, l2_retries) ** frame_hops


def success_rate(loss: float, l2_retries: int, frame_hops: float) -> float:
    """The chance a query succeeds on one of its attempts."""
    failed = 1.0 - attempt_success(loss, l2_retries, frame_hops)
    return 1.0 - failed ** (MAX_RETRANSMIT + 1)


def binomial_se(rate: float, trials: int) -> float:
    """The standard error of a success rate measured over *trials*."""
    return math.sqrt(rate * (1.0 - rate) / trials)
