"""Radio medium model: airtime, shared channel, loss, L2 retransmissions.

IEEE 802.15.4 at 2.4 GHz transmits 250 kbit/s; a frame's airtime is its
PHY-level size (SHR+PHR preamble of 6 bytes plus the PDU) over that
rate. All nodes of one network share a channel: concurrent transmissions
are serialised (an idealised CSMA without collisions but with queueing
delay, which is what produces the congestion effects the paper sees with
small block sizes, Figure 15).

Per-hop delivery applies an i.i.d. loss probability; the MAC performs
automatic acknowledgments and up to ``l2_retries`` retransmissions
(Section 5.1: "the radio is configured to automatically handle link
layer retransmissions and acknowledgments").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from .core import Simulator

#: 802.15.4 PHY: 4-byte preamble + 1-byte SFD + 1-byte PHR before the PDU.
PHY_OVERHEAD_BYTES = 6
#: 2.4 GHz O-QPSK data rate.
DEFAULT_BITRATE = 250_000
#: macAckWaitDuration-ish gap before a retry (seconds).
ACK_WAIT = 0.002
#: 802.15.4 immediate ACK frame: 5-byte PDU (+PHY overhead).
ACK_FRAME_BYTES = 5 + PHY_OVERHEAD_BYTES


@dataclass
class RadioLink:
    """Directed adjacency between two radio interfaces."""

    src: str
    dst: str
    loss: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must be in [0,1), got {self.loss}")


@dataclass(slots=True)
class _Transmission:
    src: str
    dst: str
    frame: bytes
    metadata: dict
    attempts_left: int
    #: Channel time of one attempt, the same for every retry.
    airtime: float


class RadioMedium:
    """A single shared radio channel connecting named interfaces.

    Interfaces register a receive callback; ``transmit`` queues a frame
    for serialised, lossy delivery to a neighbour. Frame events are
    reported to an optional observer (the sniffer).
    """

    def __init__(
        self,
        sim: Simulator,
        bitrate: int = DEFAULT_BITRATE,
        l2_retries: int = 3,
    ) -> None:
        self.sim = sim
        self.bitrate = bitrate
        self.l2_retries = l2_retries
        self._links: Dict[Tuple[str, str], RadioLink] = {}
        self._receivers: Dict[str, Callable[[str, bytes, dict], None]] = {}
        self._busy_until = 0.0
        self._observers: List[Callable] = []
        self.frames_sent = 0
        self.frames_lost = 0
        self.frames_dropped = 0

    # -- observers ------------------------------------------------------------

    def add_observer(self, observer: Callable) -> None:
        """Attach a frame observer; any number can coexist.

        Each observer is called as ``observer(time, src, dst, frame,
        metadata, lost)`` for every completed transmission. Attaching
        the same callable twice raises — it would double-count frames.
        """
        if observer in self._observers:
            raise ValueError("observer already attached")
        self._observers.append(observer)

    def _notify(
        self, src: str, dst: str, frame: bytes, metadata: dict, lost: bool
    ) -> None:
        for observer in self._observers:
            observer(self.sim.now, src, dst, frame, metadata, lost)

    # -- topology -------------------------------------------------------------

    def register(self, name: str, receive: Callable[[str, bytes, dict], None]) -> None:
        """Attach interface *name* with its frame-receive callback."""
        if name in self._receivers:
            raise ValueError(f"interface {name!r} already registered")
        self._receivers[name] = receive

    def connect(self, a: str, b: str, loss: float = 0.0) -> None:
        """Create a symmetric radio adjacency between *a* and *b*."""
        self._links[(a, b)] = RadioLink(a, b, loss)
        self._links[(b, a)] = RadioLink(b, a, loss)

    def neighbours(self, name: str) -> List[str]:
        return [dst for (src, dst) in self._links if src == name]

    # -- transmission ---------------------------------------------------------

    def airtime(self, frame_length: int) -> float:
        """Seconds the channel is occupied by one frame (+MAC ACK)."""
        data_bits = (frame_length + PHY_OVERHEAD_BYTES) * 8
        ack_bits = ACK_FRAME_BYTES * 8
        return (data_bits + ack_bits) / self.bitrate

    def broadcast(self, src: str, frame: bytes, metadata: dict) -> None:
        """One transmission heard by every neighbour of *src*.

        Broadcast frames are not acknowledged (IEEE 802.15.4 has no
        ACKs for broadcast), so there are no retries; each neighbour
        draws loss independently against its link.
        """
        neighbours = self.neighbours(src)
        if not neighbours:
            return
        start = max(self.sim.now, self._busy_until)
        duration = self.airtime(len(frame))
        self._busy_until = start + duration
        self.sim.schedule_at(
            self._busy_until, self._complete_broadcast, src, neighbours,
            frame, metadata,
        )

    def _complete_broadcast(
        self, src: str, neighbours, frame: bytes, metadata: dict
    ) -> None:
        self.frames_sent += 1
        any_lost = False
        for dst in neighbours:
            link = self._links[(src, dst)]
            lost = self.sim.rng.random() < link.loss
            if lost:
                any_lost = True
                continue
            receiver = self._receivers.get(dst)
            if receiver is not None:
                receiver(src, frame, metadata)
        self._notify(src, "*", frame, metadata, any_lost)
        if any_lost:
            self.frames_lost += 1

    def transmit(self, src: str, dst: str, frame: bytes, metadata: dict) -> None:
        """Queue *frame* from *src* to its neighbour *dst*."""
        link = self._links.get((src, dst))
        if link is None:
            raise ValueError(f"no radio link {src!r} -> {dst!r}")
        transmission = _Transmission(
            src, dst, frame, metadata, self.l2_retries + 1,
            self.airtime(len(frame)),
        )
        self._schedule_attempt(transmission, link)

    def _schedule_attempt(self, transmission: _Transmission, link: RadioLink) -> None:
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + transmission.airtime
        self.sim.schedule_at(
            self._busy_until, self._complete_attempt, transmission, link
        )

    def _complete_attempt(self, transmission: _Transmission, link: RadioLink) -> None:
        self.frames_sent += 1
        lost = self.sim.rng.random() < link.loss
        self._notify(
            transmission.src,
            transmission.dst,
            transmission.frame,
            transmission.metadata,
            lost,
        )
        if not lost:
            receiver = self._receivers.get(transmission.dst)
            if receiver is not None:
                receiver(transmission.src, transmission.frame, transmission.metadata)
            return
        self.frames_lost += 1
        transmission.attempts_left -= 1
        if transmission.attempts_left > 0:
            self.sim.schedule(
                ACK_WAIT, self._schedule_attempt, transmission, link
            )
        else:
            self.frames_dropped += 1
