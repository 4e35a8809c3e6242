"""Frame capture, the stand-in for IoT-LAB's ``sniffer_aggregator``.

Every 802.15.4 frame on the medium is recorded with its timestamp,
link endpoints, length, and the layer annotations attached by the
sending stack. Figure 10's link-utilisation bars and Figure 6/14's
dissections are computed from these records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .medium import RadioMedium


@dataclass(frozen=True)
class FrameRecord:
    """One captured frame."""

    time: float
    src: str
    dst: str
    length: int
    #: Sender-attached annotations, e.g. {"kind": "query", "layers": {...}}.
    metadata: dict
    lost: bool


class Sniffer:
    """Attaches to a :class:`RadioMedium` and records every frame.

    Registers via :meth:`RadioMedium.add_observer`, so a sniffer and
    any other observer (a spy, a second sniffer) coexist instead of
    silently clobbering each other.
    """

    def __init__(self, medium: RadioMedium) -> None:
        self.records: List[FrameRecord] = []
        medium.add_observer(self._observe)

    def _observe(
        self, time: float, src: str, dst: str, frame: bytes, metadata: dict, lost: bool
    ) -> None:
        self.records.append(
            FrameRecord(time, src, dst, len(frame), dict(metadata), lost)
        )


class FrameTally:
    """Aggregated frame counters without per-frame records.

    The aggregate views (per-link frame/byte counts, per-kind totals)
    for runs that read no individual frame. It allocates nothing per
    frame — no :class:`FrameRecord`, no metadata copy — which is why
    scenario runs attach it instead of a full sniffer.
    """

    __slots__ = ("_links", "_kinds")

    def __init__(self, medium: RadioMedium) -> None:
        #: (src, dst) -> [frames, bytes]
        self._links: Dict[tuple, list] = {}
        #: kind -> frame count
        self._kinds: Dict[str, int] = {}
        medium.add_observer(self._observe)

    def _observe(
        self, time: float, src: str, dst: str, frame: bytes, metadata: dict, lost: bool
    ) -> None:
        length = len(frame)
        entry = self._links.get((src, dst))
        if entry is None:
            entry = self._links[(src, dst)] = [0, 0]
        entry[0] += 1
        entry[1] += length
        kind = metadata.get("kind", "unknown")
        self._kinds[kind] = self._kinds.get(kind, 0) + 1

    # -- aggregations ----------------------------------------------------------

    def frame_count(self, a: str, b: str) -> int:
        """Frames in either direction between *a* and *b*."""
        return (
            self._links.get((a, b), (0, 0))[0]
            + self._links.get((b, a), (0, 0))[0]
        )

    def bytes_on_link(self, a: str, b: str) -> int:
        return (
            self._links.get((a, b), (0, 0))[1]
            + self._links.get((b, a), (0, 0))[1]
        )

    def by_kind(self) -> Dict[str, int]:
        """Frame counts per annotated kind (query/response/...)."""
        return dict(self._kinds)
