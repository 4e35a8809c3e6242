"""Zone database backing the mock recursive resolver.

The paper mocks up the recursive resolver to "generate the desired
responses" (Section 5.1). This zone database plays the role of the
authoritative data behind that mock: experiments pre-load it with the
records a run should resolve (e.g. 50 names of 24 characters, or four
AAAA records per name for the caching study).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .enums import DNSClass, RecordType
from .rdata import AData, AAAAData


@dataclass(frozen=True)
class ZoneRecord:
    """One authoritative record: owner name, type, TTL, and rdata."""

    name: str
    rtype: int
    ttl: int
    rdata: object
    rclass: int = DNSClass.IN


class Zone:
    """A flat set of authoritative records with simple lookup.

    No delegation logic — the experiments resolve leaf names only —
    but ANY queries and per-record TTL overrides are supported because
    the Section 3 datasets exercise them.
    """

    def __init__(self, records: Iterable[ZoneRecord] = ()) -> None:
        self._records: Dict[Tuple[str, int], List[ZoneRecord]] = {}
        for record in records:
            self.add(record)

    def add(self, record: ZoneRecord) -> None:
        key = (record.name.lower(), int(record.rtype))
        self._records.setdefault(key, []).append(record)

    def add_address(
        self, name: str, address: str, ttl: int = 300
    ) -> ZoneRecord:
        """Convenience: add an A or AAAA record inferred from *address*."""
        if ":" in address:
            record = ZoneRecord(name, RecordType.AAAA, ttl, AAAAData(address))
        else:
            record = ZoneRecord(name, RecordType.A, ttl, AData(address))
        self.add(record)
        return record

    def lookup(
        self, name: str, rtype: int, rclass: int = DNSClass.IN
    ) -> List[ZoneRecord]:
        """All matching records; ANY returns every type for the name."""
        name = name.lower()
        if rtype == RecordType.ANY:
            matches: List[ZoneRecord] = []
            for (owner, _rtype), records in self._records.items():
                if owner == name:
                    matches.extend(r for r in records if r.rclass == rclass)
            return matches
        return [
            r
            for r in self._records.get((name, int(rtype)), [])
            if r.rclass == rclass
        ]
