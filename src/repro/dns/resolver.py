"""Resolver roles: query construction, stub parsing, recursive serving.

``RecursiveResolver`` is the paper's resolver *S* in Figure 2: it owns a
DNS cache and consults the authoritative zone (the stand-in for the name
servers *NS*) on cache misses. ``StubResolver`` is the client-side logic
shared by every DNS transport in the paper (UDP, DTLS, and DoC reuse one
"generic interface to compose and parse DNS messages", Appendix B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .cache import DNSCache
from .enums import DNSClass, Rcode, RecordType
from .message import Flags, Message, Question, ResourceRecord
from .rdata import AData, AAAAData
from .zone import Zone


#: ``Flags`` is immutable, so the few flag words queries and answers
#: carry are built once and shared, as ``Message.decode`` shares them.
RD_QUERY_FLAGS = Flags(qr=False, rd=True)
_ANSWER_FLAGS = {
    (rd, rcode): Flags(qr=True, rd=rd, ra=True, rcode=rcode)
    for rd in (False, True)
    for rcode in (Rcode.NOERROR, Rcode.FORMERR, Rcode.NXDOMAIN)
}


def make_query(
    name: str,
    rtype: int = RecordType.AAAA,
    rclass: int = DNSClass.IN,
    txid: int = 0,
    recursion_desired: bool = True,
) -> Message:
    """Build a standard one-question query.

    The transaction ID defaults to 0 per the DoC cache-key rule
    (Section 4.2); plain UDP/DTLS transports pass a real ID.
    """
    flags = RD_QUERY_FLAGS if recursion_desired else Flags(qr=False, rd=False)
    return Message(txid, flags, (Question(name, rtype, rclass),))


@dataclass
class ResolutionResult:
    """Outcome of a stub resolution: addresses plus response metadata."""

    addresses: List[str]
    rcode: int
    response: Message
    min_ttl: Optional[int] = None
    #: True when served from the local DNS cache (no wire exchange).
    from_cache: bool = False


class StubResolver:
    """Client-side DNS logic: compose queries, parse/validate responses."""

    def __init__(self, cache: Optional[DNSCache] = None) -> None:
        self.cache = cache

    def cached_response(
        self, question: Question, now: float
    ) -> Optional[Message]:
        """Look up the local DNS cache, if one is configured."""
        if self.cache is None:
            return None
        return self.cache.lookup(question, now)

    def handle_response(
        self, question: Question, response: Message, now: float
    ) -> ResolutionResult:
        """Validate *response* against *question* and extract addresses.

        The response is stored in the local DNS cache (when present)
        with whatever TTLs it carries — DoC clients must therefore
        restore TTLs from Max-Age *before* calling this (Section 4.2).
        """
        if not response.flags.qr:
            raise ValueError("response lacks QR flag")
        if response.questions and (
            response.questions[0].cache_key() != question.cache_key()
        ):
            raise ValueError(
                "response question does not match query: "
                f"{response.questions[0]} != {question}"
            )
        addresses = extract_addresses(response)
        if self.cache is not None and response.flags.rcode == Rcode.NOERROR:
            self.cache.store(question, response, now)
        return ResolutionResult(
            addresses=addresses,
            rcode=response.flags.rcode,
            response=response,
            min_ttl=response.min_ttl(),
        )


def extract_addresses(response: Message) -> List[str]:
    """All A/AAAA addresses in the answer section, in order."""
    addresses: List[str] = []
    for record in response.answers:
        if isinstance(record.rdata, (AData, AAAAData)):
            addresses.append(record.rdata.address)
    return addresses


@dataclass
class ResolverStats:
    """Counters exposed by the recursive resolver for the harness."""

    queries: int = 0
    cache_hits: int = 0
    upstream_queries: int = 0
    nxdomain: int = 0


class RecursiveResolver:
    """The recursive resolver *S*: DNS cache in front of a zone database.

    Parameters
    ----------
    zone:
        Authoritative data standing in for the upstream name servers.
    cache_capacity:
        Size of the resolver's DNS cache.
    upstream_ttl_range:
        When set to ``(low, high)``, every upstream (zone) resolution
        draws a fresh TTL uniformly from this range instead of using the
        zone's static TTLs — the paper's mocked resolver behaviour that
        "introduces quick cache renewals" (Section 6.1) and the TTL
        churn that breaks DoH-like revalidation (Figure 3 step 3).
    rng:
        Randomness source for the TTL draws (seed for determinism).
    """

    def __init__(
        self,
        zone: Zone,
        cache_capacity: int = 256,
        upstream_ttl_range: "Optional[Tuple[int, int]]" = None,
        rng: "Optional[object]" = None,
    ) -> None:
        self.zone = zone
        self.cache = DNSCache(cache_capacity)
        self.stats = ResolverStats()
        self.upstream_ttl_range = upstream_ttl_range
        if rng is None:
            import random as _random

            rng = _random.Random(0)
        self._rng = rng

    def resolve(self, query: Message, now: float = 0.0) -> Message:
        """Produce a response for *query*, echoing its transaction ID."""
        self.stats.queries += 1
        if not query.questions:
            return self._error(query, Rcode.FORMERR)
        # Common resolver behaviour (Section 3): >1 question is an error.
        if len(query.questions) > 1:
            return self._error(query, Rcode.FORMERR)
        question = query.questions[0]

        cached = self.cache.lookup(question, now)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached.with_id(query.id)

        self.stats.upstream_queries += 1
        records = self.zone.lookup(question.name, question.rtype, question.rclass)
        if not records:
            self.stats.nxdomain += 1
            return self._error(query, Rcode.NXDOMAIN)

        ttl = None
        if self.upstream_ttl_range is not None:
            low, high = self.upstream_ttl_range
            ttl = self._rng.randint(low, high)
        response = Message(
            query.id,
            _ANSWER_FLAGS[query.flags.rd, Rcode.NOERROR],
            (question,),
            tuple([
                ResourceRecord(
                    r.name, r.rtype, r.rclass, r.ttl if ttl is None else ttl,
                    r.rdata,
                )
                for r in records
            ]),
        )
        self.cache.store(question, response, now)
        return response

    @staticmethod
    def _error(query: Message, rcode: int) -> Message:
        return Message(
            query.id, _ANSWER_FLAGS[query.flags.rd, rcode], query.questions
        )
