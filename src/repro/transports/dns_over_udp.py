"""DNS over UDP, the unencrypted baseline.

Per Appendix B, the paper extends RIOT's DNS-over-UDP client with
asynchronous queries and, for comparability, adopts the CoAP
retransmission algorithm (4 retransmissions, exponential back-off) —
this client does the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.coap.reliability import ReliabilityParams, TransmissionState
from repro.dns import DNSCache, Message, Question, RecursiveResolver, make_query
from repro.dns.resolver import ResolutionResult, StubResolver
from repro.sim.clock import Clock, Timer

DNS_PORT = 53


@dataclass
class _Pending:
    question: Question
    wire: bytes
    on_result: Callable[[Optional[ResolutionResult], Optional[Exception]], None]
    transmission: TransmissionState
    timer: Optional[Timer] = None
    done: bool = False


class DnsTimeoutError(Exception):
    """All retransmissions exhausted without a response."""


class DnsOverUdpClient:
    """Asynchronous stub resolver over plain UDP."""

    def __init__(
        self,
        sim: Clock,
        socket,
        server: Tuple[str, int],
        params: ReliabilityParams = ReliabilityParams(),
        dns_cache: Optional[DNSCache] = None,
    ) -> None:
        self.sim = sim
        self.socket = socket
        self.server = server
        self.params = params
        self.stub = StubResolver(dns_cache)
        self._pending: Dict[int, _Pending] = {}
        self._next_id = sim.rng.randrange(0x10000)
        self.transmissions = 0
        self.retransmissions = 0
        socket.on_datagram = self._on_datagram

    def resolve(
        self,
        name: str,
        rtype: int,
        on_result: Callable[[Optional[ResolutionResult], Optional[Exception]], None],
    ) -> None:
        """Resolve *name*; ``on_result(result, error)`` fires exactly once."""
        question = Question(name, rtype)
        cached = self.stub.cached_response(question, self.sim.now)
        if cached is not None:
            result = ResolutionResult(
                addresses=[
                    r.rdata.address
                    for r in cached.answers
                    if hasattr(r.rdata, "address")
                ],
                rcode=cached.flags.rcode,
                response=cached,
                min_ttl=cached.min_ttl(),
                from_cache=True,
            )
            self.sim.schedule(0.0, on_result, result, None)
            return

        txid = self._next_id
        self._next_id = (self._next_id + 1) & 0xFFFF
        query = make_query(name, rtype, txid=txid)
        pending = _Pending(
            question=question,
            wire=query.encode(),
            on_result=on_result,
            transmission=TransmissionState(self.params, self.sim.rng),
        )
        self._pending[txid] = pending
        self._transmit(txid, pending)

    def cancel_timers(self) -> None:
        """Disarm every pending query's retransmission timer, for a
        client whose socket is closing; the queries stay unanswered."""
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
                pending.timer = None

    def _transmit(self, txid: int, pending: _Pending) -> None:
        self.transmissions += 1
        self.socket.sendto(
            pending.wire, self.server[0], self.server[1], {"kind": "query"}
        )
        pending.timer = self.sim.schedule(
            pending.transmission.timeout, self._on_timeout, txid
        )

    def _on_timeout(self, txid: int) -> None:
        pending = self._pending.get(txid)
        if pending is None or pending.done:
            return
        if pending.transmission.register_timeout():
            self.retransmissions += 1
            self._transmit(txid, pending)
        else:
            pending.done = True
            del self._pending[txid]
            pending.on_result(None, DnsTimeoutError(pending.question.name))

    def _on_datagram(self, src_addr: str, src_port: int, data: bytes, metadata: dict) -> None:
        try:
            response = Message.decode(data)
        except ValueError:
            return
        pending = self._pending.get(response.id)
        if pending is None or pending.done:
            return
        pending.done = True
        if pending.timer is not None:
            pending.timer.cancel()
        del self._pending[response.id]
        try:
            result = self.stub.handle_response(
                pending.question, response, self.sim.now
            )
        except ValueError as exc:
            pending.on_result(None, exc)
            return
        pending.on_result(result, None)


class DnsOverUdpServer:
    """The recursive resolver exposed over UDP port 53."""

    def __init__(
        self,
        sim: Clock,
        socket,
        resolver: RecursiveResolver,
        response_delay: float = 0.0,
    ) -> None:
        self.sim = sim
        self.socket = socket
        self.resolver = resolver
        self.response_delay = response_delay
        self.queries_handled = 0
        socket.on_datagram = self._on_datagram

    def _on_datagram(self, src_addr: str, src_port: int, data: bytes, metadata: dict) -> None:
        try:
            query = Message.decode(data)
        except ValueError:
            return
        self.queries_handled += 1
        response = self.resolver.resolve(query, self.sim.now)
        wire = response.encode()

        def send() -> None:
            self.socket.sendto(wire, src_addr, src_port, {"kind": "response"})

        if self.response_delay > 0:
            self.sim.schedule(self.response_delay, send)
        else:
            send()
