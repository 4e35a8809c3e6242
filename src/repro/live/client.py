"""The live DoC client: an async resolve API over real sockets.

:class:`LiveResolver` wraps the sans-IO client stack —
:class:`~repro.doc.DocClient` for the CoAP-based transports,
:class:`~repro.transports.dns_over_udp.DnsOverUdpClient` for the
datagram baselines, wired by the registry profile's ``client_builder``
as in the simulator — behind ``await resolver.resolve(name)``: the
stack's one-shot callbacks are bridged onto asyncio futures, and the
retransmission/back-off machinery runs on the wall clock exactly as it
runs on simulated time.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.coap.codes import Code
from repro.dns.enums import RecordType
from repro.doc.caching import CachingScheme
from repro.transports.registry import get_profile

from .clock import AsyncioClock
from .transport import LiveUdpTransport
from .wiring import (
    DEFAULT_LIVE_PORT,
    DEFAULT_PSK,
    DEFAULT_PSK_IDENTITY,
    DEFAULT_SECRET,
    LiveWiringError,
    check_live_transport,
    derive_oscore_pair,
)

#: Default per-query deadline: the stack's own retransmission schedule
#: gives up long before this; the asyncio-level timeout is a backstop.
DEFAULT_QUERY_TIMEOUT = 10.0


@dataclass
class LiveResult:
    """Outcome of one live resolution."""

    name: str
    rtype: int
    addresses: List[str]
    rtt: float
    #: DNS response code (0 = NOERROR); a response arriving is not the
    #: same as a name resolving.
    rcode: int = 0
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        """True when the server answered NOERROR."""
        return self.rcode == 0


class LiveResolver:
    """An asyncio-native stub resolver over any live transport.

    Use as an async context manager (or call :meth:`connect` /
    :meth:`close`); resolve with ``await resolver.resolve(name)``.
    Configuration mirrors :class:`~repro.live.server.DocLiveServer`:
    matching ``secret``/``psk`` values are what let the two halves
    establish OSCORE/DTLS security without a side channel.

    OSCORE caveat: the security context's sender sequence lives in the
    resolver, so one *secret* supports one concurrent resolver session
    per server — a second session restarts the sequence at 0 and the
    server's replay window rejects it (as RFC 8613 requires). Run
    long-lived sessions, or distinct secrets per client.
    """

    def __init__(
        self,
        server: Tuple[str, int] = ("127.0.0.1", DEFAULT_LIVE_PORT),
        transport: str = "coap",
        method: Code = Code.FETCH,
        scheme: CachingScheme = CachingScheme.EOL_TTLS,
        cache_placement: str = "none",
        block_size: Optional[int] = None,
        seed: int = 2,
        secret: bytes = DEFAULT_SECRET,
        psk: bytes = DEFAULT_PSK,
        psk_identity: bytes = DEFAULT_PSK_IDENTITY,
        timeout: float = DEFAULT_QUERY_TIMEOUT,
    ) -> None:
        self.transport_name = check_live_transport(transport)
        self.server = server
        self.method = method
        self.scheme = scheme
        self.block_size = block_size
        self.seed = seed
        self.timeout = timeout
        self._secret = secret
        self._psk = psk
        self._psk_identity = psk_identity
        self._placement = self._parse_placement(cache_placement)
        self.clock = AsyncioClock(seed=seed)
        self._socket: Optional[LiveUdpTransport] = None
        self._client = None
        self.timeouts = 0

    @staticmethod
    def _parse_placement(placement: str) -> Dict[str, bool]:
        # One canonical parser for the +-joined placement vocabulary;
        # the live client merely has no proxy to cache at.
        from repro.scenarios.scenario import CachingSpec

        spec = CachingSpec.from_placement(placement)
        if spec.proxy and placement.strip().lower() != "all":
            raise LiveWiringError(
                "the live client has no proxy cache; use client-dns, "
                "client-coap, all, or none"
            )
        return {"client-dns": spec.client_dns, "client-coap": spec.client_coap}

    # -- lifecycle --------------------------------------------------------

    async def connect(self) -> "LiveResolver":
        if self._socket is not None:
            raise LiveWiringError("resolver already connected")
        # Resolve the server to a numeric endpoint first: the stack
        # addresses it datagram by datagram, and the source filter
        # compares numeric addresses (a hostname would never match).
        self.server, family = await self._resolve_server()
        # Bind narrowly (loopback server -> loopback client socket) and
        # accept datagrams from the configured server only; the stack
        # matches responses by txid/token, which off-path hosts could
        # otherwise forge.
        self._socket = await LiveUdpTransport.create(
            self._bind_host(self.server[0], family), 0,
            allowed_peer=self.server,
        )
        self._client = self._build_client()
        return self

    async def _resolve_server(self):
        import socket as socket_module

        loop = asyncio.get_running_loop()
        try:
            infos = await loop.getaddrinfo(
                self.server[0], self.server[1],
                type=socket_module.SOCK_DGRAM,
            )
        except OSError as exc:
            raise LiveWiringError(
                f"cannot resolve server {self.server[0]!r}: {exc}"
            ) from None
        family, _type, _proto, _canon, sockaddr = infos[0]
        return (sockaddr[0], sockaddr[1]), family

    @staticmethod
    def _bind_host(server_host: str, family) -> str:
        import ipaddress
        import socket as socket_module

        v6 = family == socket_module.AF_INET6
        if ipaddress.ip_address(server_host).is_loopback:
            return "::1" if v6 else "127.0.0.1"
        return "::" if v6 else "0.0.0.0"

    async def close(self) -> None:
        # The client object is kept after close so stats() can still
        # report final counters and cache ratios.
        if self._socket is not None:
            # In-flight queries stop ticking: a late send on the closed
            # socket would be dropped anyway, this quiets the event loop.
            if self._client is not None:
                self._client.cancel_timers()
            self._socket.close()
            self._socket = None

    async def __aenter__(self) -> "LiveResolver":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- wiring -----------------------------------------------------------

    def _build_client(self):
        profile = get_profile(self.transport_name)
        dns_cache = coap_cache = None
        if self._placement["client-dns"]:
            from repro.dns import DNSCache

            dns_cache = DNSCache(64)
        if self._placement["client-coap"] and profile.coap_based:
            from repro.coap.cache import CoapCache

            coap_cache = CoapCache(64)
        return profile.client_builder(
            self.clock, self._socket, self.server,
            method=self.method, scheme=self.scheme,
            block_size=self.block_size,
            dns_cache=dns_cache, coap_cache=coap_cache,
            psk=self._psk, psk_identity=self._psk_identity,
            oscore_context=(
                derive_oscore_pair(self._secret)[0]
                if profile.object_security else None
            ),
        )

    # -- resolution -------------------------------------------------------

    async def resolve(
        self,
        name: str,
        rtype: int = int(RecordType.AAAA),
        timeout: Optional[float] = None,
    ) -> LiveResult:
        """Resolve *name*; raises the stack's error (timeout, DoC
        failure, OSCORE rejection) or :class:`asyncio.TimeoutError`
        when the backstop deadline passes first."""
        if self._client is None or self._socket is None:
            raise LiveWiringError("resolver is not connected")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        started = loop.time()

        def on_result(result, error) -> None:
            if future.done():
                return
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(result)

        self._client.resolve(name, rtype, on_result)
        # The backstop: one timer handle that fails the future, disarmed
        # as soon as the stack has answered (or the caller gave up).
        deadline = loop.call_later(
            timeout if timeout is not None else self.timeout,
            on_result, None, asyncio.TimeoutError(),
        )
        try:
            result = await future
        except asyncio.TimeoutError:
            self.timeouts += 1
            raise
        finally:
            deadline.cancel()
        rtt = loop.time() - started
        addresses = list(getattr(result, "addresses", ()) or ())
        from_cache = bool(getattr(result, "from_cache", False))
        rcode = getattr(result, "rcode", None)
        if rcode is None:
            response = getattr(result, "response", None)
            rcode = int(response.flags.rcode) if response is not None else 0
        return LiveResult(
            name=name, rtype=rtype, addresses=addresses,
            rtt=rtt, rcode=int(rcode), from_cache=from_cache,
        )

    # -- observability ----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Client-side counters, per cache location too
        (JSON-serialisable)."""
        stats: Dict[str, object] = {
            "transport": self.transport_name,
            "timeouts": self.timeouts,
        }
        client = self._client
        if client is None:
            return stats
        for attr in (
            "resolutions_started", "resolutions_completed",
            "resolutions_failed", "transmissions", "retransmissions",
        ):
            value = getattr(client, attr, None)
            if value is not None:
                stats[attr] = value
        caches: Dict[str, object] = {}

        def pool(location: str, cache) -> None:
            # Counters only: a Report derives every ratio from the
            # counters it pools (repro.api.report.REPORT_METRICS).
            if cache is not None:
                caches[location] = cache.stats.as_dict()

        stub = getattr(client, "stub", None)
        pool("client_dns", getattr(stub, "cache", None))
        coap = getattr(client, "coap", None)
        pool("client_coap", getattr(coap, "cache", None))
        stats["caches"] = caches
        return stats
