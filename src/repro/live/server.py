"""The live DoC server: real sockets under the sans-IO stack.

:class:`DocLiveServer` hosts the reproduction's DNS serving stack on a
wall-clock asyncio runtime. The protocol objects are the *same classes*
the simulator drives — :class:`~repro.doc.DocServer`,
:class:`~repro.transports.dns_over_udp.DnsOverUdpServer`, the DTLS
server adapter — scheduled by an
:class:`~repro.live.clock.AsyncioClock` and bound to a
:class:`~repro.live.transport.LiveUdpTransport` instead of a simulated
socket, and wired by the registry profile's ``server_builder``, the
one the simulator calls. Transport profiles map onto the registry's
vocabulary:

========== =====================================================
``udp``    plain DNS over UDP (the unencrypted baseline)
``dtls``   DNS over DTLS (in-network PSK handshake per client)
``coap``   DNS over plain CoAP (FETCH/GET/POST on ``/dns``)
``coaps``  DNS over CoAP over DTLS
``oscore`` DNS over CoAP with OSCORE object security
========== =====================================================
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

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
    build_names,
    build_zone,
    check_live_transport,
    derive_oscore_pair,
)


class DocLiveServer:
    """A resolver serving real UDP traffic on localhost or beyond.

    Parameters
    ----------
    transport:
        One of the live-capable registry profiles (``udp``, ``dtls``,
        ``coap``, ``coaps``, ``oscore``).
    host / port:
        Bind address. The default port (5853) is unprivileged and
        shared with the load generator's default.
    num_names / dataset / name_seed / ttl:
        The served zone: both sides of a live run derive the same name
        universe from these (see :mod:`repro.live.wiring`).
    scheme:
        TTL↔Max-Age handling for the CoAP-based transports.
    seed:
        Seeds the runtime clock's RNG (MIDs, DTLS randoms, TTL draws),
        making the server's protocol choices replayable.
    secret / psk / psk_identity:
        Security material; the client derives matching state from the
        same values.

    ``/metrics`` and ``/healthz`` are not served from here: the
    :class:`~repro.live.workers.ServePool` parent asks every worker for
    its :meth:`stats` block over its pipe and is the one listener.
    """

    def __init__(
        self,
        transport: str = "coap",
        host: str = "127.0.0.1",
        port: int = DEFAULT_LIVE_PORT,
        num_names: int = 50,
        dataset: Optional[str] = None,
        name_seed: int = 7,
        ttl: Tuple[int, int] = (300, 300),
        scheme: CachingScheme = CachingScheme.EOL_TTLS,
        seed: int = 1,
        secret: bytes = DEFAULT_SECRET,
        psk: bytes = DEFAULT_PSK,
        psk_identity: bytes = DEFAULT_PSK_IDENTITY,
        cache_capacity: int = 256,
        fastpath_capacity: int = 512,
        reuse_port: bool = False,
    ) -> None:
        self.transport_name = check_live_transport(transport)
        self.host = host
        self.port = port
        self.scheme = scheme
        self.seed = seed
        self._secret = secret
        self._psk_store = {psk_identity: psk}
        self._cache_capacity = cache_capacity
        # Wire-level response cache for cache-hot queries; live serving
        # defaults it on (capacity 512), pass 0 to disable.
        self._fastpath_capacity = fastpath_capacity
        # SO_REUSEPORT sharing: one worker of a repro.live.workers pool
        # (every pool member binds the same host:port).
        self._reuse_port = reuse_port
        self.clock = AsyncioClock(seed=seed)
        self.names = build_names(num_names, dataset=dataset, name_seed=name_seed)
        self._zone = build_zone(self.names, ttl=ttl, rng=self.clock.rng)
        self._socket: Optional[LiveUdpTransport] = None
        self._server = None
        self.resolver = None
        self._final_stats: Optional[Dict[str, object]] = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the socket and wire the stack; returns ``(host, port)``."""
        from repro.dns import RecursiveResolver

        if self._socket is not None:
            raise LiveWiringError("server already started")
        self.resolver = RecursiveResolver(
            self._zone, cache_capacity=self._cache_capacity,
            rng=self.clock.rng,
        )
        self._socket = await LiveUdpTransport.create(
            self.host, self.port, reuse_port=self._reuse_port
        )
        self.host, self.port = self._socket.local_address
        profile = get_profile(self.transport_name)
        self._server = profile.server_builder(
            self.clock, self._socket, self.resolver,
            scheme=self.scheme,
            psk_store=dict(self._psk_store),
            oscore_context=(
                derive_oscore_pair(self._secret)[1]
                if profile.object_security else None
            ),
            fastpath_capacity=self._fastpath_capacity,
        )
        return (self.host, self.port)

    async def stop(self) -> None:
        if self._socket is not None:
            # Snapshot the counters while the stack is still wired so
            # post-shutdown reports see the final numbers.
            self._final_stats = self.stats()
            self._socket.close()
            self._socket = None
            self._server = None

    async def __aenter__(self) -> "DocLiveServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def endpoint(self) -> Tuple[str, int]:
        return (self.host, self.port)

    # -- observability ----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """The server's counters, JSON-serialisable: what a pool worker
        sends, mid-run and at shutdown.
        :data:`repro.api.report.SERVER_STATS` has a row
        for every leaf."""
        if self._socket is None and getattr(self, "_final_stats", None):
            return self._final_stats
        sock = self._socket
        # Before start, the all-zero counters of an unbound transport.
        io = (sock or LiveUdpTransport(reuse_port=self._reuse_port)).io_counters()
        stats: Dict[str, object] = {
            "transport": self.transport_name,
            "endpoint": list(self.endpoint),
            "names": len(self.names),
            "datagrams_received": sock.datagrams_received if sock else 0,
            "datagrams_sent": sock.datagrams_sent if sock else 0,
            "io": io,
        }
        server = self._server
        if server is not None:
            for attr in (
                "queries_handled",
                "validations_sent",
                "fastpath_hits",
                "fastpath_misses",
            ):
                value = getattr(server, attr, None)
                if value is not None:
                    stats[attr] = value
        if self.resolver is not None:
            cache = self.resolver.cache
            stats["resolver_cache"] = {
                "hits": cache.stats.hits,
                "misses": cache.stats.misses,
                "hit_ratio": cache.stats.hit_ratio,
            }
        return stats
