"""Real UDP sockets with the simulated-socket surface.

:class:`LiveUdpTransport` is the wall-clock counterpart of
:class:`repro.stack.node.UdpSocket`: it exposes the exact
``sendto(payload, dst_addr, dst_port, metadata)`` / ``on_datagram``
contract the sans-IO stack is written against, but backed by a real
socket on the asyncio event loop. CoAP endpoints, DoC clients/servers,
and the DTLS adapters stack on top of it unchanged.

Datagram I/O has one path. The non-blocking socket is registered with
the event loop's reader interface (``loop.add_reader``) and drained in
bursts: one readiness callback receives up to :data:`BATCH_SIZE`
datagrams with plain ``recvfrom`` before yielding back to the loop.
That needs a selector event loop; a loop without ``add_reader`` (the
Windows proactor) is refused with :class:`LiveTransportError`.

The *metadata* dictionary is a simulation-side channel (frame tagging
for the sniffer); on a real socket it has no wire representation, so
outbound metadata is dropped and inbound callbacks receive a fresh
empty dict.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Callable, Dict, Optional, Tuple

#: Upper bound on one UDP payload read (larger than any DoC datagram).
_RECV_SIZE = 65535

#: How many datagrams one readiness callback drains before yielding to
#: the event loop (the fairness bound).
BATCH_SIZE = 64


class LiveTransportError(Exception):
    """Raised on transport misuse (sending before the socket is open) or
    on an event loop the transport cannot run on."""


class LiveUdpTransport:
    """A bound UDP socket quacking like ``repro.stack.node.UdpSocket``.

    Create with :meth:`create` (binds the socket and registers it with
    the running loop). The socket stays open until :meth:`close`.
    """

    def __init__(
        self,
        allowed_peer: Optional[Tuple[str, int]] = None,
        reuse_port: bool = False,
    ) -> None:
        self.on_datagram: Optional[Callable[[str, int, bytes, dict], None]] = None
        self._sock: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._allowed_peer = allowed_peer
        self._reuse_port = reuse_port
        self._closed = False
        self.datagrams_sent = 0
        self.datagrams_received = 0
        self.datagrams_filtered = 0
        self.datagrams_dropped_after_close = 0
        self.send_buffer_drops = 0
        self.send_errors = 0
        self.recv_bursts = 0
        self.recv_errors = 0
        self.largest_burst = 0
        self.last_error: Optional[Exception] = None

    @classmethod
    async def create(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        allowed_peer: Optional[Tuple[str, int]] = None,
        reuse_port: bool = False,
    ) -> "LiveUdpTransport":
        """Bind a UDP socket on ``host:port`` (port 0 = ephemeral).

        *allowed_peer* restricts the socket to one remote endpoint:
        datagrams from any other source are dropped before they reach
        the stack — client sockets talk to exactly one server, and an
        unfiltered port would let any off-path host inject responses.

        *reuse_port* sets ``SO_REUSEPORT`` before binding so N worker
        processes can share one port and let the kernel shard inbound
        flows across them (see :mod:`repro.live.workers`). Callers
        should gate on :func:`repro.live.workers.reuseport_supported`
        first — an unsupported platform raises here.

        A bind failure raises the ``OSError`` it is; a running loop
        without ``add_reader`` raises :class:`LiveTransportError`. The
        socket is closed either way.
        """
        loop = asyncio.get_running_loop()
        transport = cls(allowed_peer=allowed_peer, reuse_port=reuse_port)
        family, type_, proto, _, sockaddr = socket.getaddrinfo(
            host, port, type=socket.SOCK_DGRAM, proto=socket.IPPROTO_UDP
        )[0]
        sock = socket.socket(family, type_, proto)
        try:
            if reuse_port:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.setblocking(False)
            sock.bind(sockaddr)
            loop.add_reader(sock.fileno(), transport._drain_ready)
        except NotImplementedError:
            sock.close()
            raise LiveTransportError(
                f"{type(loop).__name__} has no add_reader: the live "
                "transport needs a selector event loop"
            ) from None
        except BaseException:
            sock.close()
            raise
        transport._sock = sock
        transport._loop = loop
        return transport

    def _drain_ready(self) -> None:
        """One readiness tick: drain up to :data:`BATCH_SIZE` datagrams.

        ``add_reader`` is level-triggered, so stopping at the cap is
        safe — leftover datagrams re-arm the callback on the next loop
        iteration, which keeps one chatty peer from starving timers.

        A ``ConnectionResetError``/``OSError`` mid-batch (Linux queues
        ICMP port-unreachable errors from *earlier sends* and delivers
        them on the next ``recvfrom``) consumes one slot of the
        readiness budget but does **not** abort the tick: the datagrams
        queued behind the error are still drained, and the error is
        counted in ``recv_errors`` instead of silently ending the
        burst.
        """
        sock = self._sock
        if sock is None:
            return
        recvfrom = sock.recvfrom
        received = self.datagram_received
        burst = 0
        for _ in range(BATCH_SIZE):
            try:
                data, addr = recvfrom(_RECV_SIZE)
            except (BlockingIOError, InterruptedError):
                break
            except OSError as exc:
                self.last_error = exc
                self.recv_errors += 1
                if self._sock is None or sock.fileno() < 0:
                    break  # closed under us: nothing left to drain
                continue
            burst += 1
            received(data, addr)
        if burst:
            self.recv_bursts += 1
            if burst > self.largest_burst:
                self.largest_burst = burst

    def datagram_received(self, data: bytes, addr) -> None:
        if self._allowed_peer is not None and (
            (addr[0], addr[1]) != self._allowed_peer
        ):
            self.datagrams_filtered += 1
            return
        self.datagrams_received += 1
        if self.on_datagram is not None:
            self.on_datagram(addr[0], addr[1], data, {})

    def io_counters(self) -> Dict[str, object]:
        """The I/O counter block of the server's ``stats()``."""
        return {
            "recv_bursts": self.recv_bursts,
            "largest_burst": self.largest_burst,
            "recv_errors": self.recv_errors,
            "send_buffer_drops": self.send_buffer_drops,
            "send_errors": self.send_errors,
            "reuse_port": self._reuse_port,
        }

    # -- UdpSocket surface ------------------------------------------------

    @property
    def local_address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        if self._sock is None:
            raise LiveTransportError("socket is not open")
        return self._sock.getsockname()[:2]

    def sendto(
        self,
        payload: bytes,
        dst_addr: str,
        dst_port: int,
        metadata: Optional[dict] = None,
    ) -> None:
        """Send *payload* to ``dst_addr:dst_port`` (*metadata* is a
        simulation-only channel and is not transmitted).

        Sends after :meth:`close` are silently dropped (and counted):
        the sans-IO stack's retransmission timers may legitimately
        outlive the socket, and raising from inside a
        ``loop.call_later`` callback would only spam the event loop's
        unhandled-error log. For the same reason a send the kernel
        refuses is counted, not raised: a full send buffer in
        ``send_buffer_drops``, any other ``OSError`` (EMSGSIZE,
        ENETUNREACH, EPERM …) in ``send_errors``, the latest kept in
        ``last_error``.
        """
        sock = self._sock
        if sock is None:
            if self._closed:
                self.datagrams_dropped_after_close += 1
                return
            raise LiveTransportError("socket is not open")
        try:
            sock.sendto(payload, (dst_addr, dst_port))
        except (BlockingIOError, InterruptedError):
            # Kernel send buffer full: UDP semantics allow the drop;
            # the stack's retransmissions recover what matters.
            self.send_buffer_drops += 1
            return
        except OSError as exc:
            self.last_error = exc
            self.send_errors += 1
            return
        self.datagrams_sent += 1

    def close(self) -> None:
        self._closed = True
        if self._sock is not None:
            self._loop.remove_reader(self._sock.fileno())
            self._sock.close()
            self._sock = None
            self._loop = None
