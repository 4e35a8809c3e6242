"""Minimal HTTP listener for /metrics and /healthz.

Just enough HTTP/1.0 for a Prometheus scrape or a ``curl`` during a
run — GET only, ``Connection: close``, no keep-alive, no TLS, no
dependency beyond asyncio. :class:`ObsHttpThread` is the one listener:
a daemon thread with its own event loop, because the process that
serves the scrape — the :class:`~repro.live.workers.ServePool` parent —
is synchronous and has no loop of its own.

Handlers are plain callables, so the pool parent serves *merged*
worker metrics through the two routes.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Callable, Dict, Optional, Tuple

from .log import get_logger

__all__ = ["ObsHttpThread"]

_MAX_REQUEST_BYTES = 8192

#: ``health_fn`` returns (healthy, detail_dict).
HealthFn = Callable[[], Tuple[bool, Dict[str, object]]]


class ObsHttpThread:
    """Serve ``/metrics`` (text exposition) and ``/healthz`` (JSON) on
    a dedicated daemon thread.

    *metrics_fn* returns the exposition text; *health_fn* returns
    ``(healthy, details)`` — healthy maps to 200, otherwise 503 with
    the details in the JSON body either way. ``start()`` blocks until
    the listener is bound and returns the resolved port; the handler
    callables run on the thread's loop, so anything they touch must be
    guarded by the caller (the pools guard their pipes with a lock).
    """

    def __init__(
        self,
        metrics_fn: Callable[[], str],
        health_fn: HealthFn,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.metrics_fn = metrics_fn
        self.health_fn = health_fn
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._log = get_logger("repro.obs.http")

    @property
    def endpoint(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self, timeout: float = 5.0) -> int:
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-http", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("metrics listener failed to start in time")
        if self._error is not None:
            raise RuntimeError(
                f"metrics listener failed to bind: {self._error!r}"
            )
        return self.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._listen())
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            self._server.close()
            loop.run_until_complete(self._server.wait_closed())
            loop.close()

    async def _listen(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._log.info("metrics listener up", host=self.host, port=self.port)

    def stop(self, timeout: float = 5.0) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)
        self._loop = None
        self._thread = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            if len(request_line) > _MAX_REQUEST_BYTES:
                writer.close()
                return
            # Drain headers up to a sane cap; we never use them.
            read = len(request_line)
            while read < _MAX_REQUEST_BYTES:
                line = await reader.readline()
                read += len(line)
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                await self._respond(writer, 400, "text/plain",
                                    "bad request\n")
                return
            method, path = parts[0], parts[1]
            if method != "GET":
                await self._respond(writer, 405, "text/plain",
                                    "method not allowed\n")
                return
            path = path.split("?", 1)[0]
            if path == "/metrics":
                body = self.metrics_fn()
                await self._respond(
                    writer, 200, "text/plain; version=0.0.4", body
                )
            elif path == "/healthz":
                healthy, details = self.health_fn()
                payload = dict(details)
                payload.setdefault("status", "ok" if healthy else "unhealthy")
                await self._respond(
                    writer,
                    200 if healthy else 503,
                    "application/json",
                    json.dumps(payload) + "\n",
                )
            else:
                await self._respond(writer, 404, "text/plain",
                                    "not found\n")
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # scrape bugs must not kill the server
            self._log.warning("request handling failed", error=repr(exc))
            try:
                await self._respond(writer, 500, "text/plain",
                                    "internal error\n")
            except Exception:
                pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: str,
    ) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 500: "Internal Server Error",
                   503: "Service Unavailable"}
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.0 {status} {reasons.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()
