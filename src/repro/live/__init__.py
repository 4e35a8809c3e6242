"""The live serving runtime: the reproduction's stack on real sockets.

Everything under :mod:`repro.live` promotes the sans-IO protocol stack
(CoAP endpoints, the DoC server/client, DTLS/OSCORE security) from the
discrete-event :class:`~repro.sim.core.Simulator` onto a wall-clock
asyncio runtime:

* :class:`~repro.live.clock.AsyncioClock` — the
  :class:`~repro.sim.clock.Clock` protocol on the event loop;
* :class:`~repro.live.transport.LiveUdpTransport` — real UDP sockets
  with the simulated-socket surface;
* :class:`~repro.live.server.DocLiveServer` /
  :class:`~repro.live.client.LiveResolver` — serving and resolving
  over any live transport profile (udp/dtls/coap/coaps/oscore);
* :func:`~repro.live.loadgen.generate_load` — open- and closed-loop
  load generation that keeps every success's latency;
* :class:`~repro.live.workers.ServePool` /
  :func:`~repro.live.workers.run_load` — SO_REUSEPORT sharding across
  server worker processes, and load generation from one process or
  many, pooled into one Report by
  :func:`repro.api.report.report_from_loadgen`.

The CLI front-ends are ``python -m repro.cli serve`` and
``python -m repro.cli loadtest``.

Attribute access is lazy (PEP 562): importing :mod:`repro.live` is
nearly free, and each symbol pulls in only its own module — the CLI
builds its parser from the wiring constants without paying for the
server/client/loadgen stack.
"""

from __future__ import annotations

from importlib import import_module

#: Public name -> defining submodule (resolved on first access).
_EXPORTS = {
    "AsyncioClock": ".clock",
    "LiveResolver": ".client",
    "LiveResult": ".client",
    "REPORT_FIELDS": ".loadgen",
    "REPORT_VERSION": ".loadgen",
    "LoadGenError": ".loadgen",
    "generate_load": ".loadgen",
    "DocLiveServer": ".server",
    "LiveTransportError": ".transport",
    "LiveUdpTransport": ".transport",
    "LoadPool": ".workers",
    "ServePool": ".workers",
    "WorkerPool": ".workers",
    "WorkerPoolError": ".workers",
    "derive_worker_seed": ".workers",
    "reuseport_supported": ".workers",
    "run_load": ".workers",
    "DEFAULT_LIVE_PORT": ".wiring",
    "LiveWiringError": ".wiring",
    "build_names": ".wiring",
    "build_zone": ".wiring",
    "derive_oscore_pair": ".wiring",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module_name, __name__), name)
    globals()[name] = value  # cache: __getattr__ runs once per name
    return value
