"""Observability: metrics, structured logs, telemetry, /metrics HTTP.

Dependency-free instrumentation shared by every serving layer:

* :mod:`repro.obs.metrics` — label-aware :class:`Counter` /
  :class:`Histogram` families in a :class:`MetricsRegistry`, plain-dict
  snapshots and their Prometheus text exposition;
* :mod:`repro.obs.log` — structured JSON logging with bound
  run/worker/request context (``repro.obs.get_logger``);
* :mod:`repro.obs.telemetry` — per-second :class:`TelemetrySampler`
  diffing registry snapshots into the NDJSON time series streamed by
  ``loadtest --stream``, rendered by ``repro watch``, and embedded in
  Reports as the ``telemetry`` block;
* :mod:`repro.obs.http` — the minimal listener thread behind
  ``serve --metrics-port``: the pool parent's ``/metrics`` and
  ``/healthz``.

Attribute access is lazy (PEP 562), matching :mod:`repro.live`.
"""

from __future__ import annotations

from importlib import import_module

#: Public name -> defining submodule (resolved on first access).
_EXPORTS = {
    "Counter": ".metrics",
    "Histogram": ".metrics",
    "MetricsRegistry": ".metrics",
    "DEFAULT_LATENCY_BUCKETS": ".metrics",
    "render_snapshot": ".metrics",
    "parse_exposition": ".metrics",
    "JsonLogger": ".log",
    "configure": ".log",
    "get_logger": ".log",
    "SNAPSHOT_SCHEMA": ".telemetry",
    "QUERIES_TOTAL": ".telemetry",
    "RESPONSES_TOTAL": ".telemetry",
    "LATENCY_SECONDS": ".telemetry",
    "TelemetrySampler": ".telemetry",
    "run_sampler": ".telemetry",
    "merge_timelines": ".telemetry",
    "timeline_from_outcomes": ".telemetry",
    "format_snapshot": ".telemetry",
    "validate_snapshot": ".telemetry",
    "ObsHttpThread": ".http",
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


def __dir__():
    return sorted(set(globals()) | set(__all__))
