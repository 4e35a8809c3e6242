"""Observability: exposition format, structured logs, telemetry rows.

Dependency-free reporting shared by every serving layer:

* :mod:`repro.obs.metrics` — the Prometheus text exposition of a
  plain-dict snapshot (:func:`render_snapshot`) and its parser;
* :mod:`repro.obs.log` — structured JSON logging with bound
  run/worker/request context (``repro.obs.get_logger``);
* :mod:`repro.obs.telemetry` — the per-second row every substrate
  reports (:func:`telemetry_row`: counts and exact percentiles over
  the interval's samples), the :class:`TelemetrySampler` that polls a
  running source into the NDJSON time series streamed by ``--stream``,
  and :func:`timeline_from_outcomes` for a finished run — embedded in
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
    "render_snapshot": ".metrics",
    "parse_exposition": ".metrics",
    "JsonLogger": ".log",
    "configure": ".log",
    "get_logger": ".log",
    "TelemetrySampler": ".telemetry",
    "telemetry_row": ".telemetry",
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
