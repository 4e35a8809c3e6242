"""One API, three substrates: ``RunSpec`` in, versioned ``Report`` out.

The façade over everything the toolkit can execute:

* :class:`~repro.api.spec.RunSpec` — a declarative run description
  (scenario × workload × caching × ``substrate``) plus execution knobs
  (seed, repeats, workers, live-loop or fleet options);
* :func:`~repro.api.runner.run` — compiles the spec to a
  :class:`~repro.scenarios.ScenarioRunner` execution (``substrate="sim"``),
  a serve+loadtest pairing (``substrate="live"``), or a
  :func:`~repro.fleet.run_fleet` aggregate pass (``substrate="fleet"``)
  and returns
* :class:`~repro.api.report.Report` — one versioned result document
  with stable dotted metric names, identical non-namespaced key sets
  on every substrate, and ``to_json()``/``from_json()`` round-tripping;
  ``from_json`` is the one reader, and checks what it reads.
* :func:`~repro.api.runner.sweep` — a grid of such runs: one RunSpec
  per (transport × topology × loss [× placement] [× scheme]) cell, one
  Report back per cell, keyed ``"coap/figure2/0.05"``.

Quick use::

    from repro.api import RunSpec, run

    report = run(RunSpec.from_spec("one-hop,transport=coap,queries=20"))
    print(report.metrics["latency.p95_ms"])

    live = run("transport=coap,queries=20,substrate=live")
    print(report.common_metrics().keys() == live.common_metrics().keys())

Attribute access is lazy (PEP 562): importing :mod:`repro.api` for the
shared :data:`~repro.api.report.REPORT_VERSION` stamp does not pull in
the scenario engine or the live runtime.
"""

from __future__ import annotations

from importlib import import_module

#: Public name -> defining submodule (resolved on first access).
_EXPORTS = {
    "REPORT_METRICS": ".report",
    "REPORT_VERSION": ".report",
    "SUBSTRATES": ".report",
    "Report": ".report",
    "ReportError": ".report",
    "latency_metrics": ".report",
    "provenance": ".report",
    "report_from_experiment_result": ".report",
    "report_from_loadgen": ".report",
    "sweep_from_json": ".report",
    "sweep_to_json": ".report",
    "ApiError": ".spec",
    "FleetOptions": ".spec",
    "LiveOptions": ".spec",
    "RunSpec": ".spec",
    "run": ".runner",
    "sweep": ".runner",
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
