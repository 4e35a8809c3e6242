"""``repro.api.run``: one RunSpec in, one Report out, any substrate.

The sim path compiles the spec to a
:class:`~repro.scenarios.ScenarioRunner` execution; the live path to a
serve+load pairing (:func:`_live_once` — the only one), a loopback
:class:`~repro.live.workers.ServePool` (:func:`serve_pool`, which
``repro serve`` builds its server with too) driven by a load side through
:class:`~repro.live.client.LiveResolver`, or the load side alone
against an externally provided endpoint; the fleet path to a
:func:`~repro.fleet.run_fleet` aggregate pass. Repeats of the sim and
fleet paths fan out over
:func:`~repro.scenarios.executors.ordered_map`. All paths emit the
same versioned :class:`~repro.api.report.Report`. :func:`sweep` is a
grid of such runs: one RunSpec per cell, one Report back per cell.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product
from typing import Callable, Dict, Optional, Sequence, Union

from repro.obs.log import get_logger
from repro.scenarios import (
    Scenario,
    ScenarioError,
    TopologySpec,
    get_topology,
    scenario_from_spec,
)
from repro.scenarios.executors import ordered_map

from .report import Report, report_from_experiment_result, report_from_loadgen
from .spec import RunSpec

_log = get_logger("repro.api.runner")


def run(
    spec: Union[RunSpec, str], sinks: Sequence[Callable] = ()
) -> Report:
    """Execute *spec* (a :class:`RunSpec` or a spec string) and return
    its :class:`~repro.api.report.Report`.

    *sinks* are per-second telemetry callables for a live run: the load
    worker in this process calls each with every snapshot row. The sim
    and fleet substrates have no wall-clock seconds to report.
    """
    if isinstance(spec, str):
        spec = RunSpec.from_spec(spec)
    log = _log.bind(
        substrate=spec.substrate,
        transport=spec.scenario.transport,
        repeats=spec.repeats,
    )
    log.info("run starting")
    if spec.substrate == "sim":
        report = _run_sim(spec)
    elif spec.substrate == "fleet":
        report = _run_fleet(spec)
    else:
        report = _run_live(spec, sinks)
    log.info(
        "run finished",
        succeeded=report.metrics.get("queries.succeeded"),
        qps=report.metrics.get("throughput.qps"),
        telemetry_rows=(
            len(report.telemetry) if report.telemetry else 0
        ),
    )
    return report


def sweep(
    base: Optional[Scenario] = None,
    *,
    transports: Sequence[str],
    topologies: Sequence[Union[str, TopologySpec]],
    losses: Sequence[float],
    cache_placements: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> Dict[str, Report]:
    """Run every cell of a (transport × topology × loss [× cache
    placement] [× scheme]) grid and return its Reports by grid key.

    Each cell is the *base* :class:`~repro.scenarios.Scenario` (the
    default one when ``None``) on one topology — a preset name or a
    :class:`~repro.scenarios.TopologySpec` — at one loss rate, with the
    cell's ``transport=…[,cache=…][,scheme=…]`` applied the way
    :func:`~repro.scenarios.scenario_from_spec` applies them: a
    placement naming the proxy turns the proxy on, and a swept scheme
    beats one pinned in the base's caching spec. The key is
    ``transport/topology/loss`` (loss as ``:g``), extended by the
    canonical placement and the scheme when those axes are swept, e.g.
    ``"coap/figure2/0.05"`` or ``"coap/figure2/0/all/eol-ttls"``.

    Every cell is built before any runs, so a duplicate key or a cell
    no :class:`~repro.scenarios.Scenario` accepts (a proxy placement on
    udp or coaps) raises :class:`~repro.scenarios.ScenarioError` first.
    ``workers`` > 1 runs the cells on that many processes; the Reports
    are identical for any worker count, since every cell seeds its own
    simulator.
    """
    base = base if base is not None else Scenario()
    specs: Dict[str, RunSpec] = {}
    for transport, topology, loss, placement, scheme in product(
        transports, topologies, losses,
        cache_placements or (None,), schemes or (None,),
    ):
        if isinstance(topology, str):
            topology = get_topology(topology)
        axes = {"transport": transport, "cache": placement, "scheme": scheme}
        cell = scenario_from_spec(
            ",".join(f"{k}={v}" for k, v in axes.items() if v is not None),
            base=replace(base, topology=replace(topology, loss=loss)),
        )
        key = f"{transport}/{topology.name}/{loss:g}"
        name = f"{transport}/{topology.name}/loss={loss:g}"
        if placement is not None:
            label = cell.caching.placement_label()
            key += f"/{label}"
            name += f"/cache={label}"
        if scheme is not None:
            key += f"/{cell.scheme.value}"
            name += f"/scheme={cell.scheme.value}"
        if key in specs:
            raise ScenarioError(f"duplicate sweep cell {key!r}")
        specs[key] = RunSpec.from_scenario(replace(cell, name=name))
    return dict(zip(specs, ordered_map(run, list(specs.values()), workers)))


def _run_sim(spec: RunSpec) -> Report:
    scenarios = [spec.to_scenario(seed) for seed in spec.repeat_seeds()]
    results = ordered_map(_run_one_scenario, scenarios, spec.workers)
    return report_from_experiment_result(
        results if spec.repeats > 1 else results[0], spec=spec.to_dict()
    )


def _run_one_scenario(scenario):
    """Module-level so worker processes can unpickle it."""
    from repro.scenarios.runner import ScenarioRunner

    return ScenarioRunner().run(scenario)


def _run_fleet(spec: RunSpec) -> Report:
    from repro.fleet import report_from_fleet

    jobs = [
        (spec.to_scenario(seed), spec.fleet) for seed in spec.repeat_seeds()
    ]
    results = ordered_map(_run_one_fleet, jobs, spec.workers)
    return report_from_fleet(
        results if spec.repeats > 1 else results[0], spec=spec.to_dict()
    )


def _run_one_fleet(job):
    """Module-level so worker processes can unpickle it."""
    from repro.fleet import run_fleet

    scenario, options = job
    return run_fleet(scenario, options)


def _run_live(spec: RunSpec, sinks: Sequence[Callable]) -> Report:
    """One serve+load pairing per repeat, pooled into one Report.

    Self-serving runs restart the server side per repetition so each
    repeat is an independent measurement (and OSCORE sender sequences
    restart cleanly, see :class:`~repro.live.client.LiveResolver`).
    """
    from repro.live.workers import merge_server_stats

    repeats, server_blocks = [], []
    load_failed = 0
    for seed in spec.repeat_seeds():
        (reports, failed), stats = _live_once(spec, seed, sinks)
        repeats.append(reports)
        load_failed += failed
        if stats is not None:
            server_blocks.append(stats)
    return report_from_loadgen(
        repeats,
        spec=spec.to_dict(),
        server_stats=(
            merge_server_stats(server_blocks) if server_blocks else None
        ),
        load_failed=load_failed,
    )


def serve_pool(spec: RunSpec, seed: int, host: str = "127.0.0.1"):
    """The server side of a live *spec*: an unstarted
    :class:`~repro.live.workers.ServePool` of ``serve_workers``
    processes bound to *host* and the spec's port, serving its name
    universe under *seed*. It forks, and therefore starts outside any
    event loop. ``repro serve`` and :func:`_live_once` both build their
    pool here.
    """
    from repro.live.workers import ServePool

    scenario = spec.to_scenario(seed)
    workload = scenario.workload
    options = spec.live
    # The zone derives from the run's seed on every serve worker: any
    # worker must answer any query identically, so the per-worker
    # decorrelation lives in the load side only.
    return ServePool(
        workers=options.serve_workers,
        transport=scenario.transport,
        host=host,
        port=options.port,
        num_names=workload.num_names,
        dataset=options.dataset,
        name_seed=options.name_seed,
        ttl=workload.ttl,
        scheme=scenario.scheme,
        seed=seed,
        secret=options.secret,
    )


def _live_once(spec: RunSpec, seed: int, sinks: Sequence[Callable]):
    """Start the server side, run the load side, collect stats, stop.

    The shape of each side follows from the spec. Server side: none
    when the spec names an external ``live-host``, else
    :func:`serve_pool`. Load side: :func:`~repro.live.workers.run_load`
    over ``load_workers`` generators, the one in this process calling
    *sinks* once a second. Returns what ``run_load`` returned and the
    drained server stats.
    """
    from repro.live.workers import run_load

    scenario = spec.to_scenario(seed)
    workload = scenario.workload
    options = spec.live
    load = dict(
        transport=scenario.transport,
        scheme=scenario.scheme,
        cache_placement=spec.client_cache_placement(),
        block_size=scenario.block_size,
        secret=options.secret,
        timeout=options.timeout,
        num_names=workload.num_names,
        dataset=options.dataset,
        name_seed=options.name_seed,
        rate=workload.query_rate,
        duration=workload.num_queries / workload.query_rate,
        mode=options.mode,
        concurrency=options.concurrency,
        seed=seed,
        workload=workload,
        snapshot_sinks=sinks,
    )
    pool = serve_pool(spec, seed) if options.host is None else None
    load["endpoint"] = (
        pool.start() if pool is not None else (options.host, options.port)
    )
    try:
        return (
            run_load(load, options.load_workers),
            pool.drain() if pool is not None else None,
        )
    finally:
        if pool is not None:
            # No-op after a drain; on any error nothing is left running.
            pool.terminate()
