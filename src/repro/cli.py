"""Command-line interface: explore the reproduction without writing code.

Subcommands
-----------
``run``
    The unified façade: execute one :class:`repro.api.RunSpec` —
    ``"[preset][,key=value]..."`` including ``substrate=sim|live|fleet``,
    ``repeats=N``, ``workers=N`` — on any substrate and print (or
    ``--json``-emit) the versioned unified Report.
``dissect``
    Print the Figure 6 per-layer packet dissection for one transport
    (any registry profile, including the modeled QUIC), or for every
    transport with ``--sweep``.
``resolve``
    Run ``--names`` queries, one per name, as ``repro.api.run`` of a
    scenario spec, and print one line per query: the name, the client,
    and the time in ms or ``FAILED: <error>``.
``sweep``
    Run a (transport × topology × loss × cache-placement × scheme)
    grid of simulations over one base scenario spec and print a
    per-cell table; ``--json`` emits per-cell unified Reports keyed by
    string grid coordinates. A single Figure 7-style run is ``run``.
``memory``
    Print the Figure 5 / Figure 8 build-size tables.
``compress``
    Show the Section 7 CBOR compression for a given name.
``serve``
    Run the live DoC server on a real UDP socket (any live transport
    profile: udp, dtls, coap, coaps, oscore) as a pool of ``--workers``
    processes, built from the flags' RunSpec the way a self-served
    ``run`` builds it; ``--metrics-port`` and ``--stream`` observe it
    while it runs, SIGTERM and Ctrl-C drain it and print the shutdown
    report.
``loadtest``
    Drive open- or closed-loop load against a live server: the flags
    become a live RunSpec (``num_queries`` is the planned ``--rate`` ×
    ``--duration``) that ``repro.api.run`` runs against ``--host`` and
    ``--port``, and the Report reads as ``run``'s (``--json`` for
    machine-readable output). Prints a per-second progress line to
    stderr (silenced by ``--json``); ``--stream`` mirrors the
    per-second telemetry as NDJSON to stdout, a file, or a TCP peer.
``watch``
    Render a telemetry NDJSON stream (from ``--stream``) as live
    qps/p99 lines — from stdin, or over TCP with ``--listen PORT``.

Examples
--------
::

    python -m repro.cli run one-hop,transport=coap,queries=20
    python -m repro.cli run transport=coap,queries=50,substrate=live --json
    python -m repro.cli run figure7,repeats=5,workers=4 --json report.json
    python -m repro.cli serve --transport udp
    python -m repro.cli serve --transport oscore --port 5853 --duration 30
    python -m repro.cli loadtest --rate 50 --duration 2 --json
    python -m repro.cli loadtest --transport oscore --mode closed \
        --concurrency 16 --duration 5
    python -m repro.cli dissect --transport oscore
    python -m repro.cli dissect --sweep
    python -m repro.cli resolve --transport coaps --names 5
    python -m repro.cli resolve --scenario three-hop,loss=0.1
    python -m repro.cli run transport=coap,queries=50,loss=0.2,retries=1
    python -m repro.cli run figure7,transport=oscore
    python -m repro.cli run cache=client-coap+proxy,scheme=doh-like
    python -m repro.cli sweep queries=20,retries=1 \
        --transports udp,coap,oscore --topologies figure2,one-hop \
        --losses 0.05,0.25
    python -m repro.cli sweep queries=20 --transports coap \
        --cache-placements none,client-coap,all --schemes doh-like,eol-ttls
    python -m repro.cli memory
    python -m repro.cli compress --name device.example.org
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _emit_json(payload: dict, dest: str) -> None:
    """Write *payload* to stdout (``dest == "-"``) or to a file."""
    import json

    text = json.dumps(payload, indent=2, sort_keys=False)
    if dest == "-":
        print(text)
    else:
        with open(dest, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"report written to {dest}")


def _print_report(report) -> None:
    """Human summary of a unified Report."""
    metrics = report.metrics
    spec = report.spec
    print(f"substrate:        {report.substrate}")
    print(f"transport:        {spec.get('transport', '?')}")
    if report.substrate == "live":
        print(f"loop:             {metrics['live.mode']}, "
              f"{metrics['live.elapsed_s']} s elapsed")
    print(f"queries:          {metrics['queries.issued']}")
    timeouts = metrics["queries.timeouts"]
    rcode_failures = metrics["queries.rcode_failures"]
    other = metrics["queries.failed"] - timeouts - rcode_failures
    print(f"success rate:     {metrics['queries.success_rate']:.2%} "
          f"({timeouts} timeouts, {rcode_failures} rcode failures, "
          f"{other} other)")
    p50 = metrics["latency.p50_ms"]
    if p50 is not None:
        print(f"latency p50:      {p50:.2f} ms")
        print(f"latency p95:      {metrics['latency.p95_ms']:.2f} ms")
        print(f"latency p99:      {metrics['latency.p99_ms']:.2f} ms")
        print(f"latency mean/max: {metrics['latency.mean_ms']:.2f} / "
              f"{metrics['latency.max_ms']:.2f} ms")
    print(f"throughput:       {metrics['throughput.qps']} qps")
    load_workers = [
        f"#{key.split('.')[3]} {value} qps"
        for key, value in metrics.items()
        if key.startswith("live.workers.load.")
        and key.endswith(".achieved_qps")
    ]
    if load_workers:
        print(f"load workers:     {', '.join(load_workers)}")
    locations = sorted({
        key.split(".")[1]
        for key in metrics
        if key.startswith("cache.")
    })
    for location in locations:
        print(f"cache {location:12s} hit-ratio "
              f"{metrics[f'cache.{location}.hit_ratio']:.0%}  "
              f"hits {metrics[f'cache.{location}.hits']}  "
              f"validations {metrics[f'cache.{location}.validations']}")
    if report.substrate == "sim":
        print(f"frames @1hop:     {metrics['sim.link.frames_1hop']}")
        print(f"frames @2hop:     {metrics['sim.link.frames_2hop']}")


def _emit_report(report, json_dest: Optional[str]) -> int:
    """Emit a run's Report — the JSON document to *json_dest*, or the
    human summary — and return the exit code the Report implies: 0 when
    something resolved and every load worker delivered."""
    if json_dest is not None:
        _emit_json(report.to_json(), json_dest)
    else:
        _print_report(report)
    metrics = report.metrics
    return 0 if (
        metrics["queries.issued"]
        and metrics["queries.success_rate"] > 0
        and not metrics.get("live.workers.load.failed")
    ) else 1


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import RunSpec, run

    return _emit_report(run(RunSpec.from_spec(args.spec)), args.json)


def _print_dissections(dissections) -> None:
    print(f"{'message':16s} {'DNS':>5s} {'sec':>5s} {'CoAP':>5s} "
          f"{'UDP':>5s} frames")
    for d in dissections:
        print(
            f"{d.message:16s} {d.dns_bytes:5d} {d.security_bytes:5d} "
            f"{d.coap_bytes:5d} {d.udp_payload:5d} {list(d.frame_sizes)}"
            f"{'  FRAGMENTED' if d.fragmented else ''}"
        )


def _cmd_dissect(args: argparse.Namespace) -> int:
    from repro.coap.codes import Code
    from repro.experiments.packet_sizes import dissect_transport
    from repro.transports.registry import registry

    method = {"fetch": Code.FETCH, "get": Code.GET, "post": Code.POST}[args.method]
    if args.sweep:
        for profile in registry:
            print(f"--- {profile.display_name} ---")
            _print_dissections(profile.dissect(method=method))
            print()
        return 0
    _print_dissections(dissect_transport(args.transport, method=method))
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    from repro.api import RunSpec, run
    from repro.scenarios import scenario_from_spec

    overrides = {
        "names": args.names, "queries": args.names,
        "transport": args.transport, "loss": args.loss, "seed": args.seed,
    }
    scenario = scenario_from_spec(",".join([args.scenario or ""] + [
        f"{key}={value}" for key, value in overrides.items()
        if value is not None
    ]))
    for outcome in run(RunSpec.from_scenario(scenario)).raw.outcomes:
        if outcome.resolution_time is None:
            result = f"FAILED: {outcome.error}"
        else:
            result = f"{outcome.resolution_time * 1000:7.1f} ms"
        print(f"  {outcome.name:28s} {outcome.client:6s} {result}")
    return 0


#: Base-spec keys the grid sets per cell, and the axis flag to use.
_SWEEP_AXIS_KEYS = {"loss": "--losses", "transport": "--transports"}


def _cmd_sweep(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.api import sweep
    from repro.api.report import pooled_cache_stats, sweep_to_json
    from repro.scenarios import get_topology, scenario_from_spec

    if args.workers is not None and args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    for part in args.spec.split(","):
        flag = _SWEEP_AXIS_KEYS.get(part.partition("=")[0].strip())
        if flag is not None and "=" in part:
            # The grid overrides it in every cell; a silently ignored
            # key would read as if it had applied.
            print(f"error: use {flag} (not {part.strip()!r}) with sweep",
                  file=sys.stderr)
            return 2
    base = scenario_from_spec(args.spec)
    # Keep sweep cells comparable with single runs: the base's MAC
    # retry setting applies to every topology preset.
    topologies = [
        replace(get_topology(name), l2_retries=base.topology.l2_retries)
        for name in args.topologies.split(",")
    ]
    placements = (
        args.cache_placements.split(",") if args.cache_placements else None
    )
    schemes = args.schemes.split(",") if args.schemes else None
    reports = sweep(
        base,
        transports=args.transports.split(","),
        topologies=topologies,
        losses=[float(value) for value in args.losses.split(",")],
        cache_placements=placements,
        schemes=schemes,
        workers=args.workers,
    )
    if args.json is not None:
        _emit_json(sweep_to_json(reports), args.json)
        return 0
    cache_axes = placements is not None or schemes is not None
    header = (f"{'transport':10s} {'topology':14s} {'loss':>5s} "
              f"{'success':>8s} {'p50':>10s} {'p95':>10s} "
              f"{'frames@1hop':>12s}")
    if cache_axes:
        header += (f" {'cache':>28s} {'scheme':>9s} "
                   f"{'hit%':>6s} {'valid':>6s}")
    print(header)
    for report in reports.values():
        spec, metrics = report.spec, report.metrics
        p50, p95 = metrics["latency.p50_ms"], metrics["latency.p95_ms"]
        row = (
            f"{spec['transport']:10s} {spec['topology']['name']:14s} "
            f"{spec['topology']['loss']:5.2f} "
            f"{metrics['queries.success_rate']:8.2%} "
            + (f"{p50:7.1f} ms {p95:7.1f} ms " if p50 is not None
               else f"{'-':>10s} {'-':>10s} ")
            + f"{metrics['sim.link.frames_1hop']:12d}"
        )
        if cache_axes:
            # Hit ratio over every lookup the clients' caches saw
            # (client DNS + client CoAP + proxy), and the total
            # successful revalidations — the Figure 11 events.
            seen = pooled_cache_stats(
                stats for location, stats in report.raw.cache_stats.items()
                if location != "resolver"
            )
            placement = spec["caching"]["placement"] if placements else "-"
            scheme = spec["scheme"] if schemes else "-"
            row += (
                f" {placement:>28s} {scheme:>9s} "
                f"{seen.hit_ratio:6.1%} {seen.validations:6d}"
            )
        print(row)
    return 0


def _open_stream_sink(dest: str):
    """A telemetry sink writing one NDJSON line per snapshot.

    *dest* is ``-`` (stdout), ``tcp:HOST:PORT`` (a line stream to a
    listening peer, e.g. ``repro watch --listen PORT``), or a file
    path. Returns ``(sink, close)``.
    """
    import json

    if dest == "-":
        stream = sys.stdout

        def close() -> None:
            pass
    elif dest.startswith("tcp:"):
        import socket as socket_module

        try:
            _, host, port_text = dest.split(":", 2)
            port = int(port_text)
        except ValueError:
            raise SystemExit(
                f"error: bad --stream destination {dest!r} "
                "(expected tcp:HOST:PORT)"
            ) from None
        sock = socket_module.create_connection((host, port), timeout=5)
        stream = sock.makefile("w", encoding="utf-8")

        def close() -> None:
            try:
                stream.close()
            finally:
                sock.close()
    else:
        stream = open(dest, "w", encoding="utf-8")
        close = stream.close

    def sink(record: dict) -> None:
        stream.write(json.dumps(record) + "\n")
        stream.flush()

    return sink, close


def _progress_sink(record: dict) -> None:
    """One per-second progress line on stderr (sent/recv/qps/p99)."""
    from repro.obs.telemetry import format_snapshot

    print(format_snapshot(record), file=sys.stderr, flush=True)


def _live_spec(args: argparse.Namespace, workload, caching=None, **live):
    """The live RunSpec that ``serve``'s and ``loadtest``'s shared
    flags describe, with *workload* (its name count set from
    ``--names``), the client *caching* and further
    :class:`~repro.api.LiveOptions` fields *live*."""
    from dataclasses import replace

    from repro.api import ApiError, LiveOptions, RunSpec
    from repro.doc import CachingScheme
    from repro.scenarios import Scenario

    if args.workers < 1:
        raise ApiError("--workers must be >= 1")
    return RunSpec(
        scenario=Scenario(
            name=args.command,
            transport=args.transport,
            workload=replace(workload, num_names=args.names),
            scheme=CachingScheme(args.cache_scheme),
            caching=caching,
        ),
        substrate="live",
        seed=args.seed,
        live=LiveOptions(
            port=args.port,
            dataset=args.dataset,
            name_seed=args.name_seed,
            secret=args.secret.encode(),
            **live,
        ),
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: ``--workers`` server processes sharing one port under
    this supervising parent, which owns Ctrl-C and SIGTERM, the
    ``/metrics`` + ``/healthz`` listener, the ``--stream`` sampler and
    the shutdown report."""
    import signal
    import time

    from repro.api.runner import serve_pool
    from repro.scenarios import WorkloadSpec

    spec = _live_spec(args, WorkloadSpec(), serve_workers=args.workers)
    pool = serve_pool(spec, spec.effective_seed, host=args.host)
    if pool.warning:
        print(f"warning: {pool.warning}", file=sys.stderr, flush=True)
    # Fork first: the scrape thread below must not exist in a child.
    host, port = pool.start()
    # `kill` drains like Ctrl-C. Installed after the fork, so a worker
    # still dies of the SIGTERM that `pool.terminate()` sends it.
    sigterm = signal.signal(signal.SIGTERM, signal.default_int_handler)
    obs_http = stream_close = sampler = None
    try:
        try:
            print(
                f"serving DNS over {args.transport} on {host}:{port} "
                f"({args.names} names, scheme {args.cache_scheme}, "
                f"{pool.workers} workers)",
                flush=True,
            )
            if args.metrics_port is not None:
                from repro.obs.http import ObsHttpThread

                # Pipe access inside render/health is lock-guarded by
                # the pool.
                obs_http = ObsHttpThread(
                    pool.render_metrics, pool.health,
                    host=args.host, port=args.metrics_port,
                )
                obs_http.start()
                print(
                    f"metrics on {obs_http.endpoint}/metrics "
                    f"(health: {obs_http.endpoint}/healthz)",
                    flush=True,
                )
            if args.stream:
                from repro.obs.telemetry import TelemetrySampler

                def answered():
                    # A server has one outcome to report: every query
                    # it answered, counted as a success, no latencies.
                    handled = sum(
                        block.get("queries_handled", 0)
                        for block in pool.sample()
                    )
                    return (handled, handled, 0, 0), ()

                stream_sink, stream_close = _open_stream_sink(args.stream)
                sampler = TelemetrySampler(answered, sinks=[stream_sink])
                sampler.tick()  # prime
            deadline = (
                time.monotonic() + args.duration
                if args.duration > 0 else None
            )
            while deadline is None or time.monotonic() < deadline:
                step = 1.0 if sampler is not None else 3600.0
                if deadline is not None:
                    step = min(step, max(deadline - time.monotonic(), 0.0))
                time.sleep(step)
                if sampler is not None:
                    sampler.tick()
        except KeyboardInterrupt:
            if sampler is not None:
                sampler.tick()  # what was served since the last tick
        stats = pool.drain()
    finally:
        signal.signal(signal.SIGTERM, sigterm)
        if stream_close is not None:
            stream_close()
        if obs_http is not None:
            obs_http.stop()
        # No-op after a drain; on any error nothing is left running.
        pool.terminate()
    per_worker = " + ".join(
        str(worker.get("queries_handled", 0))
        for worker in stats.get("workers", [])
    )
    print(f"served {stats.get('queries_handled', 0)} queries "
          f"across {pool.workers} workers ({per_worker or 0}; "
          f"{stats.get('io', {}).get('recv_bursts', 0)} bursts, "
          f"{stats['workers_failed']} workers failed)")
    return pool.exit_code


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.api import run
    from repro.scenarios import CachingSpec, WorkloadSpec

    spec = _live_spec(
        args,
        WorkloadSpec(
            # The planned load: `rate` per second for `duration`.
            num_queries=max(1, round(args.rate * args.duration)),
            query_rate=args.rate,
            arrival=args.arrival,
            burst_on=args.burst_on,
            burst_off=args.burst_off,
            zipf_alpha=args.zipf,
        ),
        # `--client-cache all` means "every cache the live client has":
        # strip the proxy bit the placement vocabulary would imply.
        caching=replace(
            CachingSpec.from_placement(args.client_cache), proxy=False
        ),
        host=args.host,
        mode=args.mode,
        concurrency=args.concurrency,
        timeout=args.timeout,
        load_workers=args.workers,
    )
    stream = args.stream
    if stream and args.workers > 1:
        print(
            "warning: --stream applies to --workers 1 (its sink "
            "cannot cross a fork); distributed runs carry their "
            "merged telemetry in the final report only",
            file=sys.stderr, flush=True,
        )
        stream = None
    # Per-second telemetry sinks: a progress line on stderr by default
    # (silenced by --json, which owns the machine-readable contract),
    # plus the optional --stream NDJSON destination.
    sinks = []
    stream_close = None
    if args.json is None:
        sinks.append(_progress_sink)
    if stream:
        stream_sink, stream_close = _open_stream_sink(stream)
        sinks.append(stream_sink)
    try:
        report = run(spec, sinks=sinks)
    finally:
        if stream_close is not None:
            stream_close()
    failed = report.metrics.get("live.workers.load.failed")
    if failed:
        total = failed + report.metrics["live.workers.load.count"]
        print(f"warning: {failed} of {total} load workers failed",
              file=sys.stderr, flush=True)
    return _emit_report(report, args.json)


def _cmd_watch(args: argparse.Namespace) -> int:
    """``repro watch``: render a live telemetry NDJSON stream.

    Reads per-second snapshot lines (the ``--stream`` vocabulary)
    from stdin by default, or accepts one TCP line-stream connection
    with ``--listen PORT`` — the peer for
    ``loadtest --stream tcp:HOST:PORT``. Malformed or non-snapshot
    lines are skipped with a note on stderr, so the stream can be
    piped through without pre-filtering.
    """
    import json

    from repro.obs.telemetry import format_snapshot, validate_snapshot

    rendered = 0
    skipped = 0

    def render(line: str) -> None:
        nonlocal rendered, skipped
        line = line.strip()
        if not line:
            return
        try:
            record = json.loads(line)
            validate_snapshot(record)
        except ValueError:
            skipped += 1
            print("watch: skipping non-snapshot line", file=sys.stderr)
            return
        rendered += 1
        print(format_snapshot(record), flush=True)

    try:
        if args.listen is not None:
            import socket

            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((args.host, args.listen))
            listener.listen(1)
            print(
                f"watch: listening on {args.host}:"
                f"{listener.getsockname()[1]}",
                file=sys.stderr, flush=True,
            )
            conn, peer = listener.accept()
            print(f"watch: stream from {peer[0]}:{peer[1]}",
                  file=sys.stderr, flush=True)
            with conn, conn.makefile("r", encoding="utf-8") as stream:
                for line in stream:
                    render(line)
            listener.close()
        else:
            for line in sys.stdin:
                render(line)
    except KeyboardInterrupt:
        pass
    print(f"watch: {rendered} snapshots rendered, {skipped} skipped",
          file=sys.stderr)
    return 0 if rendered or not skipped else 1


def _cmd_memory(args: argparse.Namespace) -> int:
    from repro.memmodel import fig5_builds, fig8_builds

    print("Figure 5 (with CoAP example app):")
    for name, build in fig5_builds(with_get=True).items():
        print(f"  {name:10s} ROM {build.rom_kbytes:5.1f} kB   "
              f"RAM {build.ram_kbytes:4.1f} kB")
    print("Figure 8 (UDP/sock omitted):")
    for name, build in fig8_builds().items():
        print(f"  {name:10s} ROM {build.rom_kbytes:5.1f} kB")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    from repro.dns import (
        AAAAData,
        DNSClass,
        Flags,
        Message,
        Question,
        RecordType,
        ResourceRecord,
        make_query,
    )
    from repro.doc.cbor_format import encode_query, encode_response

    question = Question(args.name, RecordType.AAAA)
    wire_query = make_query(args.name, RecordType.AAAA, txid=0).encode()
    cbor_query = encode_query(question)
    response = Message(
        flags=Flags(qr=True),
        questions=(question,),
        answers=(
            ResourceRecord(args.name, RecordType.AAAA, DNSClass.IN, 300,
                           AAAAData("2001:db8::1")),
        ),
    )
    wire_response = response.encode()
    cbor_response = encode_response(response)
    print(f"name: {args.name} ({len(args.name)} chars)")
    print(f"query:    wire {len(wire_query):3d} B -> CBOR {len(cbor_query):3d} B "
          f"(-{100 * (1 - len(cbor_query) / len(wire_query)):.0f}%)")
    print(f"response: wire {len(wire_response):3d} B -> CBOR {len(cbor_response):3d} B "
          f"(-{100 * (1 - len(cbor_response) / len(wire_response)):.0f}%)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.doc import CachingScheme
    from repro.transports import transport_names

    parser = argparse.ArgumentParser(
        prog="repro", description="DNS over CoAP reproduction toolkit"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run",
        help="run a unified RunSpec on any substrate (repro.api)",
    )
    run.add_argument(
        "spec", metavar="SPEC",
        help="run spec: scenario keys plus substrate=sim|live|fleet, "
             "repeats=N, workers=N, live-host/live-port/mode/"
             "concurrency/timeout, churn/duty_cycle/flash_crowd, e.g. "
             "'one-hop,transport=coap,clients=1000000,substrate=fleet'",
    )
    run.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="emit the unified Report JSON (to stdout, or to PATH)",
    )
    run.set_defaults(func=_cmd_run)

    dissect = subparsers.add_parser("dissect", help="Figure 6 packet dissection")
    dissect.add_argument(
        "--transport", default="coap", choices=transport_names(),
    )
    dissect.add_argument(
        "--method", default="fetch", choices=["fetch", "get", "post"]
    )
    dissect.add_argument(
        "--sweep", action="store_true",
        help="dissect every registered transport",
    )
    dissect.set_defaults(func=_cmd_dissect)

    resolve = subparsers.add_parser("resolve", help="demo DoC resolution")
    resolve.add_argument(
        "--transport", default=None,
        choices=transport_names(simulatable_only=True),
    )
    resolve.add_argument(
        "--scenario", default=None, metavar="SPEC",
        help="scenario preset/spec, e.g. three-hop,loss=0.1",
    )
    resolve.add_argument("--names", type=int, default=4)
    resolve.add_argument("--loss", type=float, default=None)
    resolve.add_argument("--seed", type=int, default=None)
    resolve.set_defaults(func=_cmd_resolve)

    sweep = subparsers.add_parser(
        "sweep",
        help="transport × topology × loss × cache grid of simulations",
    )
    sweep.add_argument(
        "spec", metavar="SPEC",
        help="base scenario preset/spec every cell derives from, e.g. "
             "'queries=20,retries=1' (transport and loss are grid axes)",
    )
    sweep.add_argument(
        "--transports", default="udp,coap,oscore", metavar="LIST",
        help="comma-separated transports (default udp,coap,oscore)",
    )
    sweep.add_argument(
        "--topologies", default="figure2,one-hop", metavar="LIST",
        help="comma-separated topology presets (default figure2,one-hop)",
    )
    sweep.add_argument(
        "--losses", default="0.05,0.25", metavar="LIST",
        help="comma-separated loss rates (default 0.05,0.25)",
    )
    sweep.add_argument(
        "--cache-placements", default=None, metavar="LIST",
        help="comma-separated cache placements to add as a grid axis: "
             "+-joined locations among client-dns, client-coap, proxy "
             "(or all/none)",
    )
    sweep.add_argument(
        "--schemes", default=None, metavar="LIST",
        help="comma-separated TTL handling schemes (doh-like, eol-ttls) "
             "to add as a grid axis",
    )
    sweep.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run grid cells on N worker processes "
             "(default in-process; results are identical)",
    )
    sweep.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="emit per-cell unified Report JSON keyed by grid "
             "coordinates instead of the table (to stdout, or to PATH)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    from repro.live.wiring import DEFAULT_LIVE_PORT

    def add_live_common(sub) -> None:
        # One shared default so a bare `serve` and a bare `loadtest`
        # always speak the same protocol.
        sub.add_argument(
            "--transport", default="udp",
            choices=transport_names(simulatable_only=True),
        )
        sub.add_argument("--host", default="127.0.0.1")
        sub.add_argument("--port", type=int, default=DEFAULT_LIVE_PORT)
        sub.add_argument(
            "--names", type=int, default=50,
            help="size of the name universe (server zone = loadgen names)",
        )
        sub.add_argument(
            "--dataset", default=None,
            help="draw names from a Section 3 dataset profile "
                 "(yourthings, iotfinder, moniotr, ixp)",
        )
        sub.add_argument(
            "--name-seed", type=int, default=7,
            help="seed of the shared name universe (must match between "
                 "serve and loadtest)",
        )
        sub.add_argument(
            "--cache-scheme", default="eol-ttls", type=str.lower,
            choices=[scheme.value for scheme in CachingScheme],
            help="TTL handling scheme",
        )
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument(
            "--secret", default="repro-live-master-secret",
            help="shared OSCORE master secret (oscore transport)",
        )
        sub.add_argument(
            "--workers", type=int, default=1,
            help="worker processes: serve shards one port via "
                 "SO_REUSEPORT, loadtest forks distributed generators "
                 "(default 1: one serve worker under the supervising "
                 "parent, loadtest in this process)",
        )

    serve = subparsers.add_parser(
        "serve", help="live DoC server on a real UDP socket"
    )
    add_live_common(serve)
    serve.add_argument(
        "--duration", type=float, default=0.0,
        help="stop after this many seconds (default: run until Ctrl-C)",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve /metrics (Prometheus text) and /healthz on this "
             "TCP port (0 = ephemeral): per-worker series plus "
             "repro_pool_* totals",
    )
    serve.add_argument(
        "--stream", default=None, metavar="DEST",
        help="emit per-second telemetry snapshots as NDJSON to DEST: "
             "'-' for stdout, tcp:HOST:PORT, or a file path",
    )
    serve.set_defaults(func=_cmd_serve)

    loadtest = subparsers.add_parser(
        "loadtest", help="drive load against a live server"
    )
    add_live_common(loadtest)
    loadtest.add_argument(
        "--rate", type=float, default=50.0,
        help="open-loop offered rate in queries/s",
    )
    loadtest.add_argument("--duration", type=float, default=2.0)
    loadtest.add_argument(
        "--mode", default="open", choices=["open", "closed"],
    )
    loadtest.add_argument(
        "--concurrency", type=int, default=8,
        help="closed-loop worker count",
    )
    loadtest.add_argument(
        "--timeout", type=float, default=10.0,
        help="per-query deadline in seconds",
    )
    loadtest.add_argument(
        "--arrival", default="poisson", choices=["poisson", "bursty"],
        help="open-loop arrival process",
    )
    loadtest.add_argument("--burst-on", type=float, default=1.0)
    loadtest.add_argument("--burst-off", type=float, default=4.0)
    loadtest.add_argument(
        "--zipf", type=float, default=None, metavar="ALPHA",
        help="Zipf(α) name popularity (default: round-robin)",
    )
    loadtest.add_argument(
        "--client-cache", default="none", metavar="SPEC",
        help="client cache placement: +-joined among client-dns, "
             "client-coap (or all/none)",
    )
    loadtest.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="emit the JSON report (to stdout, or to PATH)",
    )
    loadtest.add_argument(
        "--stream", default=None, metavar="DEST",
        help="emit per-second telemetry snapshots as NDJSON to DEST: "
             "'-' for stdout, tcp:HOST:PORT (e.g. a `repro watch "
             "--listen` peer), or a file path",
    )
    loadtest.set_defaults(func=_cmd_loadtest)

    watch = subparsers.add_parser(
        "watch",
        help="render a live telemetry stream (qps/p99 per second)",
    )
    watch.add_argument(
        "--listen", type=int, default=None, metavar="PORT",
        help="accept one TCP line-stream connection on PORT (the "
             "`--stream tcp:HOST:PORT` peer) instead of reading stdin",
    )
    watch.add_argument("--host", default="127.0.0.1")
    watch.set_defaults(func=_cmd_watch)

    memory = subparsers.add_parser("memory", help="Figure 5/8 build sizes")
    memory.set_defaults(func=_cmd_memory)

    compress = subparsers.add_parser("compress", help="Section 7 CBOR sizes")
    compress.add_argument("--name", default="name0000.example-iot.org")
    compress.set_defaults(func=_cmd_compress)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.live.wiring import LiveWiringError
    from repro.scenarios import ScenarioError
    from repro.transports.registry import (
        TransportCapabilityError,
        UnknownTransportError,
    )

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ScenarioError, TransportCapabilityError, UnknownTransportError,
        LiveWiringError,
    ) as exc:
        # Misconfiguration (unknown names, bad spec keys) reads as a
        # CLI error; internal errors keep their tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
