"""The six benchmark workloads: their inputs, one leg of each, the checks.

A workload is a series of *legs* of exactly the same seeded work. Work
is fixed by count, so the program's exact counters repeat from leg to
leg and run to run (asserted); how many legs fit is set by ``--seconds``.
A leg is timed in *slices* of 30-170 ms of like work, and every
end-to-end timing is the first decile over the slices of a run
(``metrics.quiet``): the shared host disturbs single slices, not all.

Importing this module imports nothing from ``repro`` — ``bench/run.py``
pins the crypto backend in the environment first.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import ipaddress
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Seed of the default command, and a second seed whose exact outputs
#: are banked too (``expected.json``) but that is not used while tuning.
DEFAULT_SEED = 20230
HELD_OUT_SEED = 4711

#: Fewest legs of a run, whatever ``--seconds`` says.
MIN_LEGS = 3

#: Queries a live stub resolver keeps in flight (closed loop: the next
#: query of a slot is sent when its previous one has been answered).
IN_FLIGHT = 2

#: Backstop deadline of one live query; the CoAP retransmission schedule
#: recovers a lost datagram long before it.
QUERY_TIMEOUT_S = 5.0

#: At most this many failure descriptions are kept per leg.
MAX_ERRORS = 10

#: Capacities of the live server's two caches, pinned here so that the
#: predicted counters do not depend on the program's defaults.
FASTPATH_CAPACITY = 512
RESOLVER_CACHE_CAPACITY = 256


@dataclass(frozen=True)
class Workload:
    """One set of inputs. Leg and slice sizes are the seed-speed sizing
    (on the 2-core host this was written on a live leg lasts ~1 s and a
    slice of it 30-40 ms, a sim cell 55-170 ms, a fleet leg 0.9 s)."""

    name: str
    kind: str  # "live", "sim" or "fleet"
    why: str
    #: live: transport profile and size of the name universe
    transport: str = ""
    names: int = 0
    #: live: queries per leg; sim: queries per cell; fleet: clients
    size: int = 0
    #: live: queries per timed slice (a sim slice is one cell, a fleet
    #: slice the whole leg: ``repro.api.run`` cannot be timed in parts
    #: from outside)
    slice_ops: int = 0
    #: smallest size ``--scale`` may shrink to
    min_size: int = 1
    #: sim: the cells of one leg; fleet: the one spec (a template)
    cells: Tuple[str, ...] = ()


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="live_coap_hot",
            kind="live",
            why="Smallest messages, every query a server fast-path hit: "
                "per-datagram cost (socket, CoAP codec, endpoint, event "
                "loop) does nearly all the work.",
            transport="coap", names=16, size=5000, min_size=32, slice_ops=200,
        ),
        Workload(
            name="live_coap_wide",
            kind="live",
            why="4096 names cycled past a 512-entry fast path and a "
                "256-entry resolver cache: every query misses, stores "
                "and evicts, and pays the full DNS codec and resolver.",
            transport="coap", names=4096, size=4608, min_size=32,
            slice_ops=128,
        ),
        Workload(
            name="live_oscore_hot",
            kind="live",
            why="The paper's headline transport with pure-Python AES-CCM:"
                " crypto, OSCORE and CBOR dominate, the datagram path of "
                "live_coap_hot is diluted to about a fifth.",
            transport="oscore", names=16, size=800, min_size=32, slice_ops=32,
        ),
        Workload(
            name="sim_lossy_plain",
            kind="sim",
            why="Exact simulator without crypto, under loss: event heap,"
                " timer schedule and cancel, 6LoWPAN, CoAP "
                "retransmission, proxy and client caches do the work.",
            size=200, min_size=5,
            cells=(
                "figure2,transport=udp,loss=0.25",
                "figure2,transport=coap,loss=0.05",
                "figure2,transport=coap,loss=0.25",
                "one-hop,transport=coap,loss=0.25,clients=4",
                "figure2,transport=coap,loss=0.05,cache=all,zipf=1.0",
            ),
        ),
        Workload(
            name="sim_secure",
            kind="sim",
            why="DTLS handshake and records, OSCORE and cacheable OSCORE"
                " at the proxy, larger frames through 6LoWPAN "
                "fragmentation; the only workload that runs dtls.",
            size=100, min_size=5,
            # No coaps+proxy-cache cell: transport=coaps,cache=all times
            # out every query in the simulator today. No cell above loss
            # 0.05: under loss 0.25 one OSCORE query in ~10 000 is answered
            # 4.01 for a replayed Partial IV (8 seeds in 1 000 lost one of
            # 200 queries), and no operation of a workload may fail on
            # any seed (README, "Found while building").
            cells=(
                "figure2,transport=dtls,loss=0.05",
                "figure2,transport=coaps,loss=0.05",
                "figure2,transport=oscore,loss=0.05",
                "figure2,transport=oscore,loss=0.05,cache=all,zipf=1.0",
            ),
        ),
        Workload(
            name="fleet_1m",
            kind="fleet",
            why="The aggregate engine at a million clients: bulk arrival"
                " draws, per-client cache model, engine walk, report; "
                "nothing of the wire stack runs in the timed part.",
            size=1_000_000, min_size=1000,
            cells=(
                "one-hop,transport=coap,substrate=fleet,clients={size},"
                "queries={size},rate={rate},names=64,"
                "cache=client-dns+client-coap",
            ),
        ),
    )
}


@dataclass
class Leg:
    """What one leg measured and what the program reported about it."""

    ops: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: un-timed set-up this leg paid before its first timed operation
    setup_s: float = 0.0
    #: durations of the user-visible calls (``LiveResolver.resolve`` or
    #: ``repro.api.run`` of one cell) that succeeded
    call_s: List[float] = field(default_factory=list)
    #: (kind, ops, wall s, CPU s, duration of one call in s) per timed
    #: slice; slices of one kind do like work (live and fleet have one
    #: kind, sim one per cell) and only those are compared
    slices: List[Tuple[int, int, float, float, float]] = field(
        default_factory=list
    )
    wire_bytes_per_op: float = 0.0
    #: exact outputs; equal on every leg, and to ``expected.json``
    counters: Dict[str, object] = field(default_factory=dict)
    #: the program's own counters that feed per-layer metrics
    layer: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)


def scaled_size(workload: Workload, scale: float) -> int:
    return max(workload.min_size, round(workload.size * scale))


def expected_key(seed: int, scale: float) -> str:
    return f"{seed}@{scale:g}"


def run_leg(
    workload: Workload,
    seed: int,
    scale: float,
    state: dict,
    setup_only: bool = False,
) -> Leg:
    """Set up and run one leg. *state* carries what a workload keeps
    between the legs of one process; *setup_only* stops before the
    first timed operation (what the set-up probes run).

    The cyclic collector runs between legs and is paused inside them
    (``timeit``'s convention). Full collections are 40 % of a fleet leg
    and 2–5 % of the others, and their cost follows the neighbours'
    memory traffic on a shared host: with a memory-bound process on the
    other core a fleet leg slowed by 10–38 % with the collector on and
    by 0.5–12 % with it paused (README, "Steadiness").
    """
    gc.collect()
    gc.disable()
    try:
        if workload.kind == "live":
            return asyncio.run(
                _live_leg(workload, seed, scale, state, setup_only)
            )
        if workload.kind == "sim":
            return _sim_leg(workload, seed, scale, state, setup_only)
        return _fleet_leg(workload, seed, scale, state, setup_only)
    finally:
        gc.enable()


# -- live -------------------------------------------------------------------


class SentBytes:
    """Counts the UDP payload bytes every live socket sends.

    On loopback without loss, what the server sends is what the client
    receives, so the total is the bytes sent plus received at the client
    socket. Installed for all live legs, traced or not: one extra call
    per datagram, the same on every commit.
    """

    def __init__(self) -> None:
        self.total = 0

    def install(self) -> None:
        from repro.live.transport import LiveUdpTransport

        sendto = LiveUdpTransport.sendto

        def counting_sendto(transport, payload, *args, **kwargs):
            self.total += len(payload)
            return sendto(transport, payload, *args, **kwargs)

        LiveUdpTransport.sendto = counting_sendto


def zone_address(index: int) -> str:
    """The AAAA record the live zone holds for name *index* (the layout
    of ``repro.scenarios.runner.build_workload_zone``), as the stack
    prints it."""
    return str(ipaddress.ip_address(f"2001:db8::{index:x}:1"))


def check_answer(leg: Leg, name: str, result, expected: List[str]) -> None:
    """Count a live answer that is not NOERROR with exactly the zone's
    addresses as a failed operation."""
    if result.rcode != 0:
        leg.failed += 1
        leg.note(f"{name}: rcode {result.rcode}")
    elif result.addresses != expected:
        leg.failed += 1
        leg.note(f"{name}: answered {result.addresses}, zone has {expected}")


def predicted_live_counters(workload: Workload, queries: int) -> Dict[str, int]:
    """What the server must have counted after *queries* exchanges (the
    timed ones plus the warm-up). A name universe that fits both server
    caches misses once per name and then hits the fast path; one cycled
    past both (LRU) never hits either."""
    if workload.names <= RESOLVER_CACHE_CAPACITY:
        misses = min(queries, workload.names)
    elif workload.names > FASTPATH_CAPACITY:
        misses = queries
    else:
        raise ValueError("name universe must fit both caches or neither")
    return {
        "server.queries_handled": queries,
        "server.fastpath_hits": queries - misses,
        "server.fastpath_misses": misses,
        "server.resolver_cache_hits": 0,
        "server.resolver_cache_misses": misses,
        "server.datagrams_received": queries,
        "server.datagrams_sent": queries,
    }


async def _live_leg(
    workload: Workload, seed: int, scale: float, state: dict, setup_only: bool
) -> Leg:
    from repro.live.client import LiveResolver
    from repro.live.server import DocLiveServer

    leg = Leg(ops=scaled_size(workload, scale))
    sent: SentBytes = state["sent_bytes"]
    clock = time.perf_counter
    setup_start = clock()
    server = DocLiveServer(
        transport=workload.transport, port=0,
        num_names=workload.names, seed=seed,
        cache_capacity=RESOLVER_CACHE_CAPACITY,
        fastpath_capacity=FASTPATH_CAPACITY,
    )
    async with server:
        resolver = LiveResolver(
            server.endpoint, transport=workload.transport,
            seed=seed + 1, timeout=QUERY_TIMEOUT_S,
        )
        async with resolver:
            order = list(range(workload.names))
            random.Random(seed).shuffle(order)
            names = [server.names[index] for index in order]
            expected = [[zone_address(index)] for index in order]

            slice_ops = min(workload.slice_ops, leg.ops)
            cpu_clock = time.process_time
            #: (wall, CPU, calls timed so far) at every slice boundary
            marks: List[Tuple[float, float, int]] = []
            asked = 0

            async def ask(position: int) -> None:
                nonlocal asked
                name = names[position]
                started = clock()
                try:
                    result = await resolver.resolve(name)
                except Exception as error:  # a failed query is an outcome
                    leg.failed += 1
                    leg.note(f"{name}: {type(error).__name__}: {error}")
                else:
                    leg.call_s.append(clock() - started)
                    check_answer(leg, name, result, expected[position])
                asked += 1
                if asked % slice_ops == 0:
                    marks.append((clock(), cpu_clock(), len(leg.call_s)))

            # One exchange before the clock starts finishes the stack's
            # lazy imports and first-use set-up. It asks for the name the
            # timed sequence reaches last, so on the wide workload it is
            # long evicted by then.
            await ask(len(names) - 1)
            leg.setup_s = clock() - setup_start
            if setup_only:
                return leg
            leg.call_s.clear()
            marks.clear()
            asked = 0

            positions = iter(range(leg.ops))

            async def stub_resolver() -> None:
                for position in positions:
                    await ask(position % len(names))

            bytes_before = sent.total
            cpu_start = cpu_clock()
            wall_start = clock()
            marks.append((wall_start, cpu_start, 0))
            await asyncio.gather(*(stub_resolver() for _ in range(IN_FLIGHT)))
            leg.wall_s = clock() - wall_start
            leg.cpu_s = cpu_clock() - cpu_start
            wire_bytes = sent.total - bytes_before
            for before, after in zip(marks, marks[1:]):
                calls = leg.call_s[before[2]:after[2]]
                if calls:
                    leg.slices.append((
                        0, slice_ops, after[0] - before[0],
                        after[1] - before[1], statistics.median(calls),
                    ))

            stats = server.stats()
            client = resolver.stats()
    cache = stats["resolver_cache"]
    io = stats["io"]
    leg.wire_bytes_per_op = wire_bytes / leg.ops
    leg.counters = {
        "server.queries_handled": stats["queries_handled"],
        "server.fastpath_hits": stats["fastpath_hits"],
        "server.fastpath_misses": stats["fastpath_misses"],
        "server.resolver_cache_hits": cache["hits"],
        "server.resolver_cache_misses": cache["misses"],
        "server.datagrams_received": stats["datagrams_received"],
        "server.datagrams_sent": stats["datagrams_sent"],
        "wire_bytes": wire_bytes,
    }
    predicted = predicted_live_counters(workload, leg.ops + 1)
    for key, value in predicted.items():
        if leg.counters[key] != value:
            leg.note(f"{key} = {leg.counters[key]}, predicted {value}")
    if client["resolutions_completed"] != leg.ops + 1 - leg.failed:
        leg.note(
            f"client completed {client['resolutions_completed']} of "
            f"{leg.ops + 1} resolutions"
        )
    lookups = stats["fastpath_hits"] + stats["fastpath_misses"]
    leg.layer = {
        "datagrams": stats["datagrams_received"] + stats["datagrams_sent"],
        "recv_bursts": io["recv_bursts"],
        "datagrams_received": stats["datagrams_received"],
        "recv_errors": io["recv_errors"],
        "send_buffer_drops": io["send_buffer_drops"],
        "fastpath_hit_ratio": stats["fastpath_hits"] / lookups,
        "resolver_cache_hit_ratio": cache["hit_ratio"],
    }
    return leg


# -- sim --------------------------------------------------------------------


def metrics_digest(metrics: Dict[str, object]) -> str:
    """sha256 over the canonical JSON of a ``Report.metrics`` mapping."""
    text = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def link_total(metrics: Dict[str, object], what: str) -> float:
    """Sum of a Report's ``sim.link.<what>_*`` metrics over all links."""
    prefix = f"sim.link.{what}_"
    return sum(
        value for key, value in metrics.items() if key.startswith(prefix)
    )


def check_report(leg: Leg, label: str, report, requested: int) -> None:
    """A cell must issue every query it was asked for (a ``duration``
    shorter than queries ÷ rate silently truncates) and lose none."""
    metrics = report.metrics
    issued = metrics["queries.issued"]
    if issued != requested:
        leg.note(f"{label}: issued {issued} of {requested} queries")
    leg.failed += max(0, requested - metrics["queries.succeeded"])


def _sim_leg(
    workload: Workload, seed: int, scale: float, state: dict, setup_only: bool
) -> Leg:
    from repro.api import RunSpec, run

    queries = scaled_size(workload, scale)
    leg = Leg(ops=queries * len(workload.cells))
    clock = time.perf_counter
    setup_start = clock()
    # Queries arrive at the default 5/s; the cutoff leaves the last one
    # a minute to finish.
    duration = queries / 5.0 * 2 + 60
    specs = [
        RunSpec.from_spec(
            f"{cell},queries={queries},duration={duration},seed={seed}"
        )
        for cell in workload.cells
    ]
    if not state.get("warm"):
        # Lazy imports, key schedules and codec memos fill here.
        for cell in workload.cells:
            run(RunSpec.from_spec(f"{cell},queries=5,seed={seed}"))
        state["warm"] = True
    leg.setup_s = clock() - setup_start
    if setup_only:
        return leg

    digests = []
    wire_bytes = frames = 0
    hit_ratios = []
    cpu_clock = time.process_time
    cpu_start = cpu_clock()
    wall_start = clock()
    for kind, (cell, spec) in enumerate(zip(workload.cells, specs)):
        cell_cpu_start = cpu_clock()
        started = clock()
        report = run(spec)
        call_s = clock() - started
        leg.call_s.append(call_s)
        leg.slices.append(
            (kind, queries, call_s, cpu_clock() - cell_cpu_start, call_s)
        )
        metrics = report.metrics
        check_report(leg, cell, report, queries)
        digests.append(metrics_digest(metrics))
        wire_bytes += link_total(metrics, "bytes")
        frames += link_total(metrics, "frames")
        hit_ratios.append(metrics.get("sim.cache.resolver.hit_ratio", 0.0))
    leg.wall_s = clock() - wall_start
    leg.cpu_s = cpu_clock() - cpu_start
    leg.wire_bytes_per_op = wire_bytes / leg.ops
    leg.counters = {"digests": digests, "wire_bytes": wire_bytes}
    leg.layer = {
        "frames": frames,
        "resolver_cache_hit_ratio": statistics.fmean(hit_ratios),
        "cells": len(workload.cells),
    }
    return leg


# -- fleet ------------------------------------------------------------------


def _fleet_leg(
    workload: Workload, seed: int, scale: float, state: dict, setup_only: bool
) -> Leg:
    from repro.api import RunSpec, run
    from repro.fleet import calibrate, probe_scenario

    size = scaled_size(workload, scale)
    leg = Leg(ops=size)
    clock = time.perf_counter
    setup_start = clock()
    spec = RunSpec.from_spec(
        workload.cells[0].format(size=size, rate=size // 10) + f",seed={seed}"
    )
    scenario = spec.to_scenario()
    # The program memoises the calibration, so only the first leg of a
    # process pays the probe; set-up is sampled across processes.
    calibrate(scenario, spec.fleet)
    if "calibrate_s" not in state:
        state["calibrate_s"] = clock() - setup_start
        # The fleet model has no wire; what a fleet query costs on the
        # wire is what its calibration probe — the same scenario on the
        # exact simulator with four clients — put on the links.
        probe = run(RunSpec.from_scenario(probe_scenario(scenario, spec.fleet)))
        state["probe_wire_bytes_per_op"] = (
            link_total(probe.metrics, "bytes")
            / probe.metrics["queries.issued"]
        )
    leg.setup_s = clock() - setup_start
    if setup_only:
        return leg

    cpu_start = time.process_time()
    wall_start = clock()
    report = run(spec)
    leg.wall_s = clock() - wall_start
    leg.cpu_s = time.process_time() - cpu_start
    leg.call_s.append(leg.wall_s)
    leg.slices.append((0, size, leg.wall_s, leg.cpu_s, leg.wall_s))
    check_report(leg, workload.name, report, size)
    leg.wire_bytes_per_op = state["probe_wire_bytes_per_op"]
    leg.counters = {
        "digests": [metrics_digest(report.metrics)],
        "probe_wire_bytes_per_op": leg.wire_bytes_per_op,
    }
    leg.layer = {
        "sampled_clients": report.metrics["fleet.sample.queries"],
        "calibrate_s": state["calibrate_s"],
    }
    return leg


# -- checks across legs -----------------------------------------------------


def check_legs(
    legs: List[Leg], banked: Optional[Dict[str, object]]
) -> List[str]:
    """Every failure of the output checks, as text; empty means correct.

    *banked* is the ``expected.json`` entry of this (workload, seed,
    scale), or ``None`` when that combination was never banked.
    """
    problems = [message for leg in legs for message in leg.errors]
    first = legs[0].counters
    for number, leg in enumerate(legs[1:], start=2):
        if leg.counters != first:
            problems.append(
                f"leg {number} counted {leg.counters}, leg 1 {first}"
            )
    if banked is not None and first != banked:
        problems.append(f"counters {first} differ from the banked {banked}")
    return problems
