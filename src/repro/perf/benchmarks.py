"""Registered benchmarks for the reproduction's hot paths.

Macro benchmarks drive whole scenario runs (the full sweep, serial and
process-parallel, and a single resolution experiment); micro benchmarks
isolate the codecs and primitives those runs spend their time in (CoAP
and DNS encode/decode, AES-CCM seal/open, simulator event churn).

Every benchmark accepts ``quick`` (a reduced-work variant for CI smoke
runs) and returns the number of work units performed. The codec
benchmarks run the golden-vector guard as setup: their fast paths must
produce byte-identical wire output before any timing counts.
"""

from __future__ import annotations

from . import golden
from .harness import register

# -- macro: scenario sweeps ------------------------------------------------

#: The 8-cell reference grid: 2 transports × 2 topologies × 2 losses.
SWEEP_GRID = dict(
    transports=("coap", "oscore"),
    topologies=("figure2", "one-hop"),
    losses=(0.05, 0.25),
)


def _sweep_base(quick: bool):
    from repro.scenarios import Scenario, WorkloadSpec

    return Scenario(
        workload=WorkloadSpec(num_queries=10 if quick else 30),
        run_duration=300.0,
    )


def _run_sweep(quick: bool, workers: int) -> int:
    from repro.scenarios import ScenarioRunner

    result = ScenarioRunner().sweep(
        base=_sweep_base(quick), workers=workers, **SWEEP_GRID
    )
    return len(result)


@register(
    "sweep_serial",
    "8-cell sweep (coap+oscore × figure2+one-hop × 0.05/0.25), serial",
    unit="cell",
)
def sweep_serial(quick: bool) -> int:
    return _run_sweep(quick, workers=1)


@register(
    "sweep_process4",
    "the same 8-cell sweep fanned out over 4 worker processes",
    unit="cell",
)
def sweep_process4(quick: bool) -> int:
    return _run_sweep(quick, workers=4)


@register(
    "single_resolution",
    "one Figure 7-style resolution experiment (coap, figure2 topology)",
    unit="query",
)
def single_resolution(quick: bool) -> int:
    from repro.scenarios import Scenario, ScenarioRunner, WorkloadSpec

    queries = 15 if quick else 50
    scenario = Scenario(workload=WorkloadSpec(num_queries=queries))
    result = ScenarioRunner().run(scenario)
    return len(result.outcomes)


# -- micro: codecs ---------------------------------------------------------


def _codec_messages(codec: str):
    return [v.build() for v in golden.vectors() if v.codec == codec]


def _codec_wires(codec: str):
    return [v.build().encode() for v in golden.vectors() if v.codec == codec]


@register(
    "coap_encode",
    "CoAP message encode over the golden vector set",
    unit="message",
    setup=golden.verify,
)
def coap_encode(quick: bool) -> int:
    messages = _codec_messages("coap")
    rounds = 300 if quick else 1500
    for _ in range(rounds):
        for message in messages:
            message.encode()
    return rounds * len(messages)


@register(
    "coap_decode",
    "CoAP message decode over the golden vector set",
    unit="message",
    setup=golden.verify,
)
def coap_decode(quick: bool) -> int:
    from repro.coap.message import CoapMessage

    wires = _codec_wires("coap")
    rounds = 300 if quick else 1500
    for _ in range(rounds):
        for wire in wires:
            CoapMessage.decode(wire)
    return rounds * len(wires)


@register(
    "dns_encode",
    "DNS message encode (with compression) over the golden vector set",
    unit="message",
    setup=golden.verify,
)
def dns_encode(quick: bool) -> int:
    messages = _codec_messages("dns")
    rounds = 300 if quick else 1500
    for _ in range(rounds):
        for message in messages:
            message.encode()
    return rounds * len(messages)


#: Wire-generation cache so the decode benchmarks time only decoding.
_DNS_WIRES: dict = {}


def _distinct_dns_wires(count: int):
    """*count* structurally similar but distinct response wires.

    Distinct inputs defeat the decode memo (its capacity is below
    *count*, so repeats stay cold), which makes this the cold-parser
    measurement; :func:`dns_decode_hot` measures the memoised repeat
    path. Generated once per process and reused across repeats.
    """
    wires = _DNS_WIRES.get(count)
    if wires is not None:
        return wires
    from repro.dns.enums import DNSClass, RecordType
    from repro.dns.message import Flags, Message, Question, ResourceRecord
    from repro.dns.rdata import AAAAData

    wires = []
    for index in range(count):
        name = f"name{index:05d}.example-iot.org"
        wires.append(
            Message(
                id=0,
                flags=Flags(qr=True),
                questions=(Question(name, RecordType.AAAA),),
                answers=(
                    ResourceRecord(
                        name, RecordType.AAAA, DNSClass.IN, 300,
                        AAAAData(f"2001:db8::{index:x}"),
                    ),
                ),
            ).encode()
        )
    _DNS_WIRES[count] = wires
    return wires


def _prepare_dns_decode() -> None:
    golden.verify()
    _distinct_dns_wires(4096)


@register(
    "dns_decode",
    "DNS message decode, distinct wires (cold parser path)",
    unit="message",
    setup=_prepare_dns_decode,
)
def dns_decode(quick: bool) -> int:
    from repro.dns.message import Message

    wires = _distinct_dns_wires(4096)
    for wire in wires:
        Message.decode(wire)
    return len(wires)


@register(
    "dns_decode_hot",
    "DNS message decode, repeated wires (memoised path)",
    unit="message",
    setup=golden.verify,
)
def dns_decode_hot(quick: bool) -> int:
    from repro.dns.message import Message

    wires = _codec_wires("dns")
    rounds = 300 if quick else 1500
    for _ in range(rounds):
        for wire in wires:
            Message.decode(wire)
    return rounds * len(wires)


# -- micro: cache ----------------------------------------------------------


@register(
    "cache_lookup",
    "KeyedCache lookup mix: 50% hits, 50% misses on a 512-entry LRU",
    unit="lookup",
)
def cache_lookup(quick: bool) -> int:
    from repro.cache import EvictionPolicy, KeyedCache

    cache = KeyedCache(512, policy=EvictionPolicy.LRU)
    for index in range(512):
        cache.store(("name%03d" % index, 28), index, lifetime=3600.0, now=0.0)
    present = [("name%03d" % index, 28) for index in range(512)]
    absent = [("miss%03d" % index, 28) for index in range(512)]
    rounds = 40 if quick else 200
    lookup = cache.lookup
    for _ in range(rounds):
        for hit_key, miss_key in zip(present, absent):
            lookup(hit_key, 1.0)
            lookup(miss_key, 1.0)
    return rounds * 1024


# -- micro: crypto ---------------------------------------------------------

_KEY = bytes(range(16))
_NONCE = bytes(range(13))
_AAD = b"\x83\x00\x41\x01\x40"
#: A DNS-response-sized plaintext (the OSCORE payloads of Figure 6).
_PLAINTEXT = bytes(range(256)) * 1


def _seal_once() -> bytes:
    from repro.crypto import AES_CCM_16_64_128

    # Constructing per call mirrors OSCORE, which instantiates the AEAD
    # for every protected message exchange.
    return AES_CCM_16_64_128(_KEY).encrypt(_NONCE, _PLAINTEXT[:120], _AAD)


@register(
    "aesccm_seal",
    "AES-CCM-16-64-128 seal of a 120-byte payload (fresh AEAD per op)",
    unit="seal",
)
def aesccm_seal(quick: bool) -> int:
    ops = 100 if quick else 500
    for _ in range(ops):
        _seal_once()
    return ops


@register(
    "aesccm_open",
    "AES-CCM-16-64-128 open+verify of a 120-byte payload",
    unit="open",
)
def aesccm_open(quick: bool) -> int:
    from repro.crypto import AES_CCM_16_64_128

    ciphertext = _seal_once()
    ops = 100 if quick else 500
    for _ in range(ops):
        AES_CCM_16_64_128(_KEY).decrypt(_NONCE, ciphertext, _AAD)
    return ops


# -- micro: observability --------------------------------------------------


@register(
    "metrics_overhead",
    "metrics hot path: one counter inc + one histogram observe per op",
    unit="op",
)
def metrics_overhead(quick: bool) -> int:
    """Cost of the repro.obs fast path an instrumented datagram pays.

    Hoists the bound children exactly as the load generator does, so
    what's timed is the per-event overhead observability adds to a hot
    loop: one counter increment plus one latency observation routed
    through the log-spaced histogram buckets.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.telemetry import LATENCY_SECONDS, QUERIES_TOTAL

    registry = MetricsRegistry()
    count = registry.counter(QUERIES_TOTAL, "queries issued").labels()
    observe = registry.histogram(
        LATENCY_SECONDS, "query latency"
    ).labels().observe
    ops = 20_000 if quick else 200_000
    # A fixed latency ramp spanning several buckets, so bisection depth
    # varies like real traffic rather than hitting one bucket forever.
    samples = [1e-4 * (1 + (i % 97)) for i in range(512)]
    n = len(samples)
    for i in range(ops):
        count.inc()
        observe(samples[i % n])
    assert count.value == ops
    return ops


# -- macro: live serving runtime -------------------------------------------


@register(
    "live_loopback",
    "live DoC resolutions over real loopback UDP sockets (coap)",
    unit="query",
)
def live_loopback(quick: bool) -> int:
    import asyncio

    from repro.live import DocLiveServer, LiveResolver

    queries = 50 if quick else 300

    async def run() -> int:
        server = DocLiveServer(transport="coap", port=0, num_names=16)
        async with server:
            resolver = LiveResolver(server.endpoint, transport="coap")
            async with resolver:
                done = 0
                for index in range(queries):
                    await resolver.resolve(
                        server.names[index % len(server.names)], timeout=10.0
                    )
                    done += 1
                return done

    return asyncio.run(run())


@register(
    "live_loopback_sharded",
    "sharded serve+loadtest over loopback UDP: qps at 1 and 2 workers",
    unit="query",
)
def live_loopback_sharded(quick: bool) -> "tuple":
    """Closed-loop aggregate throughput of the SO_REUSEPORT worker pool.

    Runs the same offered load against a 1-worker and a 2-worker pool
    (distributed load generation matching the serve worker count) and
    attaches the qps-vs-workers curve plus the host's core count as
    result metadata — the scaling win only materialises with cores to
    spread across, so the curve is only meaningful next to
    ``cpu_count``. The unit count (total completed queries) keeps the
    per-unit gate comparison meaningful.
    """
    import os

    from repro.live import ServePool, run_distributed_load

    duration = 0.5 if quick else 1.5
    total = 0
    curve = {}
    for workers in (1, 2):
        pool = ServePool(
            workers=workers, transport="udp", port=0, num_names=16
        )
        endpoint = pool.start()
        try:
            report = run_distributed_load(
                endpoint,
                transport="udp",
                mode="closed",
                concurrency=4 * workers,
                duration=duration,
                workers=workers,
                timeout=10.0,
            )
        finally:
            pool.drain()
        total += report["succeeded"]
        curve[str(workers)] = report["achieved_qps"]
    return total, {"qps_by_workers": curve, "cpu_count": os.cpu_count()}


# -- macro: fleet substrate ------------------------------------------------


@register(
    "fleet_scale",
    "fleet substrate end-to-end: clients/sec at 10k and 1M clients",
    unit="client",
)
def fleet_scale(quick: bool) -> "tuple":
    """Aggregate-engine throughput across two fleet sizes.

    Runs the full ``RunSpec -> run() -> Report`` path on the fleet
    substrate at 10k and 1M clients (queries scaled with the fleet, so
    both runs sample at ``fleet-sample-cap`` and the 1M run exercises
    the scaled-counter path) and attaches the clients/sec curve as
    metadata. Calibration is memoised per probe identity — both scales
    share one probe, paid in warmup — so what's timed is the engine
    walk plus report assembly, which is the fleet's hot path.
    """
    import time as _time

    from repro.api import RunSpec, run

    cap = 8192 if quick else 65536
    total = 0
    curve = {}
    for clients in (10_000, 1_000_000):
        spec = RunSpec.from_spec(
            f"one-hop,transport=coap,clients={clients},queries={clients},"
            f"rate={clients // 10},names=64,cache=client-dns+client-coap,"
            f"substrate=fleet,fleet-sample-cap={cap}"
        )
        start = _time.perf_counter()
        report = run(spec)
        elapsed = _time.perf_counter() - start
        assert report.metrics["queries.issued"] > 0
        total += clients
        curve[str(clients)] = round(clients / elapsed, 1)
    return total, {"clients_per_s_by_scale": curve}


# -- micro: simulator ------------------------------------------------------


@register(
    "sim_event_churn",
    "simulator schedule/cancel/fire churn (half the events cancelled)",
    unit="event",
)
def sim_event_churn(quick: bool) -> int:
    from repro.sim import Simulator

    total = 4_000 if quick else 20_000
    sim = Simulator(seed=7)
    fired = 0

    def tick() -> None:
        nonlocal fired
        fired += 1

    # Interleave survivors with cancelled events so the lazy heap
    # compaction path is part of what gets measured.
    events = []
    for index in range(total):
        events.append(sim.schedule(index * 1e-4, tick))
    for index in range(0, total, 2):
        events[index].cancel()
    sim.run()
    return fired + total // 2
