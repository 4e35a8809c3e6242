"""The serving pool and distributed load generation.

One :class:`~repro.live.server.DocLiveServer` is one event loop on one
socket — per-core wins cannot multiply across cores. This module is
the one way ``repro serve`` and ``repro.api.run`` start a server, for
any worker count, and scales it the way production DNS resolvers do:
**kernel socket sharding**. A :class:`ServePool` forks N worker
processes (N = 1 is one worker under the supervising parent), each
running its own stdlib asyncio selector loop with its own server stack
— per-worker resolver/fastpath/DNS/CoAP caches, per-worker RNG — all
bound to the *same* ``host:port`` through ``SO_REUSEPORT``, so the
kernel hashes inbound flows across the workers with no userspace
dispatcher. The load generator distributes the same way:
:func:`run_load` forks M generator processes with deterministically
derived seeds (:func:`derive_worker_seed`) and returns what each
delivered; :func:`repro.api.report.report_from_loadgen` pools them —
counters sum, every worker's success latencies pool into one exact
distribution, per-worker stats ride along under ``live.workers.*`` in
the unified Report.

Control runs over a per-worker duplex pipe: workers announce
``("ready", endpoint)`` once bound, and a serve worker only ever sends
one thing after that, its stats block — to a mid-run ``"sample"`` and,
final, to the ``"stop"`` the parent broadcasts to drain gracefully.
:data:`~repro.api.report.SERVER_STATS` says how the blocks merge
(:func:`merge_server_stats`) and how ``/metrics`` shows them
(:func:`stats_snapshot`). A worker that crashes mid-run is detected by
process liveness, surfaces in the pool's nonzero :attr:`exit_code`,
and the surviving workers' stats still merge (partial-stats contract).
A parent that dies without saying ``stop`` hangs up every pipe — each
child closes the parent-side ends it inherited — so no worker outlives
it.

Platforms without ``SO_REUSEPORT`` (detected by actually double-
binding a probe port, not by attribute sniffing) fall back to a
single worker and surface a warning in the merged stats.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import signal
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.report import POOL_RULES, SERVER_STATS, pooled_cache_stats
from repro.obs.log import get_logger

from .server import DocLiveServer
from .wiring import DEFAULT_SECRET, LiveWiringError

__all__ = [
    "LoadPool",
    "ServePool",
    "WorkerPool",
    "WorkerPoolError",
    "derive_worker_seed",
    "load_once",
    "merge_server_stats",
    "reuseport_supported",
    "run_load",
    "stats_snapshot",
]

#: How long a mid-run metrics scrape waits per worker's stats block.
SAMPLE_TIMEOUT = 2.0

_pool_log = get_logger("repro.live.workers")

#: How long the parent waits for every worker to report ready.
READY_TIMEOUT = 30.0

#: How long a drain waits for a worker's final stats before declaring
#: the worker failed and terminating it.
DRAIN_TIMEOUT = 15.0

#: How long the parent waits for load workers' reports. Load workers
#: run for the configured duration plus per-query timeouts; ten minutes
#: bounds a wedged worker without cutting off a legitimate long run.
LOAD_COLLECT_TIMEOUT = 600.0

#: The warning surfaced when sharding was requested but the platform
#: cannot do it.
REUSEPORT_WARNING = (
    "SO_REUSEPORT is unavailable on this platform; "
    "falling back to a single worker"
)


class WorkerPoolError(LiveWiringError):
    """A worker pool failed to start, crashed, or was misconfigured."""


# -- capability detection --------------------------------------------------


def reuseport_supported(host: str = "127.0.0.1") -> bool:
    """Whether two sockets can actually share one UDP port on *host*.

    Attribute presence is not enough (macOS exposes ``SO_REUSEPORT``
    with different semantics; some container seccomp profiles reject
    the setsockopt), so this binds a probe socket and then binds a
    second one to the same port — the exact operation a worker pool
    performs.
    """
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    probe = second = None
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        probe.bind((host, 0))
        second = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        second.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        second.bind((host, probe.getsockname()[1]))
    except OSError:
        return False
    finally:
        if second is not None:
            second.close()
        if probe is not None:
            probe.close()
    return True


def derive_worker_seed(seed: int, index: int) -> int:
    """A deterministic, well-spread seed for worker *index*.

    SplitMix64-style finalizer over ``seed + (index+1) * golden-ratio``:
    distinct workers land far apart in seed space (adjacent base seeds
    or the repeat spacing of ``RunSpec.repeat_seeds`` cannot collide
    with a worker derivation), and the same ``(seed, index)`` always
    yields the same value — distributed runs replay exactly.
    """
    mask = (1 << 64) - 1
    x = (seed + 0x9E3779B97F4A7C15 * (index + 1)) & mask
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & mask
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & mask
    x ^= x >> 31
    return x


# -- the generic pool ------------------------------------------------------


class WorkerPool:
    """N forked worker processes with a pipe control channel each.

    Subclass-agnostic mechanics: fork, collect ready messages,
    broadcast commands, collect final payloads with crash detection,
    join/terminate. *target* is a picklable module-level callable
    invoked as ``target(index, config, connection)`` in the child.
    """

    role = "worker"

    def __init__(self, target, configs: Sequence[dict]) -> None:
        if not configs:
            raise WorkerPoolError("worker pool needs at least one worker")
        self._target = target
        self._configs = list(configs)
        self._procs: List[multiprocessing.Process] = []
        self._conns: List = []
        self._failed: List[int] = []
        #: worker index -> the ``("error", text)`` it reported.
        self._errors: Dict[int, str] = {}
        self._started = False
        # Serializes pipe use between the owning thread and the
        # metrics HTTP thread's mid-run ``sample()`` scrapes.
        self._pipe_lock = threading.Lock()

    @property
    def workers(self) -> int:
        return len(self._configs)

    @property
    def failed_workers(self) -> List[int]:
        """Indices of workers that died without delivering a payload."""
        return list(self._failed)

    @property
    def exit_code(self) -> int:
        """0 when every worker exited cleanly, 1 otherwise."""
        if self._failed:
            return 1
        for proc in self._procs:
            if proc.exitcode not in (0, None):
                return 1
        return 0

    def start(self) -> None:
        if self._started:
            raise WorkerPoolError("pool already started")
        self._started = True
        for index, config in enumerate(self._configs):
            self._spawn(index, config)

    def _spawn(self, index: int, config: dict) -> None:
        """Fork one worker with its control pipe.

        Do not hold sockets the children must not inherit across this
        call: the fork start method copies every open FD, and an
        inherited-but-unread member of an SO_REUSEPORT group silently
        blackholes the flows the kernel hashes to it.
        """
        ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_entry,
            args=(
                self._target, index, config, child_conn,
                [parent_conn, *self._conns],
            ),
            name=f"repro-{self.role}-{index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs.append(proc)
        self._conns.append(parent_conn)

    def _recv(self, index: int, kind: str, timeout: float):
        """One worker's next *kind* message, or ``None`` on crash,
        timeout or an ``("error", text)`` report (the text is kept for
        :meth:`_reason`)."""
        conn, proc = self._conns[index], self._procs[index]
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            # What a worker flushed before it exited still counts: a
            # dead worker's pipe is read out without waiting.
            alive = proc.is_alive()
            try:
                if conn.poll(min(remaining, 0.1) if alive else 0):
                    message = conn.recv()
                    if message[0] == kind:
                        return message[1]
                    if message[0] == "error":
                        self._errors[index] = message[1]
                        return None
                    continue  # unrelated message kind: keep waiting
            except (EOFError, OSError):
                return None
            if not alive:
                return None

    def _reason(self, index: int) -> str:
        """``": <text>"`` when worker *index* said why it failed."""
        text = self._errors.get(index)
        return f": {text}" if text else ""

    def broadcast(self, command: str) -> None:
        for conn in self._conns:
            try:
                conn.send((command,))
            except (BrokenPipeError, OSError):
                pass  # dead worker: picked up by collect()

    def collect(self, kind: str, timeout: float = DRAIN_TIMEOUT) -> List:
        """Every worker's final *kind* payload; crashed or unresponsive
        workers are recorded in :attr:`failed_workers` and skipped
        (the partial-stats contract)."""
        payloads = []
        for index in range(self.workers):
            payload = self._recv(index, kind, timeout)
            if payload is None:
                self._record_failure(index)
            else:
                payloads.append(payload)
        self.join()
        return payloads

    def _record_failure(self, index: int) -> None:
        """Mark worker *index* failed and emit the structured crash
        record (worker index, exit code, decoded signal, and the
        partial-stats flag: the survivors' numbers are still reported)."""
        if index in self._failed:
            return
        self._failed.append(index)
        proc = self._procs[index]
        exitcode = proc.exitcode
        signal_name = None
        if exitcode is not None and exitcode < 0:
            try:
                signal_name = signal.Signals(-exitcode).name
            except ValueError:
                signal_name = None
        _pool_log.error(
            "worker died without delivering its payload",
            role=self.role,
            worker=index,
            exitcode=exitcode,
            signal=signal_name,
            alive=proc.is_alive(),
            partial_stats=True,
        )

    def join(self, timeout: float = 5.0) -> None:
        for proc in self._procs:
            proc.join(timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout)

    def terminate(self) -> None:
        """Hard stop (cleanup path — no stats are collected)."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        self.join()


def _worker_entry(target, index: int, config: dict, conn, parent_ends) -> None:
    """What every pool child runs: the set-up and the failure report
    the serve and load workers share, around ``target(index, config,
    conn)``."""
    # Close the parent-side pipe ends the fork copied into this child —
    # its own and the earlier workers'. While a child holds one, a
    # parent that dies never hangs up on that pipe and `_await_stop`
    # waits for ever.
    for end in parent_ends:
        end.close()
    # The parent owns Ctrl-C: it drains the pool and collects stats;
    # letting SIGINT reach the children would kill them mid-snapshot.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic runtimes
        pass
    try:
        target(index, config, conn)
    except Exception as exc:  # noqa: BLE001 - reported over the pipe
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
        raise SystemExit(1) from exc


# -- serve pool ------------------------------------------------------------


async def _await_stop(conn, on_sample=None) -> None:
    """Serve pipe commands until a ``stop`` arrives (or hangup).

    ``("sample",)`` requests — the pool parent's mid-run ``/metrics``
    scrape — answer with ``("sample", on_sample())``; unknown commands
    are ignored so the protocol can grow without breaking old workers.
    The pipe is watched with ``add_reader``, like the server socket on
    the same selector loop.
    """
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()

    def on_pipe() -> None:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            stop.set()
            return
        if not message:
            return
        if message[0] == "stop":
            stop.set()
        elif message[0] == "sample" and on_sample is not None:
            try:
                conn.send(("sample", on_sample()))
            except (BrokenPipeError, OSError):
                pass

    loop.add_reader(conn.fileno(), on_pipe)
    try:
        await stop.wait()
    finally:
        loop.remove_reader(conn.fileno())


def _serve_worker_main(index: int, config: dict, conn) -> None:
    """One serving worker: bind (SO_REUSEPORT), serve until ``stop``,
    answer with the final stats block."""
    asyncio.run(_serve_worker(index, config, conn))


async def _serve_worker(index: int, config: dict, conn) -> None:
    server = DocLiveServer(
        reuse_port=config["reuse_port"], **config["server"]
    )

    def block() -> Dict[str, object]:
        return dict(server.stats(), worker=index)

    await server.start()
    conn.send(("ready", list(server.endpoint)))
    try:
        await _await_stop(conn, on_sample=block)
    finally:
        await server.stop()
    conn.send(("stats", block()))


class ServePool(WorkerPool):
    """N ``DocLiveServer`` processes sharing one port via SO_REUSEPORT
    under one supervising parent — the server ``repro serve`` and
    ``repro.api.run`` start, for N = 1 as for any other N (a lone
    worker binds without SO_REUSEPORT).

    Every worker serves the *same* zone (the name universe and zone
    derivation stay on the shared base seed, so any worker answers any
    query identically) behind its own event loop, caches, and fastpath.
    On platforms without working ``SO_REUSEPORT`` a requested multi-
    worker pool degrades to one worker and records
    :data:`REUSEPORT_WARNING` in :attr:`warning` and the merged stats.

    ``server_kwargs`` is the :class:`~repro.live.server.DocLiveServer`
    keyword set (transport/host/port/num_names/...). ``port=0`` with
    multiple workers is resolved by a two-phase start: worker 0 binds
    the ephemeral port and reports it, then the remaining workers join
    its reuseport group on that concrete port."""

    role = "serve"

    def __init__(self, workers: int = 2, **server_kwargs) -> None:
        if workers < 1:
            raise WorkerPoolError("workers must be >= 1")
        self.requested_workers = workers
        self.warning: Optional[str] = None
        self._server_kwargs = dict(server_kwargs)
        self._endpoint: Optional[Tuple[str, int]] = None
        self._final_stats: Optional[Dict[str, object]] = None
        if workers > 1 and not reuseport_supported(
            self._server_kwargs.get("host", "127.0.0.1")
        ):
            self.warning = REUSEPORT_WARNING
            workers = 1
        configs = [
            {
                "server": dict(self._server_kwargs),
                "reuse_port": workers > 1,
            }
            for _ in range(workers)
        ]
        super().__init__(_serve_worker_main, configs)

    # WorkerPool.start is the fork; this adds the two-phase port
    # election + the ready barrier and returns the shared endpoint.
    def start(self) -> Tuple[str, int]:  # type: ignore[override]
        if self._started:
            raise WorkerPoolError("pool already started")
        self._started = True
        try:
            # Worker 0 elects the shared port: it binds what it was
            # given (``port=0`` too) with SO_REUSEPORT set and reports
            # the bound endpoint, then the remaining workers join its
            # group on that concrete port.
            # (A parent-held reservation socket would leak into every
            # forked child as an unread reuseport-group member and
            # blackhole the flows hashed to it — the port must be owned
            # by a socket that is actually served.)
            endpoint = None
            for index, config in enumerate(self._configs):
                if endpoint is not None:
                    config["server"]["port"] = endpoint[1]
                self._spawn(index, config)
                ready = self._recv(index, "ready", READY_TIMEOUT)
                if ready is None:
                    raise WorkerPoolError(
                        f"serve worker {index} failed to start"
                        + self._reason(index)
                    )
                endpoint = endpoint or tuple(ready)
        except BaseException:
            self.terminate()
            raise
        self._endpoint = endpoint
        return self._endpoint

    def drain(self) -> Dict[str, object]:
        """Graceful stop: every worker snapshots and returns its stats;
        the merged block (with per-worker detail) is cached so repeated
        calls — or a post-crash inspection — see the same numbers."""
        if self._final_stats is not None:
            return self._final_stats
        with self._pipe_lock:
            self.broadcast("stop")
            stats = self.collect("stats")
        self._final_stats = merge_server_stats(
            stats,
            requested=self.requested_workers,
            warning=self.warning,
            failed_indices=self.failed_workers,
        )
        return self._final_stats

    # -- mid-run observability (the pool-level /metrics + /healthz) --------

    def sample(
        self, timeout: float = SAMPLE_TIMEOUT
    ) -> List[Dict[str, object]]:
        """Every live worker's stats block, as of now.

        Safe to call from the metrics HTTP thread — pipe use is
        serialized against :meth:`drain` — and tolerant of workers
        dying mid-scrape (they are simply absent from the result).
        """
        with self._pipe_lock:
            if self._final_stats is not None:
                return []
            asked: List[int] = []
            for index, conn in enumerate(self._conns):
                if not self._procs[index].is_alive():
                    continue
                try:
                    conn.send(("sample",))
                except (BrokenPipeError, OSError):
                    continue
                asked.append(index)
            blocks = [self._recv(index, "sample", timeout) for index in asked]
            return [block for block in blocks if block is not None]

    def metrics_snapshot(self) -> Dict[str, object]:
        """The pool's exposition source: :func:`stats_snapshot` of the
        merged mid-run sample."""
        return stats_snapshot(merge_server_stats(self.sample()))

    def render_metrics(self) -> str:
        """Prometheus text exposition of :meth:`metrics_snapshot`."""
        from repro.obs.metrics import render_snapshot

        return render_snapshot(self.metrics_snapshot())

    def health(self) -> Tuple[bool, Dict[str, object]]:
        """Pool liveness for ``/healthz``: healthy while every worker
        process is alive and none has been recorded failed."""
        alive = sum(1 for proc in self._procs if proc.is_alive())
        healthy = alive == self.workers and not self._failed
        return healthy, {
            "role": self.role,
            "workers": self.workers,
            "alive": alive,
            "failed_workers": list(self._failed),
            "endpoint": list(self._endpoint) if self._endpoint else None,
        }


def _stat(block: Dict[str, object], path: str):
    """The leaf of *block* at dotted *path*, ``None`` when not stated."""
    for key in path.split("."):
        block = block.get(key) if isinstance(block, dict) else None
    return block


def _pooled_block(leaves: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """The counters of *leaves* (single-server stats blocks) as one,
    each by its row's rule (:data:`~repro.api.report.POOL_RULES`;
    ``ratio`` is not pooled, see there); what no leaf states stays
    out."""

    pooled: Dict[str, object] = {}
    for row in SERVER_STATS:
        values = [
            value for value in (_stat(leaf, row.path) for leaf in leaves)
            if value is not None
        ]
        if values and row.merge in POOL_RULES:
            *sections, key = row.path.split(".")
            target = pooled
            for section in sections:
                target = target.setdefault(section, {})
            target[key] = POOL_RULES[row.merge](values)
    cache = pooled.get("resolver_cache")
    if cache:
        cache["hit_ratio"] = pooled_cache_stats([cache]).hit_ratio
    return pooled


def merge_server_stats(
    blocks: Sequence[Dict[str, object]],
    requested: Optional[int] = None,
    warning: Optional[str] = None,
    failed_indices: Optional[Sequence[int]] = None,
) -> Dict[str, object]:
    """One server stats block from many: the only merge, for both axes.

    A block is what one pool worker reports
    (:meth:`~repro.live.server.DocLiveServer.stats` plus its ``worker``
    index) or the output of an earlier call, so the same function
    merges across a pool's workers (:meth:`ServePool.drain`) and across
    the repeats of a run (``repro.api.runner``), and merging ``[a, b]``
    then ``c`` equals merging ``[a, b, c]``. Merged blocks are taken
    apart into their per-worker entries again; every total is
    recomputed from those.

    Each leaf pools by its :data:`~repro.api.report.SERVER_STATS`
    rule — counters sum, ``io.largest_burst`` is a maximum, the facts
    are kept from the first block that states them, the resolver
    cache's hit ratio is ``CacheStats``' own over the pooled counts —
    and the ``runtime`` block (``serve_workers`` = distinct worker
    indices, ``reuseport``, ``warning``) describes the pool.

    Every result carries the pool facts: ``workers_requested``,
    ``workers_failed`` (sums), ``failed_workers`` (union; always
    present so consumers need no existence check), the per-worker
    ``workers`` list (entries of one index sum across repeats) and
    ``runtime``, the source of the Report's ``live.workers.serve.*``.
    """
    leaves = [
        leaf for block in blocks for leaf in block.get("workers", (block,))
    ]
    merged = _pooled_block(leaves)
    by_index: Dict[int, List[Dict[str, object]]] = {}
    for leaf in leaves:
        if "worker" in leaf:
            by_index.setdefault(leaf["worker"], []).append(leaf)
    failed = {int(index) for index in failed_indices or ()}
    merged["workers_requested"] = (
        requested if requested is not None
        else max(
            (block.get("workers_requested", 0) for block in blocks), default=0
        )
    )
    merged["workers_failed"] = len(failed) + sum(
        block.get("workers_failed", 0) for block in blocks
    )
    merged["failed_workers"] = sorted(failed.union(
        *(block.get("failed_workers", ()) for block in blocks)
    ))
    merged["workers"] = [
        dict(_pooled_block(group), worker=index)
        for index, group in sorted(by_index.items())
    ]
    merged["runtime"] = {
        "serve_workers": len(by_index),
        "reuseport": bool(_stat(merged, "io.reuse_port")),
        "warning": next(filter(None, [warning] + [
            block.get("runtime", {}).get("warning") for block in blocks
        ]), None),
    }
    return merged


def stats_snapshot(stats: Dict[str, object]) -> Dict[str, object]:
    """The exposition snapshot (:func:`repro.obs.metrics.render_snapshot`'s
    input) of a :func:`merge_server_stats` block: every per-worker
    entry's leaves as ``repro_<family>{worker=…}`` series and the
    block's own totals as their ``repro_pool_<family>`` twins — pooled
    by the one merge, so the twin of a summed leaf is the sum of its
    series. Every family is there for every transport: a leaf a block
    does not state (a ``udp`` server has no fast path) reads 0.
    ``repro_up`` is 1 per worker that answered and ``repro_pool_up``
    their count."""
    views = [
        ("repro_", {"worker": str(entry["worker"])}, entry)
        for entry in stats.get("workers", ())
    ]
    up = {"kind": "gauge", "help": "1 while the server socket is open"}
    snapshot: Dict[str, object] = {
        "repro_up": dict(
            up, samples=[[worker, 1] for _prefix, worker, _entry in views]
        ),
        "repro_pool_up": dict(up, samples=[[{}, len(views)]]),
    }
    for prefix, worker, block in views + [("repro_pool_", {}, stats)]:
        for row in SERVER_STATS:
            if row.family:
                snapshot.setdefault(prefix + row.family, {
                    "kind": row.kind, "help": row.help, "samples": [],
                })["samples"].append(
                    [{**row.labels, **worker}, _stat(block, row.path) or 0]
                )
    return snapshot


# -- distributed load generation -------------------------------------------


def _load_worker_main(index: int, config: dict, conn) -> None:
    """One load-generation worker: drive its share of the offered load
    and answer with its loadgen report."""
    report = asyncio.run(load_once(config))
    report["worker"] = index
    conn.send(("report", report))


def _load_side(config: dict):
    """The name universe and the (unconnected) resolver of *config*;
    raises on an unknown dataset, transport or cache placement."""
    from .client import LiveResolver
    from .wiring import build_names

    names = build_names(
        config["num_names"],
        dataset=config.get("dataset"),
        name_seed=config.get("name_seed", 7),
    )
    resolver = LiveResolver(
        tuple(config["endpoint"]),
        transport=config["transport"],
        scheme=config["scheme"],
        cache_placement=config.get("cache_placement", "none"),
        block_size=config.get("block_size"),
        seed=config["seed"] + 1,
        secret=config.get("secret", DEFAULT_SECRET),
        timeout=config["timeout"],
    )
    return names, resolver


async def load_once(config: dict) -> Dict[str, object]:
    """One load-generation pass described by *config*: connect a
    :class:`~repro.live.client.LiveResolver` to ``config["endpoint"]``
    and drive :func:`~repro.live.loadgen.generate_load` through it.

    *config* names the resolver (``endpoint``, ``transport``,
    ``scheme``, ``timeout``, ``seed``), the name universe
    (``num_names``) and the offered load (``rate``, ``duration``,
    ``mode``, ``concurrency``); the ``config.get`` defaults below and in
    :func:`_load_side` are the only ones. A caller in this process may
    add ``snapshot_sinks`` (``generate_load``'s per-second sinks).
    Every load worker runs this, and :func:`run_load` runs it in the
    caller's process for one load worker — one definition of "the load
    side" for every worker count.
    """
    from .loadgen import generate_load

    names, resolver = _load_side(config)
    async with resolver:
        return await generate_load(
            resolver,
            names,
            rate=config["rate"],
            duration=config["duration"],
            mode=config["mode"],
            concurrency=config["concurrency"],
            timeout=config["timeout"],
            seed=config["seed"],
            workload=config.get("workload"),
            snapshot_sinks=config.get("snapshot_sinks", ()),
        )


class LoadPool(WorkerPool):
    """M load-generator processes sharing one offered load."""

    role = "load"

    def run(self) -> List[Dict[str, object]]:
        """Fork, wait for every worker's report, join. Raises when *no*
        worker delivered; partial results return with the failures
        recorded in :attr:`failed_workers`."""
        self.start()
        reports = self.collect("report", timeout=LOAD_COLLECT_TIMEOUT)
        if not reports:
            raise WorkerPoolError(
                "every load worker failed"
                + self._reason(min(self._errors, default=0))
            )
        return reports


def _split_evenly(total: int, parts: int) -> List[int]:
    """Integer shares summing to *total* (first shares get the rest)."""
    base, rest = divmod(total, parts)
    return [base + (1 if index < rest else 0) for index in range(parts)]


def run_load(
    config: dict, workers: int = 1
) -> Tuple[List[Dict[str, object]], int]:
    """Drive the load *config* describes (:func:`load_once`'s keys) from
    *workers* generators: the loadgen dict of each one that delivered,
    and the number that did not — one repeat's entry, and the
    ``load_failed`` count, of
    :func:`repro.api.report.report_from_loadgen`.

    One worker runs in this process, where ``config["snapshot_sinks"]``
    can be called. More fork a :class:`LoadPool` (the sinks are
    callables of this process and stay here) and split the offered load
    — open loop divides the arrival rate, closed loop divides the
    concurrency — and every worker draws from the same deterministic
    name universe under its own :func:`derive_worker_seed` seed, so the
    aggregate workload is replayable yet decorrelated across processes.
    """
    from .loadgen import LoadGenError

    if workers < 1:
        raise LoadGenError("workers must be >= 1")
    if workers == 1:
        return [asyncio.run(load_once(config))], 0
    closed = config["mode"] == "closed"
    shares = _split_evenly(config["concurrency"], workers)
    configs = [
        dict(
            config,
            snapshot_sinks=(),
            rate=config["rate"] if closed else config["rate"] / workers,
            concurrency=shares[index] if closed else config["concurrency"],
            seed=derive_worker_seed(config["seed"], index),
        )
        for index in range(workers)
        # More workers than closed-loop slots leaves some without one.
        if not closed or shares[index] > 0
    ]
    pool = LoadPool(_load_worker_main, configs)
    # A misconfiguration fails here, once and under its own name, not
    # in every worker as "every load worker failed".
    _load_side(configs[0])
    return pool.run(), len(pool.failed_workers)
