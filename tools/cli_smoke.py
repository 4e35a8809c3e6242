#!/usr/bin/env python3
"""The CLI's end-to-end checks: every ``repro`` command CI runs, in one
place.

Each section drives the public CLI as a subprocess, the way an operator
does, and asserts on what it prints and writes:

* ``serve``   -- one-worker ``serve --metrics-port``, ``loadtest`` with
  and without ``--json``, the same load as ``run ...,substrate=live,
  live-host=...,live-port=...``, a ``/metrics`` + ``/healthz`` scrape,
  SIGTERM;
* ``sharded`` -- ``serve --workers 2`` against ``loadtest --workers 2``;
* ``stream``  -- ``serve --stream`` and ``loadtest --stream`` NDJSON,
  rendered by ``watch``;
* ``sweep``   -- the sweep envelope through ``sweep --json``;
* ``fleet``   -- the million-client ``run`` with its peak-RSS tripwire.

Every Report, sweep and telemetry row written is checked by
``python -m repro.api.validate``, which reads each one back with the
toolkit's own reader. CI runs one section per step;
``tools/reach.py`` runs them all under its tracer, so the CLI paths
that count as product reach are exactly the ones CI checks.

Usage: ``PYTHONPATH=src python tools/cli_smoke.py [SECTION ...]`` (all
sections when none is named). Output files land in the working
directory, where CI uploads them from.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

def repro(*arguments: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *arguments], check=True, **kwargs
    )


def validate(*paths: str) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro.api.validate", *paths],
        check=True,
    )


def exposition(path: str) -> dict:
    from repro.obs import parse_exposition

    return parse_exposition(Path(path).read_text())


class Serve:
    """``repro serve --port 0 FLAGS`` in the background: the bound port
    and the ``/metrics`` endpoint from its banner, SIGTERM on exit, and
    what it printed in :attr:`out`."""

    def __init__(self, *flags: str, duration: int = 30) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--transport",
             "udp", "--port", "0", "--duration", str(duration), *flags],
            stdout=subprocess.PIPE, text=True,
        )
        banner = self.process.stdout.readline()
        self.port = int(re.search(r"on 127\.0\.0\.1:(\d+)", banner).group(1))
        self.endpoint = None
        if "--metrics-port" in flags:
            line = self.process.stdout.readline()
            self.endpoint = re.search(r"metrics on (\S+)/metrics", line).group(1)
        self.out = banner

    def scrape(self, page: str, dest: str) -> None:
        with urllib.request.urlopen(f"{self.endpoint}/{page}", timeout=10) as r:
            Path(dest).write_bytes(r.read())

    def __enter__(self) -> "Serve":
        return self

    def __exit__(self, *exc) -> None:
        # SIGTERM drains like Ctrl-C: report, exit 0, port free at once.
        self.process.send_signal(signal.SIGTERM)
        rest, _ = self.process.communicate(timeout=30)
        self.out += rest
        if exc[0] is None:
            assert self.process.returncode == 0, self.out
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as again:
                again.bind(("127.0.0.1", self.port))

    def served(self, workers: int) -> int:
        match = re.search(
            rf"^served (\d+) queries across {workers} workers", self.out, re.M
        )
        assert match and int(match.group(1)) > 0, self.out
        return int(match.group(1))


def serve() -> None:
    with Serve("--metrics-port", "0") as server:
        port = str(server.port)
        repro("loadtest", "--transport", "udp", "--port", port, "--rate", "50",
              "--duration", "2", "--json", "live-loadtest.json")
        # Without --json: the Report summary `run` prints.
        text = repro("loadtest", "--transport", "udp", "--port", port,
                     "--rate", "50", "--duration", "1",
                     capture_output=True, text=True).stdout
        assert re.search(r"^substrate: *live", text, re.M), text
        # The other CLI entry point to the one live path: `run` of the
        # spec `loadtest` builds from its flags.
        repro("run", "transport=udp,names=50,queries=100,rate=50,cache=none,"
              f"substrate=live,live-host=127.0.0.1,live-port={port}",
              "--json", "live-run.json")
        # The default one-worker pool serves the same endpoints.
        server.scrape("metrics", "serve-metrics.txt")
        server.scrape("healthz", "serve-health.json")
    server.served(1)
    families = exposition("serve-metrics.txt")
    workers = families["repro_queries_total"]
    pool = sum(families["repro_pool_queries_total"].values())
    assert len(workers) == 1, sorted(workers)
    assert sum(workers.values()) == pool > 0, (workers, pool)
    health = json.loads(Path("serve-health.json").read_text())
    assert health["status"] == "ok" and health["workers"] == 1, health
    report = json.loads(Path("live-loadtest.json").read_text())
    metrics = report["metrics"]
    assert report["substrate"] == "live", report
    assert metrics["queries.issued"] > 0, metrics
    assert metrics["queries.success_rate"] >= 0.95, metrics
    for key in ("p50_ms", "p95_ms", "p99_ms"):
        assert metrics[f"latency.{key}"] is not None, metrics
    validate("live-loadtest.json", "live-run.json")
    run = json.loads(Path("live-run.json").read_text())
    assert sorted(run["metrics"]) == sorted(metrics), (run, metrics)
    assert {**run["spec"], "name": "loadtest"} == report["spec"], (
        run["spec"], report["spec"])
    print("loadtest ok:", metrics["throughput.qps"], "qps, p99",
          metrics["latency.p99_ms"], "ms")


def sharded() -> None:
    with Serve("--workers", "2", "--metrics-port", "0", duration=40) as server:
        repro("loadtest", "--transport", "udp", "--port", str(server.port),
              "--workers", "2", "--rate", "100", "--duration", "2",
              "--json", "live-sharded.json")
        # Scrape the pool's observability endpoints while it serves.
        server.scrape("metrics", "pool-metrics.txt")
        server.scrape("healthz", "pool-health.json")
    server.served(2)
    families = exposition("pool-metrics.txt")
    workers = families["repro_queries_total"]
    pool = sum(families["repro_pool_queries_total"].values())
    assert len(workers) == 2, sorted(workers)
    assert sum(workers.values()) == pool, (workers, pool)
    # A maximum pools as a maximum, not as the sum of two maxima.
    bursts = families["repro_io_largest_burst"]
    pool_burst = families["repro_pool_io_largest_burst"][()]
    assert len(bursts) == 2, sorted(bursts)
    assert pool_burst == max(bursts.values()), (bursts, pool_burst)
    health = json.loads(Path("pool-health.json").read_text())
    assert health["status"] == "ok" and health["workers"] == 2, health
    metrics = json.loads(Path("live-sharded.json").read_text())["metrics"]
    assert metrics["queries.issued"] > 0, metrics
    assert metrics["queries.success_rate"] >= 0.95, metrics
    assert metrics["live.workers.load.count"] == 2, metrics
    # Per-worker counters must sum to the top-level totals.
    load_sum = sum(
        value for key, value in metrics.items()
        if key.startswith("live.workers.load.") and key.endswith(".queries")
    )
    assert load_sum == metrics["queries.issued"], metrics
    validate("live-sharded.json")
    print("sharded ok:", int(pool), "pool queries across", len(workers),
          "workers;", metrics["throughput.qps"], "qps")


def stream() -> None:
    with Serve("--stream", "serve-stream.ndjson", duration=20) as server:
        # More than 4 096 queries, so the checks below cover a run
        # longer than any fixed-size latency sample.
        repro("loadtest", "--transport", "udp", "--port", str(server.port),
              "--rate", "1500", "--duration", "4", "--stream", "stream.ndjson",
              "--json", "stream-loadtest.json")
    served = server.served(1)
    lines = Path("stream.ndjson").read_text().splitlines()
    assert len(lines) >= 3, lines  # >= one snapshot per second
    Path("stream-first.json").write_text(lines[0] + "\n")
    validate("stream-first.json")
    with open("stream.ndjson") as piped:
        repro("watch", stdin=piped)
    # The serving side streams the same records: every line is valid,
    # and what it counts as succeeded is what it served.
    serve_lines = Path("serve-stream.ndjson").read_text().splitlines()
    for index, line in enumerate(serve_lines):
        Path(f"serve-stream-line-{index:03d}").write_text(line + "\n")
    validate(*(f"serve-stream-line-{i:03d}" for i in range(len(serve_lines))))
    rows = [json.loads(line) for line in serve_lines]
    succeeded = sum(row["succeeded"] for row in rows)
    assert succeeded == served > 0, (succeeded, served)
    assert any(row["qps"] > 0 for row in rows), rows

    report = json.loads(Path("stream-loadtest.json").read_text())
    telemetry = report.get("telemetry")
    assert telemetry, "report missing telemetry timeline"
    total = sum(row["queries"] for row in telemetry)
    metrics = report["metrics"]
    assert total == metrics["queries.issued"], (total, metrics["queries.issued"])
    # A stop landing on a tick writes no empty zero-length row, and rows
    # read the run's own samples: no interval's p99 is above the largest
    # latency of the run.
    counts = ("queries", "succeeded", "failed", "timeouts")
    assert not [
        row for row in telemetry
        if row["interval_s"] == 0 and not any(row[k] for k in counts)
    ], telemetry
    p99 = max(row["latency_ms"]["p99"] or 0.0 for row in telemetry)
    assert p99 <= metrics["latency.max_ms"], (p99, metrics["latency.max_ms"])
    # The rows' means, weighted by their successes, are the run's mean
    # (each rounded to a microsecond, the run's once more).
    weighted = sum(
        row["latency_ms"]["mean"] * row["succeeded"]
        for row in telemetry if row["succeeded"]
    ) / metrics["queries.succeeded"]
    assert abs(weighted - metrics["latency.mean_ms"]) <= 0.0011, (
        weighted, metrics["latency.mean_ms"])
    print("stream ok:", len(telemetry), "snapshots,", total,
          "queries accounted for;", len(rows), "serve snapshots")


def sweep() -> None:
    repro("sweep", "queries=6", "--transports", "udp,coap", "--topologies",
          "one-hop", "--losses", "0.0,0.1", "--workers", "2",
          "--json", "sweep.json")
    validate("sweep.json")


#: The million-client run's wall-clock bound on one CI core.
FLEET_TIMEOUT_S = 60


def fleet() -> None:
    # The headline acceptance path: a million-client run must finish on
    # one CI core within FLEET_TIMEOUT_S. Its peak RSS is a tripwire that does not depend on a
    # shared runner's timing: every client asks once here, so the walk
    # holds no cache state, and it records columns rather than one row
    # object per sampled query (33.8 MiB on a 2-core host with CPython
    # 3.11; 45.3 MiB with a row per query); a cache pair per sampled
    # client is about 200 MiB.
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "run",
         "one-hop,transport=coap,clients=1000000,queries=1000000,"
         "rate=100000,cache=client-dns+client-coap,substrate=fleet",
         "--json", "fleet-million.json"],
    )
    # Reaped by wait4 itself, so the peak RSS is this one child's.
    deadline = time.monotonic() + FLEET_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(child.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            child.kill()
            child.wait()
            raise AssertionError(
                f"the million-client run took over {FLEET_TIMEOUT_S} s")
        time.sleep(0.05)
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0, child.returncode
    peak_mib = usage.ru_maxrss / 1024
    assert peak_mib < 64, f"peak RSS {peak_mib:.0f} MiB"
    report = json.loads(Path("fleet-million.json").read_text())
    metrics = report["metrics"]
    assert report["substrate"] == "fleet", report
    assert metrics["fleet.clients"] == 1_000_000, metrics
    assert metrics["queries.issued"] == 1_000_000, metrics
    assert metrics["queries.success_rate"] >= 0.95, metrics
    for key in ("p50_ms", "p95_ms", "p99_ms"):
        assert metrics[f"latency.{key}"] is not None, metrics
    assert metrics["fleet.sample.scale"] > 1, metrics
    validate("fleet-million.json")
    print("fleet ok:", metrics["queries.issued"], "queries from",
          metrics["fleet.clients"], "clients; p99", metrics["latency.p99_ms"],
          "ms; peak RSS", round(peak_mib), "MiB")


SECTIONS = {f.__name__: f for f in (serve, sharded, stream, sweep, fleet)}


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or list(SECTIONS)
    unknown = [name for name in names if name not in SECTIONS]
    if unknown:
        print(f"error: unknown section(s) {unknown}; one of {list(SECTIONS)}",
              file=sys.stderr)
        return 2
    for name in names:
        print(f"== {name}", flush=True)
        SECTIONS[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
