"""CLI smoke tests: every subcommand runs and prints sensible output."""

import contextlib
import os
import re
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.live.workers import _load_worker_main, reuseport_supported

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_dissect(capsys):
    assert main(["dissect", "--transport", "oscore"]) == 0
    out = capsys.readouterr().out
    assert "response_aaaa" in out
    assert "FRAGMENTED" in out


def test_dissect_get_method(capsys):
    assert main(["dissect", "--transport", "coap", "--method", "get"]) == 0
    assert "query" in capsys.readouterr().out


def test_resolve(capsys):
    assert main(["resolve", "--names", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("ms") == 2
    assert "FAILED" not in out


def test_experiment(capsys):
    # A Figure 7-style run is one spec string.
    assert main(["run", "transport=udp,queries=10,loss=0.05"]) == 0
    out = capsys.readouterr().out
    assert "success rate:     100.00%" in out
    assert "latency p50:" in out


def test_failure_line_counts_every_failure(capsys):
    # A failure that is neither a timeout nor an rcode failure still
    # shows on the summary's failure line.
    import asyncio

    from repro.api.report import report_from_loadgen
    from repro.cli import _print_report
    from repro.live import generate_load

    class Failing:
        transport_name = "udp"

        async def resolve(self, name, rtype, timeout=None):
            raise ValueError("unclassified")

        def stats(self):
            return {}

    loadgen = asyncio.run(generate_load(
        Failing(), ["name.example"], rate=1.0, duration=1.0, seed=1,
    ))
    _print_report(report_from_loadgen(loadgen))
    assert (
        "(0 timeouts, 0 rcode failures, 1 other)"
        in capsys.readouterr().out
    )


def test_memory(capsys):
    assert main(["memory"]) == 0
    out = capsys.readouterr().out
    assert "OSCORE" in out and "QUIC" in out


def test_compress(capsys):
    assert main(["compress", "--name", "name0000.example-iot.org"]) == 0
    out = capsys.readouterr().out
    assert "wire  70 B" in out


def test_experiment_scenario_flag(capsys):
    # Preset name first, overrides after.
    assert main(["run", "one-hop,queries=8,loss=0.0"]) == 0
    out = capsys.readouterr().out
    assert "success rate:     100.00%" in out


def test_experiment_sweep(capsys):
    assert main([
        "sweep", "queries=4", "--transports", "udp,coap",
        "--topologies", "one-hop", "--losses", "0.0",
    ]) == 0
    out = capsys.readouterr().out
    assert out.count("one-hop") == 2
    assert "udp" in out and "coap" in out


def test_experiment_sweep_workers(capsys):
    assert main([
        "sweep", "queries=4", "--transports", "udp,coap",
        "--topologies", "one-hop", "--losses", "0.0", "--workers", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert out.count("one-hop") == 2


def test_workers_requires_sweep(capsys):
    # `run` takes its worker count in the spec (workers=N); the flag
    # exists on `sweep` only, where it must be a real count.
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "queries=4", "--workers", "4"])
    assert exit_info.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert main(["sweep", "queries=4", "--workers", "0"]) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err


def test_sweep_rejects_single_loss_flag(capsys):
    assert main(["sweep", "queries=4,loss=0.1"]) == 2
    assert "--losses" in capsys.readouterr().err


def test_sweep_rejects_single_transport_flag(capsys):
    assert main(["sweep", "transport=oscore"]) == 2
    assert "--transports" in capsys.readouterr().err


def test_sweep_flags_require_sweep(capsys):
    for flags in (["--transports", "udp,oscore"], ["--losses", "0.1"]):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "queries=4", *flags])
        assert exit_info.value.code == 2
        assert flags[0] in capsys.readouterr().err


def test_scenario_errors_are_clean(capsys):
    for command in ("run", "sweep"):
        assert main([command, "hops=0"]) == 2
        assert capsys.readouterr().err.startswith("error:")
    assert main(["run", "transport=tcp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "udp" in err  # lists the known transports


def test_dissect_sweep_covers_quic(capsys):
    assert main(["dissect", "--sweep"]) == 0
    out = capsys.readouterr().out
    assert "QUIC (model)" in out
    assert "OSCORE" in out


def test_resolve_scenario_flag(capsys):
    assert main(["resolve", "--scenario", "three-hop,loss=0.0",
                 "--names", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("ms") == 2
    assert "FAILED" not in out


def test_resolve_prints_one_line_per_query(capsys):
    # The name, the client that asked, and the time or the failure.
    assert main(["resolve", "--scenario", "one-hop,loss=0.95,retries=0",
                 "--transport", "udp", "--names", "2", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "  name0000.example-iot.org     c1     FAILED: DnsTimeoutError",
        "  name0001.example-iot.org     c2     FAILED: DnsTimeoutError",
    ]
    assert main(["resolve", "--names", "3", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        [f"name000{index}.example-iot.org", f"c{index % 2 + 1}"]
        for index in range(3)
    ]
    assert all(re.fullmatch(r".* +\d+\.\d ms", line) for line in lines)


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_serve_bounded_duration(capsys):
    assert main([
        "serve", "--transport", "udp", "--port", "0", "--duration", "0.2",
    ]) == 0
    out = capsys.readouterr().out
    assert "serving DNS over udp" in out
    assert "served 0 queries" in out


# -- `serve` as the process CI and operators run ---------------------------


def _spawn_serve(*flags):
    """``repro serve --port 0 --duration 30 FLAGS`` as a subprocess, read
    up to its banner: ``(process, port)``. The banner is printed once
    the pool is up and the signal handling is in place."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--duration", "30", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=REPO, env=dict(os.environ, PYTHONPATH=os.path.join(REPO, "src")),
    )
    banner = process.stdout.readline()
    match = re.search(r"serving DNS over \w+ on 127\.0\.0\.1:(\d+)", banner)
    if match is None:
        process.kill()
        pytest.fail(f"no serve banner: {banner!r} {process.stderr.read()!r}")
    return process, int(match.group(1))


def _proc_stat(pid):
    """``(state, ppid)`` of *pid* from /proc, or ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            state, ppid = stat.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None
    return state, int(ppid)


def _children(pid):
    return [
        int(entry) for entry in os.listdir("/proc")
        if entry.isdigit() and (_proc_stat(entry) or ("", 0))[1] == pid
    ]


def _gone_within(pids, seconds):
    """Whether every one of *pids* has exited (a zombie waiting for its
    reaper has) before *seconds* are up."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if all((_proc_stat(pid) or ("Z",))[0] == "Z" for pid in pids):
            return True
        time.sleep(0.02)
    return False


needs_pool_of_two = pytest.mark.skipif(
    not (os.path.isdir("/proc/self") and reuseport_supported()),
    reason="needs /proc and SO_REUSEPORT",
)


@needs_pool_of_two
def test_serve_sigterm_drains_reports_and_leaves_no_worker():
    process, port = _spawn_serve("--workers", "2")
    workers = _children(process.pid)
    assert len(workers) == 2
    process.send_signal(signal.SIGTERM)
    out, err = process.communicate(timeout=20)
    assert process.returncode == 0, err
    assert "served 0 queries across 2 workers (0 + 0;" in out
    assert _gone_within(workers, 2.0)
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as again:
        again.bind(("127.0.0.1", port))  # free at once


@needs_pool_of_two
def test_serve_workers_do_not_outlive_a_killed_parent():
    process, _port = _spawn_serve("--workers", "2")
    workers = _children(process.pid)
    assert len(workers) == 2
    process.kill()  # no handler runs: only the pipes hanging up is left
    process.communicate(timeout=20)
    assert process.returncode == -signal.SIGKILL
    assert _gone_within(workers, 2.0)


def _http_get(port, path):
    import http.client

    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read().decode()
    finally:
        connection.close()


@pytest.mark.parametrize("workers", [
    1, pytest.param(2, marks=needs_pool_of_two),
])
def test_serve_scrapes_streams_and_reports(workers, tmp_path, capsys):
    import json

    from repro.obs.metrics import parse_exposition
    from repro.obs.telemetry import validate_snapshot

    stream = tmp_path / "serve.ndjson"
    process, port = _spawn_serve(
        "--workers", str(workers), "--names", "8",
        "--metrics-port", "0", "--stream", str(stream),
    )
    try:
        metrics_port = int(re.search(
            r"metrics on http://127\.0\.0\.1:(\d+)/metrics",
            process.stdout.readline(),
        ).group(1))
        assert main([
            "loadtest", "--port", str(port), "--names", "8",
            "--rate", "80", "--duration", "0.6", "--timeout", "5", "--json",
        ]) == 0
        issued = json.loads(capsys.readouterr().out)["metrics"][
            "queries.issued"
        ]

        status, body = _http_get(metrics_port, "/metrics")
        assert status == 200
        families = parse_exposition(body)
        per_worker = families["repro_queries_total"]
        assert sorted(dict(labels)["worker"] for labels in per_worker) == [
            str(index) for index in range(workers)
        ]
        pool_total = sum(families["repro_pool_queries_total"].values())
        assert sum(per_worker.values()) == pool_total
        assert pool_total == issued > 0

        status, body = _http_get(metrics_port, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["workers"] == health["alive"] == workers

        def snapshots():
            return [
                json.loads(line) for line in stream.read_text().splitlines()
            ]

        # The sampler ticks once a second: the tick after the load
        # ended has counted all of it.
        deadline = time.monotonic() + 3.0
        while (
            sum(snapshot["queries"] for snapshot in snapshots()) < issued
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
    finally:
        process.send_signal(signal.SIGTERM)
        out, err = process.communicate(timeout=20)
    assert process.returncode == 0, err
    report = re.search(
        r"served (\d+) queries across (\d+) workers \(([\d+ ]+);", out
    )
    assert int(report.group(1)) == issued
    assert int(report.group(2)) == workers
    assert sum(map(int, report.group(3).split(" + "))) == issued
    for snapshot in snapshots():
        validate_snapshot(snapshot)
    assert sum(snapshot["queries"] for snapshot in snapshots()) == issued
    # What a server answered is what it reports as succeeded.
    assert sum(snapshot["succeeded"] for snapshot in snapshots()) == issued
    assert any(snapshot["qps"] > 0 for snapshot in snapshots())


def test_serve_on_a_busy_port_is_a_cli_error(capsys):
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as holder:
        holder.bind(("127.0.0.1", 0))
        assert main([
            "serve", "--port", str(holder.getsockname()[1]),
            "--duration", "0.1",
        ]) == 2
    err = capsys.readouterr().err
    assert "error: serve worker 0 failed to start: OSError" in err
    assert "in use" in err


@contextlib.contextmanager
def _inline_server():
    """A CoAP server in a background thread with its own event loop
    (the loadtest CLI runs in the caller's); yields its port."""
    import asyncio
    import threading

    from repro.live import DocLiveServer

    endpoint = {}
    ready = threading.Event()
    done = threading.Event()

    def serve() -> None:
        async def run() -> None:
            server = DocLiveServer(transport="coap", port=0, num_names=8)
            async with server:
                endpoint["port"] = server.endpoint[1]
                ready.set()
                while not done.is_set():
                    await asyncio.sleep(0.02)

        asyncio.run(run())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(timeout=10)
    try:
        yield endpoint["port"]
    finally:
        done.set()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _loadtest_json(capsys, *extra) -> dict:
    """The `loadtest --json` Report of a short run against an inline
    server."""
    import json

    with _inline_server() as port:
        assert main([
            "loadtest", "--transport", "coap", "--port", str(port),
            "--names", "8", "--rate", "80", "--duration", "0.4",
            "--timeout", "5", *extra, "--json",
        ]) == 0
    return json.loads(capsys.readouterr().out)


def test_loadtest_against_inline_server(capsys):
    report = _loadtest_json(capsys)
    # --json now emits the unified Report document.
    assert report["substrate"] == "live"
    assert report["metrics"]["queries.success_rate"] >= 0.95
    assert report["metrics"]["latency.p50_ms"] is not None
    assert report["spec"]["transport"] == "coap"


#: The metric keys of a `loadtest --json` Report, banked at PR 16 (where
#: the CLI wired resolver and load generator by hand): going through
#: `live.workers.load_once` may not add or drop one.
LOADTEST_METRIC_KEYS = [
    "latency.max_ms", "latency.mean_ms", "latency.p50_ms", "latency.p95_ms",
    "latency.p99_ms", "live.concurrency", "live.elapsed_s", "live.mode",
    "live.offered_rate_qps", "live.repeats", "queries.failed",
    "queries.issued", "queries.rcode_failures", "queries.succeeded",
    "queries.success_rate", "queries.timeouts", "throughput.qps",
]
LOADTEST_TWO_WORKER_METRIC_KEYS = sorted(
    LOADTEST_METRIC_KEYS
    + ["live.workers.load.count", "live.workers.load.failed"]
    + [
        f"live.workers.load.{worker}.{counter}"
        for worker in (0, 1)
        for counter in ("achieved_qps", "failed", "queries",
                        "rcode_failures", "succeeded", "timeouts")
    ]
)


@pytest.mark.parametrize("workers, expected", [
    (1, LOADTEST_METRIC_KEYS), (2, LOADTEST_TWO_WORKER_METRIC_KEYS),
])
def test_loadtest_report_metric_keys(capsys, workers, expected):
    report = _loadtest_json(capsys, "--workers", str(workers))
    assert sorted(report) == [
        "metrics", "provenance", "report_version", "spec", "substrate",
        "telemetry",
    ]
    assert sorted(report["metrics"]) == expected
    assert report["metrics"]["queries.success_rate"] >= 0.95
    assert report["spec"]["live"]["load_workers"] == workers


@pytest.mark.parametrize("mode", ["open", "closed"])
def test_loadtest_is_the_run_of_its_spec(capsys, mode):
    # `loadtest` is a live RunSpec handed to repro.api.run: the `run` of
    # the same flags as spec keys, against the same server, reports the
    # same metric keys and the same spec. The spec states the planned
    # load, 32 queries at 80/s, whatever number the run issued (a closed
    # loop issues as many as its workers complete in 0.4 s).
    import json

    with _inline_server() as port:
        assert main([
            "loadtest", "--transport", "coap", "--port", str(port),
            "--names", "8", "--rate", "80", "--duration", "0.4",
            "--mode", mode, "--concurrency", "2", "--timeout", "5", "--json",
        ]) == 0
        loadtest = json.loads(capsys.readouterr().out)
        assert main([
            "run",
            "transport=coap,names=8,queries=32,rate=80,cache=none,seed=1,"
            f"substrate=live,live-host=127.0.0.1,live-port={port},"
            f"mode={mode},concurrency=2,timeout=5",
            "--json",
        ]) == 0
        run = json.loads(capsys.readouterr().out)
    assert sorted(loadtest["metrics"]) == sorted(run["metrics"])
    assert loadtest["spec"]["workload"]["num_queries"] == 32
    assert loadtest["spec"]["workload"]["query_rate"] == 80
    assert loadtest["spec"].pop("name") == "loadtest"
    run["spec"].pop("name")
    assert loadtest["spec"] == run["spec"]
    assert "secret" not in json.dumps(loadtest["spec"])


def test_loadtest_prints_the_report_summary_run_prints(capsys):
    with _inline_server() as port:
        assert main([
            "loadtest", "--transport", "coap", "--port", str(port),
            "--names", "8", "--rate", "80", "--duration", "0.4",
            "--timeout", "5", "--workers", "2",
        ]) == 0
    out = capsys.readouterr().out
    assert "substrate:        live" in out
    assert "transport:        coap" in out
    assert re.search(r"^loop: +open, [\d.]+ s elapsed$", out, re.M)
    assert "latency p50:" in out
    assert re.search(r"^load workers: +#0 [\d.]+ qps, #1 [\d.]+ qps$", out,
                     re.M)


def _load_worker_one_dies(index, config, conn):
    if index == 1:
        os._exit(3)  # before it reports
    _load_worker_main(index, config, conn)


def test_loadtest_that_loses_a_generator_says_so_and_exits_1(
    capsys, monkeypatch
):
    import json

    from repro.live import workers

    monkeypatch.setattr(workers, "_load_worker_main", _load_worker_one_dies)
    with _inline_server() as port:
        assert main([
            "loadtest", "--transport", "coap", "--port", str(port),
            "--names", "8", "--rate", "80", "--duration", "0.4",
            "--timeout", "5", "--workers", "2", "--json",
        ]) == 1
    captured = capsys.readouterr()
    assert "warning: 1 of 2 load workers failed" in captured.err
    metrics = json.loads(captured.out)["metrics"]
    assert metrics["live.workers.load.failed"] == 1
    assert metrics["live.workers.load.count"] == 1
    # Only what the survivor offered and counted is reported.
    assert metrics["live.offered_rate_qps"] == 40.0
    assert metrics["queries.issued"] > 0
    for total, counter in [
        ("issued", "queries"), ("succeeded", "succeeded"),
        ("failed", "failed"), ("timeouts", "timeouts"),
        ("rcode_failures", "rcode_failures"),
    ]:
        assert (
            metrics[f"queries.{total}"]
            == metrics[f"live.workers.load.0.{counter}"]
        )
    assert metrics["throughput.qps"] == (
        metrics["live.workers.load.0.achieved_qps"]
    )


def test_run_sim_human_summary(capsys):
    assert main(["run", "one-hop,transport=coap,queries=6,loss=0.0"]) == 0
    out = capsys.readouterr().out
    assert "substrate:        sim" in out
    assert "latency p50:" in out


def test_run_emits_report_json(capsys):
    import json

    assert main([
        "run", "one-hop,transport=udp,queries=6,loss=0.0", "--json",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["substrate"] == "sim"
    assert report["metrics"]["queries.issued"] == 6
    assert report["spec"]["topology"]["name"] == "one-hop"


def test_run_live_substrate_self_serves(capsys):
    import json

    assert main([
        "run",
        "transport=udp,queries=6,loss=0.0,rate=100,substrate=live,timeout=5",
        "--json",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["substrate"] == "live"
    assert report["metrics"]["queries.succeeded"] > 0


def test_run_bad_spec_is_cli_error(capsys):
    assert main(["run", "substrate=quantum"]) == 2
    assert "substrate" in capsys.readouterr().err


def test_experiment_json_emits_report(capsys):
    import json

    # The default Figure 2 topology (no preset named).
    assert main(["run", "transport=udp,queries=6,loss=0.0", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["substrate"] == "sim"
    assert report["metrics"]["queries.issued"] == 6
    assert report["spec"]["topology"]["name"] == "figure2"


def test_experiment_sweep_json_uses_string_grid_keys(capsys):
    import json

    assert main([
        "sweep", "queries=4", "--transports", "udp,coap",
        "--topologies", "one-hop", "--losses", "0.0", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "sweep"
    assert sorted(payload["cells"]) == ["coap/one-hop/0", "udp/one-hop/0"]
    cell = payload["cells"]["udp/one-hop/0"]
    assert cell["metrics"]["queries.issued"] == 4


def test_loadtest_unknown_scheme_is_cli_error(capsys):
    with pytest.raises(SystemExit):
        main([
            "loadtest", "--cache-scheme", "bogus", "--duration", "0.1",
        ])


def test_workers_below_one_is_cli_error(capsys):
    assert main(["serve", "--workers", "0", "--duration", "0.1"]) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err
    assert main(["loadtest", "--workers", "-1", "--duration", "0.1"]) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err
