"""CLI smoke tests: every subcommand runs and prints sensible output."""

import contextlib

import pytest

from repro.cli import main


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
