"""The unified ``repro.api`` façade: RunSpec, Report, its reader, parity.

One RunSpec executes on every substrate with identical non-namespaced
metric key sets, every emitted JSON document reads back through
:meth:`Report.from_json` (a sweep through ``sweep_from_json``), which
checks it, and the façade's raw result is the direct ScenarioRunner
execution, bit for bit.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import (
    ApiError,
    Report,
    ReportError,
    REPORT_VERSION,
    RunSpec,
    provenance,
    report_from_experiment_result,
    run,
    sweep,
    sweep_from_json,
    sweep_to_json,
)

#: One small scenario shared by the sim/live parity tests: a transport
#: both substrates can run, a client-side cache, no proxy.
PARITY_SPEC = "transport=coap,queries=8,loss=0.0,rate=100,cache=client-dns"


def run_sim(spec_text: str = PARITY_SPEC, **overrides) -> Report:
    return run(RunSpec.from_spec(spec_text, base=RunSpec(**overrides)))


# -- RunSpec ---------------------------------------------------------------


class TestRunSpec:
    def test_from_spec_parses_api_keys(self):
        spec = RunSpec.from_spec(
            "one-hop,transport=oscore,queries=12,substrate=live,"
            "repeats=3,workers=2,mode=closed,concurrency=4,timeout=2.5"
        )
        assert spec.substrate == "live"
        assert spec.repeats == 3
        assert spec.workers == 2
        assert spec.live.mode == "closed"
        assert spec.live.concurrency == 4
        assert spec.live.timeout == 2.5
        assert spec.scenario.transport == "oscore"
        assert spec.scenario.workload.num_queries == 12
        assert spec.scenario.topology.name == "one-hop"

    def test_from_spec_defaults_to_sim(self):
        spec = RunSpec.from_spec("figure7")
        assert spec.substrate == "sim"
        assert spec.repeats == 1

    def test_unknown_substrate_rejected(self):
        with pytest.raises(ApiError):
            RunSpec.from_spec("substrate=quantum")

    def test_live_rejects_non_live_transport(self):
        # quic is model-only; the scenario layer rejects it before the
        # substrate check can.
        from repro.scenarios import ScenarioError

        with pytest.raises(ScenarioError):
            RunSpec.from_spec("transport=quic,substrate=live")

    def test_live_rejects_proxy_placement(self):
        with pytest.raises(ApiError):
            RunSpec.from_spec("transport=coap,cache=proxy,substrate=live")

    def test_live_rejects_explicit_proxy_cache_without_forwarder(self):
        # An explicit placement naming the proxy must not silently
        # degrade to a client-only live run even when the scenario's
        # use_proxy flag is off.
        from repro.scenarios import CachingSpec, Scenario

        scenario = Scenario(
            transport="coap",
            caching=CachingSpec.from_placement("proxy+client-dns"),
        )
        with pytest.raises(ApiError):
            RunSpec(scenario=scenario, substrate="live")
        # ...while the implicit caching_spec default (proxy=True but no
        # caching given, no forwarder) stays accepted.
        assert RunSpec(
            scenario=Scenario(transport="coap"), substrate="live"
        ).client_cache_placement() == "none"

    def test_repeat_seeds_are_spaced_by_1000(self):
        spec = RunSpec.from_spec("seed=7,repeats=3")
        assert spec.repeat_seeds() == [7, 1007, 2007]

    def test_client_cache_placement_strips_proxy(self):
        spec = RunSpec.from_spec("transport=coap,cache=all,proxy=false")
        assert spec.client_cache_placement() == "client-dns+client-coap"
        assert RunSpec.from_spec("").client_cache_placement() == "none"

    def test_to_dict_is_json_ready(self):
        payload = RunSpec.from_spec("figure7,cache=client-coap").to_dict()
        json.dumps(payload)
        assert payload["topology"]["loss"] == 0.25
        assert payload["caching"]["placement"] == "client-coap"


# -- Report ----------------------------------------------------------------


class TestReport:
    def test_round_trip(self):
        report = run_sim()
        clone = Report.from_json(
            json.loads(json.dumps(report.to_json()))
        )
        assert clone == Report.from_json(report.to_json())
        assert clone.metrics == report.metrics
        assert clone.spec == report.spec
        assert clone.substrate == report.substrate
        assert clone.report_version == REPORT_VERSION

    def test_from_json_rejects_missing_keys(self):
        with pytest.raises(ReportError):
            Report.from_json({"substrate": "sim"})
        with pytest.raises(ReportError):
            Report.from_json({
                "report_version": "two", "substrate": "sim",
                "spec": {}, "metrics": {},
            })

    def test_unknown_substrate_rejected(self):
        with pytest.raises(ReportError):
            Report(substrate="testbed", spec={}, metrics={})

    def test_sim_report_metrics_and_schema(self):
        report = run_sim()
        metrics = report.metrics
        assert metrics["queries.issued"] == 8
        assert metrics["queries.success_rate"] == 1.0
        assert metrics["latency.p50_ms"] <= metrics["latency.p95_ms"]
        assert metrics["sim.link.frames_1hop"] > 0
        assert "cache.client_dns.hit_ratio" in metrics
        Report.from_json(report.to_json())

    def test_raw_keeps_native_result_and_skips_equality(self):
        from repro.scenarios import ExperimentResult

        report = run_sim()
        assert isinstance(report.raw, ExperimentResult)
        assert Report.from_json(report.to_json()).raw is None
        assert Report.from_json(report.to_json()) == Report.from_json(
            report.to_json()
        )

    def test_provenance_stamp_shape(self):
        stamp = provenance()
        assert set(stamp) == {"python", "platform", "git"}
        assert all(isinstance(value, str) for value in stamp.values())

    def test_repeats_pool_samples(self):
        single = run_sim("queries=4,loss=0.0")
        pooled = run(RunSpec.from_spec("queries=4,loss=0.0,repeats=3"))
        assert pooled.metrics["sim.repeats"] == 3
        assert pooled.metrics["queries.issued"] == 3 * single.metrics[
            "queries.issued"
        ]
        assert isinstance(pooled.raw, list) and len(pooled.raw) == 3

    def test_pooled_qps_averages_per_run_rates(self):
        # Every repetition restarts the simulated clock; pooling must
        # average the per-run rates, not divide the pooled count by a
        # single run's span (which would inflate qps ~linearly with
        # repeats).
        spec_text = "queries=6,loss=0.0,transport=udp"
        pooled = run(RunSpec.from_spec(spec_text + ",repeats=3"))
        singles = [
            run(RunSpec.from_spec(spec_text, base=RunSpec(seed=seed)))
            for seed in RunSpec.from_spec(spec_text + ",repeats=3").repeat_seeds()
        ]
        mean_qps = sum(r.metrics["throughput.qps"] for r in singles) / 3
        assert pooled.metrics["throughput.qps"] == pytest.approx(
            mean_qps, abs=0.01
        )

    def test_loadgen_pooled_cache_ratios_match_cachestats_semantics(self):
        from repro.api import report_from_loadgen

        base = {
            "mode": "open", "offered_rate_qps": 10.0, "concurrency": None,
            "elapsed_s": 1.0, "achieved_qps": 10.0,
            "queries": 10, "succeeded": 10, "failed": 0,
            "timeouts": 0, "rcode_failures": 0,
            "latencies_s": [0.001] * 10,
            "cache": {"client_dns": {
                "hits": 4, "misses": 4, "stale_hits": 2, "validations": 2,
                "validation_failures": 0,
            }},
        }
        report = report_from_loadgen([base, base])
        metrics = report.metrics
        # CacheStats semantics: hit/stale ratios over lookups,
        # validation_ratio per *stale hit* (not per lookup).
        assert metrics["cache.client_dns.hit_ratio"] == pytest.approx(0.4)
        assert metrics["cache.client_dns.stale_ratio"] == pytest.approx(0.2)
        assert metrics["cache.client_dns.validation_ratio"] == pytest.approx(
            1.0
        )
        assert metrics["queries.issued"] == 20


# -- the acceptance criterion: one spec, two substrates --------------------


class TestSubstrateParity:
    def test_all_substrates_report_identical_common_keys(self):
        sim_report = run(RunSpec.from_spec(PARITY_SPEC))
        live_report = run(
            RunSpec.from_spec(PARITY_SPEC + ",substrate=live,timeout=5")
        )
        fleet_report = run(
            RunSpec.from_spec(PARITY_SPEC + ",substrate=fleet")
        )
        assert sim_report.substrate == "sim"
        assert live_report.substrate == "live"
        assert fleet_report.substrate == "fleet"
        assert (
            sorted(sim_report.common_metrics())
            == sorted(live_report.common_metrics())
            == sorted(fleet_report.common_metrics())
        )
        Report.from_json(sim_report.to_json())
        Report.from_json(live_report.to_json())
        Report.from_json(fleet_report.to_json())
        # All substrates resolved real queries against the same
        # deterministic name universe.
        assert live_report.metrics["queries.succeeded"] > 0
        assert live_report.metrics["live.elapsed_s"] > 0
        assert fleet_report.metrics["queries.succeeded"] > 0

    def test_live_repeats_sum_server_counters(self):
        # Each live repeat restarts the loopback server; the pooled
        # Report must sum the per-repeat server counters, not keep only
        # the final instance's (which would undercount by ~repeats x).
        report = run(RunSpec.from_spec(
            "transport=udp,queries=5,rate=100,substrate=live,"
            "timeout=5,repeats=2"
        ))
        metrics = report.metrics
        assert metrics["live.repeats"] == 2
        # Open-loop arrivals beyond the offered window are truncated,
        # so issued can fall slightly short of 2 x num_queries — but it
        # must pool both repeats, and the summed server-side counters
        # must cover every client-side success.
        assert metrics["queries.issued"] > 5
        assert (
            metrics["live.server.queries_handled"]
            >= metrics["queries.succeeded"]
        )

    def test_live_repeats_pool_every_server_counter(self, monkeypatch):
        # The Report shows four server counters; the block behind them
        # must pool the rest across repeats too — every query the
        # pooled block counts went through one fastpath lookup, which
        # only adds up when fastpath_* sum like queries_handled does.
        import repro.api.runner as runner

        seen = {}
        real = runner.report_from_loadgen

        def spy(reports, server_stats=None, **kwargs):
            seen["server_stats"] = server_stats
            return real(reports, server_stats=server_stats, **kwargs)

        monkeypatch.setattr(runner, "report_from_loadgen", spy)
        run(RunSpec.from_spec(
            "transport=coap,queries=20,rate=200,names=4,substrate=live,"
            "timeout=5,repeats=2"
        ))
        stats = seen["server_stats"]
        assert stats["queries_handled"] > 20
        assert (
            stats["fastpath_hits"] + stats["fastpath_misses"]
            == stats["queries_handled"]
        )
        assert stats["io"]["recv_bursts"] >= stats["queries_handled"] / 64

    def test_live_report_namespaces_server_counters(self):
        live_report = run(
            RunSpec.from_spec(
                "transport=udp,queries=6,rate=100,substrate=live,timeout=5"
            )
        )
        assert live_report.metrics["live.server.queries_handled"] >= 0
        assert "live.cache.resolver.hit_ratio" in live_report.metrics
        Report.from_json(live_report.to_json())


@pytest.mark.parametrize("spec", (
    # Frame loss without link-layer retries: a quarter of the queries
    # time out, on the exact simulator and on an unscaled fleet.
    "one-hop,transport=coap,clients=4,queries=40,rate=10,loss=0.35,"
    "retries=0",
    "one-hop,transport=coap,clients=200,queries=2000,rate=200,names=12,"
    "loss=0.35,retries=0,substrate=fleet",
))
def test_telemetry_rows_add_up_to_the_query_counters(spec):
    # The rows and the counters classify failures with one function, so
    # the per-second series sums to the run's totals.
    report = run(RunSpec.from_spec(spec))
    metrics = report.metrics
    assert metrics["queries.timeouts"] > 0
    assert metrics.get("fleet.sample.scale", 1.0) == 1.0
    for row_key, metric in (
        ("queries", "queries.issued"),
        ("succeeded", "queries.succeeded"),
        ("timeouts", "queries.timeouts"),
    ):
        assert sum(row[row_key] for row in report.telemetry) == (
            metrics[metric]
        ), row_key


# -- the façade adds nothing to the run -------------------------------------


class TestFacadeRawResult:
    def test_raw_is_the_direct_runner_result(self):
        from repro.scenarios import ScenarioRunner, scenario_from_spec

        scenario = scenario_from_spec(
            "transport=coap,queries=10,loss=0.1,seed=5"
        )
        via_api = run(RunSpec.from_scenario(scenario)).raw
        direct = ScenarioRunner().run(scenario)
        assert via_api.scenario is scenario
        assert via_api.outcomes == direct.outcomes
        assert via_api.link == direct.link
        assert via_api.client_events == direct.client_events
        assert via_api.cache_stats == direct.cache_stats
        assert via_api.proxy_cache_hits == direct.proxy_cache_hits


# -- sweeps ----------------------------------------------------------------


class TestSweepJson:
    @pytest.fixture(scope="class")
    def reports(self):
        from repro.scenarios import Scenario, WorkloadSpec

        base = Scenario(workload=WorkloadSpec(num_queries=4))
        return sweep(
            base, transports=("udp", "coap"),
            topologies=("one-hop",), losses=(0.0,),
        )

    def test_cell_metrics_gain_p99_and_mean(self, reports):
        for report in reports.values():
            metrics = report.metrics
            assert (
                metrics["latency.p50_ms"] <= metrics["latency.p95_ms"]
                <= metrics["latency.p99_ms"] <= metrics["latency.max_ms"]
            )
            assert (
                metrics["latency.p50_ms"] <= metrics["latency.mean_ms"]
                <= metrics["latency.max_ms"]
            )

    def test_to_json_uses_string_grid_keys(self, reports):
        payload = sweep_to_json(reports)
        json.dumps(payload)  # serialisable as-is
        assert payload["report_version"] == REPORT_VERSION
        assert payload["kind"] == "sweep"
        assert sorted(payload["cells"]) == ["coap/one-hop/0", "udp/one-hop/0"]
        assert sweep_from_json(json.loads(json.dumps(payload))) == reports

    def test_cell_reports_are_unified(self, reports):
        report = reports["udp/one-hop/0"]
        assert report.substrate == "sim"
        assert report.spec["transport"] == "udp"
        assert report.metrics["queries.issued"] == 4


# -- loadgen stamp ---------------------------------------------------------


def test_loadgen_shares_the_report_version():
    from repro.api.report import REPORT_VERSION as shared
    from repro.live.loadgen import REPORT_VERSION as loadgen_version

    assert loadgen_version == shared


# -- the reader ---------------------------------------------------------------


class TestSchemaValidator:
    """What :meth:`Report.from_json` and ``python -m repro.api.validate``
    check: the Report's schema, in code."""

    def test_rejects_wrong_type_with_path(self):
        payload = run_sim("queries=4,loss=0.0").to_json()
        payload["metrics"]["sim.link.frames_1hop"] = "three"
        with pytest.raises(ReportError) as excinfo:
            Report.from_json(payload)
        assert "sim.link.frames_1hop" in str(excinfo.value)

    def test_bool_is_not_a_number(self):
        payload = run_sim("queries=4,loss=0.0").to_json()
        for key, value in (("report_version", True),
                           ("metrics", {**payload["metrics"],
                                        "sim.repeats": True})):
            with pytest.raises(ReportError):
                Report.from_json({**payload, key: value})

    def test_additional_properties_false(self):
        payload = run_sim("queries=4,loss=0.0").to_json()
        for where in (payload, payload["provenance"], payload["telemetry"][0],
                      payload["telemetry"][0]["latency_ms"]):
            where["surprise"] = 1
            with pytest.raises(ReportError):
                Report.from_json(payload)
            del where["surprise"]
        Report.from_json(payload)

    def test_pattern_properties_apply(self):
        # A {placeholder} row matches each of its instances, and only
        # with a value of its unit.
        live = {
            "live.workers.load.0.queries": 3,
            "live.workers.load.17.queries": 4,
        }
        payload = run_sim("queries=4,loss=0.0").to_json()
        payload["substrate"] = "live"
        payload["metrics"] = {
            key: value for key, value in payload["metrics"].items()
            if not key.startswith("sim.")
        }
        Report.from_json({**payload, "metrics": {**payload["metrics"], **live}})
        for key, value in (("live.workers.load.0.queries", 1.5),
                           ("live.workers.load.x.queries", 3),
                           ("live.workers.load.0.bogus", 3)):
            with pytest.raises(ReportError):
                Report.from_json(
                    {**payload, "metrics": {**payload["metrics"], key: value}}
                )

    def test_one_of_requires_exactly_one_match(self, tmp_path):
        # A document reads as one kind: a Report with a sweep's kind is
        # read as a sweep, and fails.
        from repro.api.validate import main

        payload = run_sim("queries=4,loss=0.0").to_json()
        path = tmp_path / "report.json"
        path.write_text(json.dumps({**payload, "kind": "sweep"}))
        assert main([str(path)]) == 1

    def test_validate_cli_on_real_artifacts(self, tmp_path, capsys):
        from repro.api.validate import main

        report = run_sim("queries=4,loss=0.0")
        good = tmp_path / "good.json"
        good.write_text(json.dumps(report.to_json()))
        bad = tmp_path / "bad.json"
        payload = report.to_json()
        payload["metrics"]["bogus key"] = 1
        bad.write_text(json.dumps(payload))
        assert main([str(good)]) == 0
        assert main([str(good), str(bad)]) == 1
        err = capsys.readouterr().err
        assert "bogus key" in err
        assert main([]) == 2
        assert main([str(tmp_path / "absent.json")]) == 2


def test_schema_substrates_stay_in_sync_with_the_enum():
    # SUBSTRATES (repro.api.report) is the single source of truth: the
    # reader takes exactly those names, and each one has rows of its
    # own namespace in the table.
    from repro.api.report import REPORT_METRICS, SUBSTRATES

    payload = run_sim("queries=4,loss=0.0").to_json()
    common = {
        key: value for key, value in payload["metrics"].items()
        if not key.startswith("sim.")
    }
    for substrate in SUBSTRATES:
        Report.from_json({**payload, "substrate": substrate,
                          "metrics": common})
        assert any(
            row.key.startswith(f"{substrate}.") for row in REPORT_METRICS
        ), substrate
    with pytest.raises(ReportError):
        Report.from_json({**payload, "substrate": "testbed"})


def _example_key(row) -> str:
    """A concrete key of *row*: each placeholder's first alternative."""
    from repro.api.report import PLACEHOLDERS

    return ".".join(
        PLACEHOLDERS[part[1:-1]].split("|")[0].replace(r"\d+", "0")
        if part.startswith("{") else part
        for part in row.key.split(".")
    )


def test_schema_metrics_stay_in_sync_with_the_table():
    # REPORT_METRICS is the one list of Report keys: the reader requires
    # exactly the keys every substrate always emits (the rows listing
    # all three without a placeholder), and only latency.* may be null.
    from repro.api.report import REPORT_METRICS, SUBSTRATES

    always = [
        row.key for row in REPORT_METRICS
        if row.substrates == SUBSTRATES and "{" not in row.key
    ]
    assert len(always) == 12
    payload = run_sim("queries=4,loss=0.0").to_json()
    for key in payload["metrics"]:
        metrics = dict(payload["metrics"])
        del metrics[key]
        if key in always:
            with pytest.raises(ReportError, match=key):
                Report.from_json({**payload, "metrics": metrics})
        else:
            Report.from_json({**payload, "metrics": metrics})
    for key in always:
        metrics = {**payload["metrics"], key: None}
        if key.startswith("latency."):
            Report.from_json({**payload, "metrics": metrics})
        else:
            with pytest.raises(ReportError, match=key):
                Report.from_json({**payload, "metrics": metrics})


def test_table_rows_are_well_formed():
    from repro.api.report import (
        POOL_RULES, REPORT_METRICS, SUBSTRATES, UNITS, _DERIVED, metric_rows,
    )

    rules = set(POOL_RULES) | set(_DERIVED) | {"mean", "run"}
    for row in REPORT_METRICS:
        assert row.unit in UNITS, row
        assert set(row.substrates) <= set(SUBSTRATES), row
        assert row.repeats in rules and row.workers in rules | {""}, row
        assert metric_rows(_example_key(row)) == (row,), row


def _grid_reports():
    specs = [
        f"transport={transport},cache={cache},queries=6,loss=0.0,"
        f"repeats={repeats}"
        # udp has no CoAP proxy, so its widest placement is client-dns.
        for transport, widest in (
            ("udp", "client-dns"), ("coap", "all"), ("oscore", "all"),
        )
        for cache in ("none", widest)
        for repeats in (1, 2)
    ]
    specs.append(
        "one-hop,transport=coap,cache=client-dns+client-coap,clients=1000,"
        "queries=4000,rate=400,fleet-sample-cap=500,substrate=fleet"
    )
    specs.append(
        "transport=udp,queries=20,rate=200,cache=client-dns,substrate=live,"
        "timeout=5,serve_workers=2,load_workers=2"
    )
    return [run(spec) for spec in specs]


def test_every_emitted_key_is_one_row_of_its_substrate():
    from repro.api.report import check_metrics
    from repro.live.workers import reuseport_supported

    reports = _grid_reports()
    assert {report.substrate for report in reports} == {
        "sim", "live", "fleet"
    }
    fleet = next(report for report in reports if report.substrate == "fleet")
    assert fleet.metrics["fleet.sample.scale"] > 1
    live = next(report for report in reports if report.substrate == "live")
    assert live.metrics["live.workers.load.count"] == 2
    # Without SO_REUSEPORT the serve pool falls back to one worker.
    assert live.metrics["live.workers.serve.count"] == (
        2 if reuseport_supported() else 1
    )
    for report in reports:
        check_metrics(report.substrate, report.metrics)
        Report.from_json(report.to_json())


class TestValidateAgainstTheTable:
    def _exit_code(self, tmp_path, payload):
        from repro.api.validate import main

        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        return main([str(path)])

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        payload = run_sim("queries=4,loss=0.0").to_json()
        # In the sim.* namespace, but the table has no row.
        payload["metrics"]["sim.link.frames_3hop"] = 1
        assert self._exit_code(tmp_path, payload) == 1
        assert "sim.link.frames_3hop" in capsys.readouterr().err

    def test_other_substrates_key_exits_1(self, tmp_path):
        payload = run_sim("queries=4,loss=0.0").to_json()
        payload["metrics"]["live.repeats"] = 1
        assert self._exit_code(tmp_path, payload) == 1

    def test_wrong_unit_type_exits_1(self, tmp_path):
        payload = run_sim("queries=4,loss=0.0").to_json()
        payload["metrics"]["sim.repeats"] = 1.0
        assert self._exit_code(tmp_path, payload) == 1

    @pytest.mark.parametrize("key, value", [
        ("sim.link.frames_1hop", -1),           # a count
        ("cache.client_dns.hit_ratio", -0.5),   # a ratio
        ("throughput.qps", -1.0),               # a rate
        ("cache.client_dns.hits", None),        # a common key, not latency
    ])
    def test_negative_or_null_value_exits_1(self, tmp_path, key, value):
        payload = run_sim("queries=4,loss=0.0,cache=client-dns").to_json()
        assert payload["metrics"][key] >= 0
        payload["metrics"][key] = value
        assert self._exit_code(tmp_path, payload) == 1

    @pytest.mark.parametrize("key, value", [
        ("queries.failed", 1),       # issued != succeeded + failed
        ("queries.timeouts", 1),     # timeouts + rcode > failed
    ])
    def test_broken_identity_exits_1(self, tmp_path, key, value):
        payload = run_sim("queries=4,loss=0.0").to_json()
        assert payload["metrics"]["queries.failed"] == 0
        assert self._exit_code(tmp_path, payload) == 0
        payload["metrics"][key] = value
        assert self._exit_code(tmp_path, payload) == 1

    def test_sweep_cells_are_checked(self, tmp_path):
        cell = run_sim("queries=4,loss=0.0").to_json()
        cell["metrics"]["queries.issued"] += 1
        sweep = {
            "report_version": REPORT_VERSION, "kind": "sweep",
            "provenance": provenance(), "cells": {"udp": cell},
        }
        assert self._exit_code(tmp_path, sweep) == 1


# -- the live loadgen Report entry point -----------------------------------


def test_generate_report_returns_unified_report():
    from repro.api import report_from_loadgen
    from repro.live import DocLiveServer, LiveResolver, generate_load

    async def body():
        server = DocLiveServer(transport="udp", port=0, num_names=8)
        async with server:
            async with LiveResolver(server.endpoint, transport="udp") as r:
                return report_from_loadgen(
                    await generate_load(
                        r, server.names,
                        rate=100.0, duration=0.2, timeout=5.0, seed=5,
                    ),
                    server_stats=server.stats(),
                )

    report = asyncio.run(asyncio.wait_for(body(), timeout=20))
    assert isinstance(report, Report)
    assert report.substrate == "live"
    assert report.metrics["queries.issued"] > 0
    assert len(report.raw["latencies_s"]) == report.metrics["queries.succeeded"]
    Report.from_json(report.to_json())
