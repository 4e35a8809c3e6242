"""Scenario engine: specs, presets, runner, and sweeps."""

import random

import pytest

from repro.api import sweep
from repro.dns import RecordType
from repro.experiments.metrics import fraction_below, percentile
from repro.scenarios import (
    Scenario,
    ScenarioError,
    ScenarioRunner,
    TopologySpec,
    WorkloadSpec,
    get_scenario,
    get_topology,
    scenario_from_spec,
)


class TestSpecs:
    def test_defaults_are_figure2(self):
        scenario = Scenario()
        assert scenario.topology.hops == 2
        assert scenario.topology.clients == 2
        assert scenario.workload.num_queries == 50

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError):
            Scenario(transport="smtp")

    def test_model_only_transport_rejected(self):
        # Refused where a Scenario is made — by construction and by
        # `replace` alike — so no runner is ever handed one.
        from dataclasses import replace

        with pytest.raises(ScenarioError, match="model-only.*runnable: "):
            Scenario(transport="quic")
        with pytest.raises(ScenarioError, match="model-only.*runnable: "):
            replace(Scenario(), transport="quic")

    def test_proxy_requires_coap(self):
        with pytest.raises(ScenarioError):
            Scenario(transport="udp", use_proxy=True)

    def test_proxy_requires_distinct_forwarder(self):
        """One hop + no wired tail puts the resolver on the proxy node."""
        with pytest.raises(ScenarioError, match="forwarder"):
            Scenario(
                use_proxy=True,
                topology=TopologySpec(hops=1, wired_tail=False),
            )
        # A wired tail (or more hops) keeps the nodes distinct.
        Scenario(use_proxy=True, topology=TopologySpec(hops=1))
        Scenario(use_proxy=True, topology=TopologySpec(hops=2, wired_tail=False))

    def test_invalid_topology_rejected(self):
        with pytest.raises(ScenarioError):
            TopologySpec(hops=0)
        with pytest.raises(ScenarioError):
            TopologySpec(clients=0)
        with pytest.raises(ScenarioError):
            TopologySpec(loss=1.5)

    def test_invalid_workload_rejected(self):
        with pytest.raises(ScenarioError):
            WorkloadSpec(query_rate=0)
        with pytest.raises(ScenarioError):
            WorkloadSpec(rtype_mix=())
        with pytest.raises(ScenarioError):
            WorkloadSpec(burst_size=0)

    def test_burst_arrivals_grouped(self):
        workload = WorkloadSpec(num_queries=10, burst_size=5)
        times = workload.arrival_times(random.Random(1))
        assert len(times) == 10
        assert len(set(times)) == 2  # two burst instants

    def test_steady_arrivals_distinct(self):
        workload = WorkloadSpec(num_queries=10)
        times = workload.arrival_times(random.Random(1))
        assert len(set(times)) == 10

    def test_rtype_mix_draw(self):
        workload = WorkloadSpec(
            rtype_mix=((int(RecordType.A), 0.5), (int(RecordType.AAAA), 0.5))
        )
        rng = random.Random(3)
        drawn = {workload.draw_rtype(rng) for _ in range(50)}
        assert drawn == {int(RecordType.A), int(RecordType.AAAA)}

    def test_pure_mix_skips_rng(self):
        rng = random.Random(7)
        state = rng.getstate()
        assert WorkloadSpec().draw_rtype(rng) == int(RecordType.AAAA)
        assert rng.getstate() == state


class TestPresets:
    def test_named_topologies(self):
        assert get_topology("one-hop").hops == 1
        assert get_topology("three-hop").hops == 3
        assert not get_topology("all-wireless").wired_tail
        with pytest.raises(ScenarioError):
            get_topology("ring")

    def test_named_scenarios(self):
        assert get_scenario("figure7").topology.loss == 0.25
        assert get_scenario("burst").workload.burst_size == 5
        with pytest.raises(ScenarioError):
            get_scenario("nope")

    def test_spec_parser(self):
        scenario = scenario_from_spec(
            "three-hop,transport=oscore,loss=0.1,queries=12,clients=3,seed=9"
        )
        assert scenario.transport == "oscore"
        assert scenario.topology.hops == 3
        assert scenario.topology.clients == 3
        assert scenario.topology.loss == 0.1
        assert scenario.workload.num_queries == 12
        assert scenario.seed == 9

    def test_spec_parser_rtype_and_bools(self):
        scenario = scenario_from_spec(
            "rtype=mixed,proxy=yes,wired=no,burst=4"
        )
        assert len(scenario.workload.rtype_mix) == 2
        assert scenario.use_proxy
        assert not scenario.topology.wired_tail
        assert scenario.workload.burst_size == 4

    def test_spec_parser_rejects_junk(self):
        with pytest.raises(ScenarioError):
            scenario_from_spec("hops")
        with pytest.raises(ScenarioError):
            scenario_from_spec("color=red")
        with pytest.raises(ScenarioError):
            scenario_from_spec("proxy=maybe")


def _quick(workload_queries=12, **kwargs):
    defaults = dict(
        workload=WorkloadSpec(num_queries=workload_queries, num_names=12),
        run_duration=120.0,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestRunner:
    def test_one_hop_scenario_resolves(self):
        scenario = _quick(
            transport="coap",
            topology=TopologySpec(name="one-hop", hops=1, loss=0.0),
        )
        result = ScenarioRunner().run(scenario)
        assert result.success_rate == 1.0
        assert result.scenario is scenario
        assert result.link.per_hop_frames.keys() == {1}
        assert result.link.frames_1hop > 0

    def test_three_hop_scenario_resolves(self):
        scenario = _quick(
            transport="coap",
            topology=TopologySpec(name="three-hop", hops=3, loss=0.0),
        )
        result = ScenarioRunner().run(scenario)
        assert result.success_rate == 1.0
        assert result.link.per_hop_frames.keys() == {1, 2, 3}
        assert all(v > 0 for v in result.link.per_hop_frames.values())

    def test_deeper_topology_is_slower(self):
        runner = ScenarioRunner()
        one = runner.run(
            _quick(topology=TopologySpec(name="one-hop", hops=1, loss=0.0))
        )
        three = runner.run(
            _quick(topology=TopologySpec(name="three-hop", hops=3, loss=0.0))
        )
        assert percentile(three.resolution_times, 50) > percentile(
            one.resolution_times, 50
        )

    @pytest.mark.parametrize("hops", [1, 3])
    def test_figure7_ordering_holds_off_figure2(self, hops):
        """The known Figure 7 ordering — unencrypted UDP resolves a
        larger fraction below 250 ms than the fragmenting secure
        transports — also holds on 1-hop and 3-hop topologies."""
        runner = ScenarioRunner()
        topology = TopologySpec(
            name=f"{hops}-hop", hops=hops, loss=0.15, l2_retries=1
        )
        fractions = {}
        for transport in ("udp", "coaps", "oscore"):
            # A records (the UDP exchange never fragments, Section 5.4),
            # pooled over three seeds as the paper pools repetitions.
            times = []
            for seed in (1, 1001, 2001):
                scenario = Scenario(
                    transport=transport,
                    topology=topology,
                    workload=WorkloadSpec(
                        num_queries=25,
                        num_names=25,
                        rtype_mix=((int(RecordType.A), 1.0),),
                    ),
                    seed=seed,
                    run_duration=200.0,
                )
                result = runner.run(scenario)
                assert result.success_rate >= 0.9, transport
                times.extend(result.resolution_times)
            fractions[transport] = fraction_below(times, 0.25)
        assert fractions["udp"] > fractions["coaps"]
        assert fractions["udp"] > fractions["oscore"]

    def test_all_wireless_topology(self):
        scenario = _quick(
            topology=TopologySpec(
                name="all-wireless", hops=2, loss=0.0, wired_tail=False
            ),
        )
        result = ScenarioRunner().run(scenario)
        assert result.success_rate == 1.0

    def test_mixed_record_types_resolve(self):
        scenario = _quick(
            workload_queries=16,
            workload=WorkloadSpec(
                num_queries=16,
                num_names=8,
                rtype_mix=(
                    (int(RecordType.A), 0.5),
                    (int(RecordType.AAAA), 0.5),
                ),
            ),
            topology=TopologySpec(loss=0.0),
        )
        result = ScenarioRunner().run(scenario)
        assert result.success_rate == 1.0
        drawn = {outcome.rtype for outcome in result.outcomes}
        assert drawn == {int(RecordType.A), int(RecordType.AAAA)}

    def test_burst_workload_resolves(self):
        scenario = _quick(
            workload=WorkloadSpec(num_queries=12, burst_size=4),
            topology=TopologySpec(loss=0.0),
        )
        result = ScenarioRunner().run(scenario)
        assert result.success_rate == 1.0
        issued = sorted({o.issued_at for o in result.outcomes})
        assert len(issued) == 3  # three bursts of four


    def test_truncated_run_is_logged_once(self, capsys):
        import json

        from repro.api import run

        # 50 arrivals at 5/s need ~10 s; a 2 s run never issues the tail.
        report = run("queries=50,rate=5,duration=2")
        records = [
            json.loads(line)
            for line in capsys.readouterr().err.splitlines()
        ]
        assert len(records) == 1
        record = records[0]
        assert record["level"] == "warning"
        assert record["requested"] == 50
        assert record["run_duration"] == 2.0
        assert record["first_late_arrival"] > 2.0
        assert 0 < record["issued"] < 50
        assert report.metrics["queries.issued"] == record["issued"]

    def test_run_that_fits_logs_nothing(self, capsys):
        from repro.api import run

        report = run("queries=10,rate=5,duration=60")
        assert report.metrics["queries.issued"] == 10
        assert capsys.readouterr().err == ""


class TestSweep:
    @pytest.fixture(scope="class")
    def reports(self):
        return sweep(
            _quick(workload_queries=8),
            transports=("udp", "coap", "oscore"),
            topologies=("figure2", "one-hop"),
            losses=(0.05, 0.25),
        )

    def test_grid_is_complete(self, reports):
        assert len(reports) == 3 * 2 * 2
        assert "udp/figure2/0.05" in reports
        assert "oscore/one-hop/0.25" in reports
        assert [
            report.spec["topology"]["loss"] for report in reports.values()
        ] == [0.05, 0.25] * 6

    def test_per_cell_metrics(self, reports):
        assert len(reports) == 12
        for key, report in reports.items():
            metrics = report.metrics
            assert metrics["queries.issued"] == 8, key
            assert metrics["queries.success_rate"] > 0.0, key
            assert metrics["latency.p50_ms"] > 0.0, key
            assert metrics["sim.link.frames_1hop"] > 0, key

    def test_cell_lookup(self, reports):
        report = reports["coap/one-hop/0.05"]
        assert report.raw.scenario.transport == "coap"
        assert report.raw.scenario.topology.hops == 1
        assert report.raw.success_rate > 0.0
        with pytest.raises(KeyError):
            reports["coap/ring/0.05"]

    def test_loss_hurts(self, reports):
        """More loss never *helps* the low-latency fraction (coarse,
        but deterministic for these seeds)."""
        for transport in ("udp", "coap", "oscore"):
            clean = reports[f"{transport}/figure2/0.05"].raw
            lossy = reports[f"{transport}/figure2/0.25"].raw
            assert fraction_below(clean.resolution_times, 0.25) >= (
                fraction_below(lossy.resolution_times, 0.25) - 0.15
            )

    def test_duplicate_cells_rejected_before_running(self):
        with pytest.raises(ScenarioError, match="duplicate sweep cell"):
            sweep(
                _quick(workload_queries=4),
                transports=("coap",),
                topologies=("one-hop", "one-hop"),
                losses=(0.0,),
            )

    def test_losses_equal_under_the_key_format_are_duplicates(
        self, monkeypatch
    ):
        # Two distinct floats, one ``:g`` key: refused, not one cell
        # silently dropped from the result.
        import repro.api.runner as api_runner

        ran = []
        monkeypatch.setattr(api_runner, "run", ran.append)
        with pytest.raises(ScenarioError, match="duplicate sweep cell"):
            sweep(
                _quick(workload_queries=4),
                transports=("coap",),
                topologies=("one-hop",),
                losses=(0.1234567, 0.1234568),
            )
        assert ran == []

    def test_topology_names_accept_specs(self):
        reports = sweep(
            _quick(workload_queries=4),
            transports=("coap",),
            topologies=(TopologySpec(name="deep", hops=4),),
            losses=(0.0,),
        )
        assert reports["coap/deep/0"].raw.success_rate == 1.0
