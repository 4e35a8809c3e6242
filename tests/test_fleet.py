"""The fleet substrate: golden tolerance vs the exact simulator,
sampling plans, fleet-only dimensions, and the API wiring.

The acceptance core is the golden-cell grid: every simulatable
transport × both caching schemes runs the same small scenario on both
substrates, and each common metric must agree within the checked-in
per-metric tolerances (``tests/fleet_tolerances.json``). Counters and
cache behaviour reproduce exactly by construction; latency tails and
throughput carry the service-model resampling error those tolerances
bound.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import fleet_reference as reference
import repro.fleet.cache
import repro.fleet.engine
from repro.api import ApiError, Report, RunSpec, run
from repro.fleet import (
    FleetCacheModel,
    FleetOptions,
    FleetOptionsError,
    calibrate,
    flash_crowd_warp,
    plan_sample,
    probe_scenario,
    run_fleet,
    wake_time,
)
from repro.fleet.service import Calibration, ServiceModel, _van_der_corput
from repro.scenarios import CachingSpec, scenario_from_spec
from repro.scenarios.runner import QueryOutcome

TOLERANCES = json.loads(
    (pathlib.Path(__file__).parent / "fleet_tolerances.json").read_text()
)

#: The golden-cell scenario both substrates run: small enough to finish
#: quickly on the exact simulator, busy enough to exercise cache hits,
#: losses, and retransmission tails.
GOLDEN_CELL = (
    "one-hop,clients=4,queries=30,names=6,rate=10,loss=0.05,"
    "cache=client-dns+client-coap"
)
TRANSPORTS = ("udp", "dtls", "coap", "coaps", "oscore")
SCHEMES = ("doh-like", "eol-ttls")


def tolerance_for(key: str):
    if key in TOLERANCES:
        return TOLERANCES[key]
    if key.startswith("cache."):
        return TOLERANCES["cache.*"]
    raise AssertionError(f"no tolerance on record for metric {key!r}")


# -- the acceptance criterion: golden cells within tolerance ---------------


class TestGoldenCells:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_fleet_matches_exact_sim_within_tolerance(
        self, transport, scheme
    ):
        spec = f"{GOLDEN_CELL},transport={transport},scheme={scheme}"
        sim_report = run(RunSpec.from_spec(spec))
        fleet_report = run(RunSpec.from_spec(spec + ",substrate=fleet"))
        assert sorted(sim_report.common_metrics()) == sorted(
            fleet_report.common_metrics()
        )
        for key, sim_value in sim_report.common_metrics().items():
            fleet_value = fleet_report.metrics[key]
            if sim_value is None or fleet_value is None:
                assert sim_value == fleet_value, key
                continue
            bound = tolerance_for(key)
            limit = bound["abs"] + bound["rel"] * max(
                abs(sim_value), abs(fleet_value)
            )
            assert abs(sim_value - fleet_value) <= limit, (
                f"{transport}/{scheme} {key}: sim={sim_value} "
                f"fleet={fleet_value} exceeds abs={bound['abs']} "
                f"rel={bound['rel']}"
            )
        assert fleet_report.metrics["fleet.tolerance.exact"] is True
        Report.from_json(fleet_report.to_json())


# -- the sampling plan ------------------------------------------------------


class TestSamplePlan:
    def test_below_cap_is_exact(self):
        plan = plan_sample(clients=1000, queries=500, rate=50.0, cap=1000)
        assert plan.exact
        assert plan.query_scale == 1.0
        assert plan.client_scale == 1.0
        assert plan.rate == 50.0

    def test_thinning_preserves_per_client_rate(self):
        plan = plan_sample(
            clients=1_000_000, queries=1_000_000, rate=100_000.0, cap=65536
        )
        assert not plan.exact
        assert plan.clients <= 65536 + 1
        # Per-client rate is invariant under thinning.
        assert plan.rate / plan.clients == pytest.approx(
            100_000.0 / 1_000_000
        )
        assert plan.query_scale == pytest.approx(
            1_000_000 / plan.queries
        )
        assert plan.client_scale == pytest.approx(1_000_000 / plan.clients)

    def test_small_fleet_truncates_in_time(self):
        # Two clients issuing a million queries cannot be client-thinned
        # below the cap; the sample truncates the run in time instead.
        plan = plan_sample(clients=2, queries=1_000_000, rate=10.0, cap=1000)
        assert plan.clients == 1
        assert plan.queries == 1000
        assert plan.query_scale == 1000.0
        assert plan.client_scale == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_sample(clients=0, queries=10, rate=1.0, cap=10)
        with pytest.raises(ValueError):
            plan_sample(clients=1, queries=0, rate=1.0, cap=10)


# -- fleet-only dimensions --------------------------------------------------


class TestFlashCrowd:
    def test_multiplier_one_is_identity(self):
        arrivals = [0.5, 1.0, 2.0]
        assert flash_crowd_warp(arrivals, 1.0, 0.0, 3.0) == arrivals

    def test_warp_preserves_count_and_order(self):
        arrivals = [i * 0.1 for i in range(300)]
        warped = flash_crowd_warp(arrivals, 3.0, 0.0, 30.0)
        assert len(warped) == 300
        assert warped == sorted(warped)

    def test_middle_third_compresses_and_tail_shifts(self):
        # Uniform arrivals over [0, 30) with multiplier 3: cumulative
        # mass [10, 25] maps into [10, 15] (3x hot), later arrivals
        # shift 10 s earlier; arrivals before the window are untouched.
        arrivals = [5.0, 12.0, 24.9, 26.0, 29.9]
        warped = flash_crowd_warp(arrivals, 3.0, 0.0, 30.0)
        assert warped[0] == 5.0
        assert warped[1] == pytest.approx(10.0 + 2.0 / 3.0)
        assert warped[2] == pytest.approx(10.0 + 14.9 / 3.0)
        assert warped[3] == pytest.approx(16.0)
        assert warped[4] == pytest.approx(19.9)


class TestDutyCycle:
    def test_always_on_is_identity(self):
        assert wake_time(3, 7.25, 1.0, 10.0) == 7.25

    def test_awake_window_issues_immediately(self):
        # Client 0 has phase 0: awake during [0, duty*period) of each
        # period.
        assert wake_time(0, 0.5, 0.2, 10.0) == 0.5
        assert wake_time(0, 10.5, 0.2, 10.0) == 10.5

    def test_sleeping_defers_to_next_wake(self):
        # Client 0, period 10, duty 0.2: asleep during [2, 10); a query
        # arising at t=5 waits until the next period starts.
        assert wake_time(0, 5.0, 0.2, 10.0) == pytest.approx(10.0)

    def test_phases_spread_clients(self):
        phases = {
            round(wake_time(client, 0.0, 0.001, 10.0), 6)
            for client in range(8)
        }
        # Golden-ratio phasing: every client wakes at a distinct point.
        assert len(phases) == 8


class FixedRng:
    """A 'random' source that always returns the same value."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self) -> float:
        return self.value


class TestChurn:
    def make_model(self, churn: float, rng_value: float) -> FleetCacheModel:
        return FleetCacheModel(
            CachingSpec(client_dns=True, client_coap=False, proxy=False),
            clients=1,
            coap_based=False,
            churn=churn,
            model_rng=FixedRng(rng_value),
        )

    def test_replacement_restarts_cold(self):
        model = self.make_model(churn=10.0, rng_value=0.999)
        cache, _ = model.materialise(0)
        cache.store("key", True, lifetime=300.0, now=0.0)
        model.touch(0, 0.0)
        # Survival probability exp(-10 * 5) is far below 0.999: the
        # client is replaced and its cache cleared.
        model.touch(0, 5.0)
        entry, state = cache.lookup("key", 5.0)
        assert entry is None

    def test_survivor_keeps_cache(self):
        model = self.make_model(churn=0.001, rng_value=0.5)
        cache, _ = model.materialise(0)
        cache.store("key", True, lifetime=300.0, now=0.0)
        model.touch(0, 0.0)
        # Survival probability exp(-0.001 * 5) ~ 0.995 > 0.5: survives.
        model.touch(0, 5.0)
        entry, state = cache.lookup("key", 5.0)
        assert entry is not None

    def test_churn_lowers_hit_ratio_end_to_end(self):
        base = scenario_from_spec(
            "one-hop,transport=coap,clients=4,queries=60,names=4,rate=10,"
            "cache=client-dns"
        )
        steady = run_fleet(base, FleetOptions())
        churned = run_fleet(base, FleetOptions(churn=20.0))
        assert (
            churned.cache_stats["client-dns"]["hits"]
            < steady.cache_stats["client-dns"]["hits"]
        )


# -- options and spec wiring ------------------------------------------------


class TestFleetOptions:
    def test_validation(self):
        with pytest.raises(FleetOptionsError):
            FleetOptions(churn=-0.1)
        with pytest.raises(FleetOptionsError):
            FleetOptions(duty_cycle=0.0)
        with pytest.raises(FleetOptionsError):
            FleetOptions(duty_cycle=1.5)
        with pytest.raises(FleetOptionsError):
            FleetOptions(flash_crowd=0.5)
        with pytest.raises(FleetOptionsError):
            FleetOptions(sample_cap=0)

    def test_from_spec_parses_fleet_keys(self):
        spec = RunSpec.from_spec(
            "transport=coap,substrate=fleet,churn=0.5,duty_cycle=0.25,"
            "duty-period=20,flash-crowd=4,fleet-sample-cap=1000"
        )
        assert spec.substrate == "fleet"
        assert spec.fleet.churn == 0.5
        assert spec.fleet.duty_cycle == 0.25
        assert spec.fleet.duty_period == 20.0
        assert spec.fleet.flash_crowd == 4.0
        assert spec.fleet.sample_cap == 1000

    def test_from_spec_rejects_bad_fleet_values(self):
        with pytest.raises(ApiError):
            RunSpec.from_spec("substrate=fleet,churn=-1")

    def test_to_dict_carries_fleet_block_and_topology(self):
        payload = RunSpec.from_spec(
            "one-hop,transport=coap,clients=5000,substrate=fleet,churn=0.1"
        ).to_dict()
        json.dumps(payload)
        assert payload["substrate"] == "fleet"
        assert payload["topology"]["clients"] == 5000
        assert payload["fleet"]["churn"] == 0.1
        assert "live" not in payload


# -- the probe --------------------------------------------------------------


class TestProbe:
    def test_probe_disables_client_caches_and_caps_clients(self):
        scenario = scenario_from_spec(
            "one-hop,transport=coap,clients=5000,queries=500,rate=100,"
            "cache=client-dns+client-coap"
        )
        probe = probe_scenario(scenario, FleetOptions())
        assert probe.topology.clients == 4
        caching = probe.caching_spec
        assert not caching.client_dns
        assert not caching.client_coap
        # Per-client rate is preserved: 100 qps over 5000 clients is
        # 0.08 qps over 4 — but floored so the probe finishes inside
        # the run-duration cutoff.
        assert probe.workload.num_queries == 160
        assert probe.workload.query_rate >= (
            2.0 * probe.workload.num_queries / scenario.run_duration
        )

    def test_calibration_is_memoised(self):
        from repro.fleet.service import calibrate

        scenario = scenario_from_spec(
            "one-hop,transport=udp,clients=8,queries=20,rate=10"
        )
        first = calibrate(scenario, FleetOptions())
        assert calibrate(scenario, FleetOptions()) is first


# -- scale ------------------------------------------------------------------


class TestFleetAtScale:
    def test_sampled_run_scales_counters(self):
        report = run(RunSpec.from_spec(
            "one-hop,transport=coap,clients=100000,queries=100000,"
            "rate=10000,cache=client-dns,substrate=fleet,"
            "fleet-sample-cap=2000"
        ))
        metrics = report.metrics
        assert metrics["queries.issued"] == pytest.approx(100000, rel=0.02)
        assert metrics["fleet.sample.scale"] > 1.0
        assert metrics["fleet.tolerance.exact"] is False
        assert metrics["fleet.clients"] == 100000
        # The telemetry timeline reports fleet totals, not sample
        # counts: the per-second series must sum to ~the fleet size.
        assert report.telemetry is not None
        assert sum(s["queries"] for s in report.telemetry) == pytest.approx(
            100000, rel=0.05
        )
        Report.from_json(report.to_json())

    def test_scaled_rows_rate_what_succeeded(self):
        # Frame loss without link-layer retries: a tenth of the fleet is
        # sampled and about a fifth of its queries time out. A scaled row
        # rates what succeeded per second, as every other row does.
        report = run(RunSpec.from_spec(
            "one-hop,transport=coap,clients=1000,queries=20000,rate=2000,"
            "names=12,loss=0.35,retries=0,substrate=fleet,"
            "fleet-sample-cap=2000,seed=4711"
        ))
        assert report.metrics["fleet.sample.scale"] > 1.0
        assert report.metrics["queries.failed"] > 0
        rows = report.telemetry
        assert any(row["failed"] for row in rows)
        for row in rows:
            assert row["qps"] == round(row["succeeded"] / row["interval_s"], 3)
        Report.from_json(report.to_json())

    def test_repeats_pool_and_fan_out(self):
        report = run(RunSpec.from_spec(
            "one-hop,transport=udp,clients=50,queries=40,rate=20,"
            "cache=client-dns,substrate=fleet,repeats=3"
        ))
        assert report.metrics["fleet.repeats"] == 3
        assert report.metrics["queries.issued"] == 120
        assert report.telemetry is None
        assert isinstance(report.raw, list) and len(report.raw) == 3
        Report.from_json(report.to_json())

    def test_duty_cycle_defers_and_flash_crowd_preserves_counts(self):
        base = "one-hop,transport=udp,clients=32,queries=64,rate=20,substrate=fleet"
        plain = run(RunSpec.from_spec(base))
        duty = run(RunSpec.from_spec(base + ",duty_cycle=0.2,duty_period=8"))
        crowd = run(RunSpec.from_spec(base + ",flash_crowd=5"))
        assert duty.metrics["queries.issued"] == plain.metrics["queries.issued"]
        assert crowd.metrics["queries.issued"] == plain.metrics["queries.issued"]
        assert duty.metrics["fleet.duty_cycle"] == 0.2
        assert crowd.metrics["fleet.flash_crowd"] == 5.0
        # Deferral pushes arrivals to wake boundaries, stretching the
        # observed span: the duty-cycled run cannot finish earlier.
        duty_last = max(o.issued_at for o in duty.raw.outcomes)
        plain_last = max(o.issued_at for o in plain.raw.outcomes)
        assert duty_last >= plain_last


# -- engine semantics -------------------------------------------------------


class TestEngineSemantics:
    def test_dns_hits_are_zero_latency(self):
        scenario = scenario_from_spec(
            "one-hop,transport=udp,clients=2,queries=30,names=2,rate=10,"
            "cache=client-dns"
        )
        result = run_fleet(scenario)
        hits = [o for o in result.outcomes if o.resolution_time == 0.0]
        assert hits, "expected repeat queries to hit the client DNS cache"
        assert result.cache_stats["client-dns"]["hits"] == len(hits)

    def test_zero_ttl_is_uncacheable(self):
        scenario = scenario_from_spec(
            "one-hop,transport=udp,clients=2,queries=20,names=2,rate=10,"
            "cache=client-dns,records=1"
        )
        from dataclasses import replace

        scenario = replace(
            scenario, workload=replace(scenario.workload, ttl=(0, 0))
        )
        result = run_fleet(scenario)
        assert result.cache_stats["client-dns"]["hits"] == 0

    def test_oscore_coap_cache_exists_but_is_never_consulted(self):
        scenario = scenario_from_spec(
            "one-hop,transport=oscore,clients=2,queries=20,names=2,rate=10,"
            "cache=client-coap"
        )
        result = run_fleet(scenario)
        stats = result.cache_stats["client-coap"]
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_deterministic_for_seed(self):
        scenario = scenario_from_spec(
            "one-hop,transport=coap,clients=8,queries=30,rate=10,"
            "cache=client-dns"
        )
        first = run_fleet(scenario)
        second = run_fleet(scenario)
        assert first.outcomes == second.outcomes
        assert first.cache_stats == second.cache_stats


# -- the engine against the always-materialise reference walk ---------------


@st.composite
def fleet_runs(draw):
    """A (scenario, options) pair from every dimension the walk reads."""
    transport = draw(st.sampled_from(("coap", "oscore", "udp")))
    lossy = draw(st.booleans())
    scenario = scenario_from_spec(
        f"{draw(st.sampled_from(('one-hop', 'figure2')))},"
        f"transport={transport},"
        f"clients={draw(st.sampled_from((1, 2, 3, 5, 16, 64)))},"
        f"queries={draw(st.sampled_from((1, 16, 64, 90, 150, 200)))},"
        f"names={draw(st.sampled_from((1, 3, 6, 20)))},"
        f"rate={draw(st.sampled_from((5, 20, 50)))},"
        f"rtype={draw(st.sampled_from(('a', 'mixed')))},"
        f"seed={draw(st.integers(0, 3))},"
        # Frame loss without link-layer retries: the probe sees timeouts,
        # so the walk draws failures as well as latencies.
        + ("loss=0.35,retries=0" if lossy else "loss=0")
    )
    workload = replace(
        scenario.workload,
        zipf_alpha=draw(st.sampled_from((None, 0.8, 1.3))),
        # Short TTLs expire inside the run (stale hits, revalidation,
        # expired-first eviction); a zero TTL is uncacheable.
        ttl=draw(st.sampled_from(((300, 300), (300, 300), (1, 3), (0, 1)))),
    )
    placement = draw(st.sampled_from((
        "client-dns", "client-coap", "client-dns+client-coap", "none",
    )))
    caching = CachingSpec(
        client_dns="dns" in placement,
        client_coap="coap" in placement,
        proxy=False,
        client_dns_capacity=draw(st.sampled_from((1, 3, 8))),
        client_coap_capacity=draw(st.sampled_from((1, 3, 8))),
    )
    if draw(st.integers(0, 3)) == 0:
        # End the run early: late arrivals never issue, late answers
        # never land.
        nominal = workload.num_queries / workload.query_rate
        scenario = replace(scenario, run_duration=workload.start + nominal / 2)
    scenario = replace(scenario, workload=workload, caching=caching)
    options = FleetOptions(
        churn=draw(st.sampled_from((0.0, 0.3))),
        duty_cycle=draw(st.sampled_from((1.0, 0.3))),
        duty_period=4.0,
        flash_crowd=draw(st.sampled_from((1.0, 4.0))),
        sample_cap=draw(st.sampled_from((65536, 48))),
        probe_queries=12,
    )
    return scenario, options


def report_digest(report) -> str:
    text = json.dumps(
        {"metrics": report.metrics, "telemetry": report.telemetry},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_CACHED = "transport=coap,names=12,rate=20,cache=client-dns+client-coap"

#: Specs whose whole Report (metrics and telemetry) was digested with
#: the always-materialise engine, before the walk learnt to elide.
REGRESSION_SPECS = {
    "churn": (
        f"one-hop,{_CACHED},clients=24,queries=600,churn=0.05",
        "a61632a7cee05e458d840cb79e67b93ae49bd5fedb586da442dce69199358e0a",
    ),
    "duty_cycle": (
        f"one-hop,{_CACHED},clients=32,queries=500,duty_cycle=0.2,"
        "duty_period=8",
        "e8cc594d68d54a9b4afcdb630b9c02a74b3b0383c90cc49abffce0d973bf18a4",
    ),
    "flash_crowd": (
        f"one-hop,{_CACHED},clients=16,queries=500,flash_crowd=5",
        "8e79ccd0873096bd4c6f6f86bf5df083e3fe70b2e21fcb572157812a2027cee3",
    ),
    "zipf": (
        f"one-hop,{_CACHED},clients=8,queries=600,names=40,zipf=1.1,"
        "rtype=mixed",
        "4862d4468a62f534746a312f5618db3337d20514c5c7c4be797b47a3b4a45506",
    ),
    "oscore": (
        f"one-hop,{_CACHED},clients=6,queries=300,transport=oscore",
        "300a626004a9ff8dc659747ba5d8fb74f262f9132f0c4ea0e6a7e3ee88d75042",
    ),
    "udp": (
        "one-hop,transport=udp,clients=6,queries=300,names=12,rate=20,"
        "loss=0.1,cache=client-dns",
        "3d456a3b112fac573849fb42d549c1e3aa1bd996d5666700ff0e719adfd4b39b",
    ),
    "figure2": (
        f"figure2,{_CACHED},clients=10,queries=400,loss=0.1,scheme=eol-ttls",
        "3b96ce6a1e970ce9875ba85879ec15dac683b6c000e8a2a798043a11f8203a20",
    ),
    "clients_gt_queries": (
        f"one-hop,{_CACHED},clients=5000,queries=300",
        "a2f053510c25a665fefb551d62a3cdce3e5aa13a83b555620cd817937adb6f2f",
    ),
    "sampled": (
        f"one-hop,{_CACHED},clients=1000,queries=200000,rate=2000,"
        "fleet-sample-cap=3000,seed=4711",
        "475241f59d8f28e47d12d4354040115b4153c061ee5dae4455a1a95c256b950e",
    ),
}


class TestAgainstReferenceWalk:
    @settings(max_examples=150, deadline=None)
    @given(fleet_runs())
    def test_walk_equals_reference(self, case):
        scenario, options = case
        expected = reference.reference_run_fleet(scenario, options)
        result = run_fleet(scenario, options)
        assert result.outcomes == expected.outcomes
        assert result.cache_stats == expected.cache_stats
        assert result.active_clients == expected.active_clients
        assert result.latency_sample == expected.latency_sample
        assert result.successes == expected.successes

    @pytest.mark.parametrize("name", sorted(REGRESSION_SPECS))
    def test_banked_report_digests(self, name):
        spec, digest = REGRESSION_SPECS[name]
        report = run(RunSpec.from_spec(spec + ",substrate=fleet"))
        assert report_digest(report) == digest

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 6), st.integers(0, 6),
        st.lists(st.floats(0.001, 5.0), max_size=6),
        st.lists(st.floats(0.001, 5.0), max_size=6),
        st.lists(st.booleans(), max_size=60),
    )
    def test_service_model_equals_reference(
        self, timeouts, rcodes, first, rest, exchanges
    ):
        calibration = Calibration(
            probe_clients=4, probe_queries=20, issued=20,
            succeeded=len(first) + len(rest), timeouts=timeouts,
            rcode_failures=rcodes,
            first_latencies=tuple(sorted(first)),
            rest_latencies=tuple(sorted(rest)),
        )
        model = ServiceModel(calibration)
        oracle = reference.ReferenceServiceModel(calibration)
        for first_exchange in exchanges:
            assert model.draw(first_exchange) == oracle.draw(first_exchange)

    def test_van_der_corput_is_the_bit_loop(self):
        indices = list(range(2 ** 17 + 1)) + [
            2 ** 40 + 1, 2 ** 41 - 2, 3 * 2 ** 40 + 12345, 2 ** 52 + 7,
        ]
        for index in indices:
            assert _van_der_corput(index) == (
                reference.van_der_corput_loop(index)
            ), index


# -- no cache state for a client nobody asks again --------------------------


@pytest.fixture
def caches_built(monkeypatch):
    """How many ``KeyedCache`` objects the cache model has constructed."""
    built = []

    class CountingCache(repro.fleet.cache.KeyedCache):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(repro.fleet.cache, "KeyedCache", CountingCache)
    return built


class TestMaterialisation:
    def test_clients_that_ask_once_build_no_cache(self, caches_built):
        result = run_fleet(scenario_from_spec(
            "one-hop,transport=coap,clients=300,queries=300,rate=50,"
            "cache=client-dns+client-coap"
        ))
        assert caches_built == []
        assert result.active_clients == 300
        for location in ("client-dns", "client-coap"):
            assert result.cache_stats[location]["misses"] == 300

    def test_clients_that_ask_again_build_one_pair_each(self, caches_built):
        result = run_fleet(scenario_from_spec(
            "one-hop,transport=coap,clients=4,queries=200,names=6,rate=20,"
            "cache=client-dns+client-coap"
        ))
        assert len(caches_built) == 4 * 2
        assert result.cache_stats["client-dns"]["hits"] > 0

    def test_only_consulted_locations_are_built(self, caches_built):
        # Plain OSCORE never consults its client CoAP cache.
        run_fleet(scenario_from_spec(
            "one-hop,transport=oscore,clients=4,queries=200,names=6,rate=20,"
            "cache=client-dns+client-coap"
        ))
        assert len(caches_built) == 4

    def test_final_miss_on_a_full_cache_still_evicts(self):
        # One client, three names into a two-entry cache: its last query
        # misses, stores, and displaces a live entry — a store nobody
        # reads, but one the eviction counter sees.
        scenario = scenario_from_spec(
            "one-hop,transport=udp,clients=1,queries=3,names=3,rate=10"
        )
        scenario = replace(scenario, caching=CachingSpec(
            client_dns=True, proxy=False, client_dns_capacity=2
        ))
        result = run_fleet(scenario)
        assert result.cache_stats["client-dns"]["evictions"] == 1
        assert result.cache_stats == (
            reference.reference_run_fleet(scenario).cache_stats
        )


# -- the walk records columns -----------------------------------------------


def traced_walk(spec_text: str):
    """One fleet walk and the tracemalloc peak it added. The calibration
    is memoised per process, so it is paid before tracing starts."""
    spec = RunSpec.from_spec(spec_text + ",substrate=fleet")
    scenario = spec.to_scenario()
    calibrate(scenario, spec.fleet)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = run_fleet(scenario, spec.fleet)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


class TestColumns:
    def test_ask_once_walk_holds_under_160_bytes_per_query(self):
        result, peak = traced_walk(
            "one-hop,transport=coap,clients=16384,queries=16384,rate=2000,"
            "cache=client-dns+client-coap"
        )
        assert result.plan.queries == 16384
        assert peak / result.plan.queries < 160, peak

    def test_sparse_fleet_sizes_client_state_by_the_sample(self):
        # A hundred million clients, a thousand of whom ever ask: the
        # per-client arrays are sized by the clients the walk reaches.
        result, peak = traced_walk(
            "one-hop,transport=coap,clients=100000000,queries=1000,"
            "rate=100,cache=client-dns+client-coap"
        )
        assert result.plan.clients == 100_000_000
        assert result.active_clients == 1000
        assert peak < 8 * 2 ** 20, peak

    def test_run_and_report_build_no_query_rows(self, monkeypatch):
        built = []

        class CountingOutcome(QueryOutcome):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(repro.fleet.engine, "QueryOutcome", CountingOutcome)
        report = run(RunSpec.from_spec(
            "one-hop,transport=coap,clients=8,queries=200,names=6,rate=20,"
            "cache=client-dns+client-coap,substrate=fleet"
        ))
        assert report.telemetry
        assert built == []
        # The rows exist only when asked for.
        assert len(report.raw.outcomes) == report.metrics["queries.issued"]
        assert len(built) == 200

    def test_process_pool_repeats_equal_in_process_ones(self):
        # Two workers pickle the columnar results back through the
        # ordered map; the Report and every row must not notice.
        base = (
            "one-hop,transport=coap,clients=40,queries=300,names=8,rate=30,"
            "loss=0.35,retries=0,cache=client-dns+client-coap,"
            "substrate=fleet,repeats=2"
        )
        serial = run(RunSpec.from_spec(base + ",workers=1"))
        pooled = run(RunSpec.from_spec(base + ",workers=2"))
        assert serial.metrics["queries.timeouts"] > 0
        assert pooled.metrics == serial.metrics
        assert [r.outcomes for r in pooled.raw] == [
            r.outcomes for r in serial.raw
        ]
