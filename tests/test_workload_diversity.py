"""Unit tests for the arrival/popularity workload vocabulary."""

from __future__ import annotations

import random

import pytest

from repro.scenarios import Scenario, ScenarioError, WorkloadSpec, scenario_from_spec
from repro.sim.workload import (
    bursty_arrival_times,
    poisson_arrival_times,
    sample_zipf_many,
    zipf_cumulative,
    zipf_weights,
)


# -- bursty arrivals -----------------------------------------------------


def test_bursty_arrivals_respect_off_windows():
    rng = random.Random(1)
    times = bursty_arrival_times(
        rng, rate=10.0, count=200, on_duration=1.0, off_duration=4.0
    )
    assert times == sorted(times)
    assert len(times) == 200
    for t in times:
        assert (t % 5.0) < 1.0  # every arrival inside an ON window


def test_bursty_average_rate_is_preserved():
    rng = random.Random(7)
    rate, count = 20.0, 4000
    times = bursty_arrival_times(
        rng, rate=rate, count=count, on_duration=0.5, off_duration=1.5
    )
    # The span of N arrivals at average rate λ is ≈ N/λ; allow wide
    # slack since the last window may be partially used.
    span = times[-1]
    assert span == pytest.approx(count / rate, rel=0.15)


def test_bursty_zero_off_degenerates_to_poisson_support():
    rng = random.Random(3)
    times = bursty_arrival_times(
        rng, rate=5.0, count=50, on_duration=1.0, off_duration=0.0
    )
    assert len(times) == 50


def test_bursty_validation():
    rng = random.Random(1)
    with pytest.raises(ValueError):
        bursty_arrival_times(rng, rate=0, count=1, on_duration=1, off_duration=1)
    with pytest.raises(ValueError):
        bursty_arrival_times(rng, rate=1, count=1, on_duration=0, off_duration=1)
    with pytest.raises(ValueError):
        bursty_arrival_times(rng, rate=1, count=1, on_duration=1, off_duration=-1)


# -- Zipf popularity -----------------------------------------------------


def test_zipf_weights_shape():
    weights = zipf_weights(4, 1.0)
    assert weights == [1.0, 0.5, pytest.approx(1 / 3), 0.25]
    assert zipf_weights(3, 0.0) == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        zipf_weights(0, 1.0)
    with pytest.raises(ValueError):
        zipf_weights(4, -0.5)


def test_zipf_sampling_is_skewed():
    draws = sample_zipf_many(random.Random(5), zipf_cumulative(20, 1.2), 3000)
    rank0 = draws.count(0)
    rank19 = draws.count(19)
    assert rank0 > 5 * max(rank19, 1)
    assert all(0 <= d < 20 for d in draws)


# -- WorkloadSpec integration -------------------------------------------


def test_workload_spec_defaults_unchanged():
    spec = WorkloadSpec()
    assert spec.arrival == "poisson"
    assert spec.zipf_alpha is None
    rng_a, rng_b = random.Random(9), random.Random(9)
    # Default spec arrivals are bit-identical to the raw Poisson call.
    assert spec.arrival_times(rng_a) == poisson_arrival_times(
        rng_b, spec.query_rate, spec.num_queries, start=spec.start
    )


def test_workload_spec_round_robin_names_without_zipf():
    spec = WorkloadSpec(num_names=5)
    rng = random.Random(1)
    assert [spec.draw_name_index(rng, i) for i in range(7)] == [
        0, 1, 2, 3, 4, 0, 1
    ]
    # No RNG draws were consumed on the legacy path.
    assert random.Random(1).random() == rng.random()


def test_workload_spec_zipf_names():
    spec = WorkloadSpec(num_names=10, zipf_alpha=1.5)
    rng = random.Random(2)
    draws = [spec.draw_name_index(rng, i) for i in range(500)]
    assert draws.count(0) > draws.count(9)
    assert all(0 <= d < 10 for d in draws)


def test_workload_spec_bursty_arrivals():
    spec = WorkloadSpec(
        arrival="bursty", burst_on=0.5, burst_off=2.0, num_queries=100,
        query_rate=20.0, start=0.0,
    )
    times = spec.arrival_times(random.Random(4))
    assert len(times) == 100
    for t in times:
        assert (t % 2.5) < 0.5


def test_workload_spec_validation():
    with pytest.raises(ScenarioError):
        WorkloadSpec(arrival="lumpy")
    with pytest.raises(ScenarioError):
        WorkloadSpec(burst_on=0.0)
    with pytest.raises(ScenarioError):
        WorkloadSpec(burst_off=-1.0)
    with pytest.raises(ScenarioError):
        WorkloadSpec(zipf_alpha=-0.1)


def test_scenario_spec_keys_for_diversity():
    scenario = scenario_from_spec(
        "figure2,arrival=bursty,burst-on=0.5,burst-off=2,zipf=1.1"
    )
    workload = scenario.workload
    assert workload.arrival == "bursty"
    assert workload.burst_on == 0.5
    assert workload.burst_off == 2.0
    assert workload.zipf_alpha == 1.1


def test_presets_for_diversity():
    from repro.scenarios.presets import get_scenario

    assert get_scenario("bursty").workload.arrival == "bursty"
    assert get_scenario("zipf").workload.zipf_alpha == 1.0


def test_simulated_run_with_zipf_and_bursty():
    from repro.scenarios import ScenarioRunner

    scenario = Scenario(
        transport="coap",
        workload=WorkloadSpec(
            num_queries=12, query_rate=10.0, arrival="bursty",
            burst_on=0.5, burst_off=1.0, zipf_alpha=1.0,
        ),
    )
    result = ScenarioRunner().run(scenario)
    assert len(result.outcomes) == 12
    assert result.success_rate > 0


# -- bulk Zipf sampling (the vectorized fleet path) ----------------------


def test_zipf_cumulative_is_cached_and_consistent():
    from itertools import accumulate

    from repro.sim import zipf_cumulative

    cumulative = zipf_cumulative(12, 1.1)
    assert cumulative == tuple(accumulate(zipf_weights(12, 1.1)))
    # lru_cache: the same (count, alpha) returns the same tuple object.
    assert zipf_cumulative(12, 1.1) is cumulative


def test_sample_zipf_many_stream_identical_to_singles():
    from repro.sim import sample_zipf_many, zipf_cumulative

    cumulative = zipf_cumulative(12, 1.1)
    bulk = sample_zipf_many(random.Random(9), cumulative, 200)
    singles_rng = random.Random(9)
    singles = [
        sample_zipf_many(singles_rng, cumulative, 1)[0] for _ in range(200)
    ]
    assert bulk == singles
    # ...and to the stdlib's own cumulative-weights sampling: exactly
    # one rng.random() per draw, same bisect, same stream.
    choices_rng = random.Random(9)
    choices = [
        choices_rng.choices(range(12), cum_weights=list(cumulative))[0]
        for _ in range(200)
    ]
    assert bulk == choices


def test_draw_name_indices_matches_repeated_single_draws():
    bulk_rng = random.Random(21)
    single_rng = random.Random(21)
    spec = WorkloadSpec(num_names=10, zipf_alpha=1.5)
    bulk = spec.draw_name_indices(bulk_rng, 50)
    singles = [spec.draw_name_index(single_rng, i) for i in range(50)]
    assert bulk == singles
    # Round-robin (no zipf) bulk draws consume no randomness and honour
    # the start index.
    plain = WorkloadSpec(num_names=4, zipf_alpha=None)
    assert plain.draw_name_indices(bulk_rng, 6, start_index=2) == [
        2, 3, 0, 1, 2, 3
    ]


def test_sample_zipf_many_validation():
    from repro.sim import sample_zipf_many, zipf_cumulative

    with pytest.raises(ValueError):
        sample_zipf_many(random.Random(1), zipf_cumulative(4, 1.0), -1)
    assert sample_zipf_many(random.Random(1), zipf_cumulative(4, 1.0), 0) == []
