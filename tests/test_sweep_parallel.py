"""Parallel sweep execution: determinism and plumbing.

The acceptance bar for parallel execution is bit-identical results:
``sweep(workers=4)`` must produce exactly the raw results (and so the
Reports) of ``sweep(workers=1)`` for a grid that exercises the
cache-placement and scheme axes, because every cell seeds its own
simulator and no state crosses cells.
"""

import pytest

from repro.api import RunSpec, run
from repro.scenarios import Scenario, ScenarioRunner, WorkloadSpec


def _small_base() -> Scenario:
    return Scenario(
        workload=WorkloadSpec(num_queries=8, num_names=8),
        run_duration=120.0,
    )


def _assert_cells_identical(one, other):
    """Same cells in the same grid order, and bit-identical results:
    exact floats in the raw outcomes, link tallies and cache counters
    (the simulations are deterministic), hence equal Reports."""
    assert [cell.key for cell in one] == [cell.key for cell in other]
    for a, b in zip(one, other):
        assert a.result.outcomes == b.result.outcomes
        assert a.result.link == b.result.link
        assert a.result.cache_stats == b.result.cache_stats
        assert a.report().metrics == b.report().metrics


class TestParallelSweepDeterminism:
    def test_process_pool_matches_serial_with_cache_axes(self):
        runner = ScenarioRunner()
        grid = dict(
            base=_small_base(),
            transports=("coap",),
            topologies=("figure2",),
            losses=(0.05,),
            cache_placements=("none", "client-coap+proxy"),
            schemes=("doh-like", "eol-ttls"),
        )
        serial = runner.sweep(**grid, workers=1)
        parallel = runner.sweep(**grid, workers=4)
        assert len(serial) == len(parallel) == 4
        _assert_cells_identical(serial, parallel)

    def test_explicit_process_executor_name(self):
        runner = ScenarioRunner()
        grid = dict(
            base=_small_base(),
            transports=("udp", "coap"),
            topologies=("one-hop",),
            losses=(0.05,),
        )
        serial = runner.sweep(**grid, workers=1)
        process = runner.sweep(**grid, workers=2)
        _assert_cells_identical(serial, process)

    def test_enumerate_cells_is_pure(self):
        runner = ScenarioRunner()
        cells = runner.enumerate_cells(
            base=_small_base(),
            transports=("coap",),
            topologies=("figure2",),
            losses=(0.05, 0.25),
        )
        assert [cell.result for cell in cells] == [None, None]
        assert [cell.scenario.topology.loss for cell in cells] == [0.05, 0.25]

    def test_sweep_cells_use_counting_capture(self):
        # Sweep metrics only read aggregate frame tallies; the cells
        # must still report non-zero link utilisation through them.
        runner = ScenarioRunner()
        sweep = runner.sweep(
            base=_small_base(),
            transports=("coap",),
            topologies=("figure2",),
            losses=(0.0,),
        )
        metrics = sweep.cell("coap", "figure2", 0.0).report().metrics
        assert metrics["sim.link.frames_1hop"] > 0
        assert metrics["sim.link.bytes_2hop"] > 0
        assert metrics["queries.success_rate"] == 1.0


class TestRepeatedRunsParallel:
    def test_repeats_workers_match_serial(self):
        spec = RunSpec.from_spec("queries=6,names=6,repeats=3")
        serial = run(spec).raw
        parallel = run(RunSpec.from_spec("workers=3", base=spec)).raw
        assert [r.scenario.seed for r in serial] == [1, 1001, 2001]
        assert [r.resolution_times for r in serial] == [
            r.resolution_times for r in parallel
        ]
        assert [r.link.frames_1hop for r in serial] == [
            r.link.frames_1hop for r in parallel
        ]


class TestExecutors:
    def test_workers_at_most_one_run_in_process(self):
        from repro.scenarios import ordered_map

        # A lambda cannot cross a process boundary, so these only pass
        # when the map stays in this process.
        assert ordered_map(lambda n: n + 1, [1, 2, 3]) == [2, 3, 4]
        assert ordered_map(lambda n: n + 1, [1, 2, 3], workers=1) == [2, 3, 4]
        assert ordered_map(lambda n: n + 1, [5], workers=4) == [6]

    def test_more_workers_run_in_other_processes(self):
        import os

        from repro.scenarios import ordered_map

        pids = ordered_map(_pid, list(range(6)), workers=3)
        assert os.getpid() not in pids

    def test_invalid_worker_count_rejected(self):
        from repro.scenarios import ExecutorError, ordered_map

        with pytest.raises(ExecutorError):
            ordered_map(_square, [1, 2], workers=0)

    def test_process_map_preserves_order(self):
        from repro.scenarios import ordered_map

        result = ordered_map(_square, list(range(12)), workers=4)
        assert result == [n * n for n in range(12)]

    def test_serial_map(self):
        from repro.scenarios import ordered_map

        assert ordered_map(_square, [1, 2, 3]) == [1, 4, 9]


def _pid(_item: int) -> int:
    import os

    return os.getpid()


def _square(n: int) -> int:
    return n * n
