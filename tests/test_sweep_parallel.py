"""Parallel sweep execution: determinism, plumbing and banked digests.

The acceptance bar for parallel execution is bit-identical results:
``sweep(workers=4)`` must produce exactly the raw results (and so the
Reports) of ``sweep(workers=1)`` for a grid that exercises the
cache-placement and scheme axes, because every cell seeds its own
simulator and no state crosses cells. The 8-cell grid's Report
metrics are pinned by digest, so a change that moves any of them
fails here rather than only against a second run of itself.
"""

import hashlib
import json

import pytest

from repro.api import RunSpec, run, sweep
from repro.scenarios import Scenario, WorkloadSpec

#: sha256 of each cell's canonical ``Report.metrics`` JSON (sorted
#: keys, no whitespace) for the 8-cell grid at ``num_queries=6``.
EIGHT_CELL_DIGESTS = {
    "coap/figure2/0.05":
        "b6d108f8e88b48a4a30c80a7d0c2540f0b1f0eb8af7442cf4268d96d7db74408",
    "coap/figure2/0.25":
        "69b63d095380768273a7334dba4f132efc7352563848f3960bf6e98b1a8fb047",
    "coap/one-hop/0.05":
        "57f1a0ba67be6a047671b212bd21e169254cb9ac496ffb091dbb23c52a971283",
    "coap/one-hop/0.25":
        "b8360f7d6e61a726533409a3d6ecc48978c6223958133b6c18770783d8d007fe",
    "oscore/figure2/0.05":
        "cc81a4eef98b906494ea7730abb37631eb988968868a643d6ac6cf2040cee0c6",
    "oscore/figure2/0.25":
        "4ac75e43b8e27e5d473b896782511198b197211a45ea835745b0de63b6760053",
    "oscore/one-hop/0.05":
        "f5af9389d375fcb5f6172006dcfeb069b654c46e59adf70a24df027f4e76b82b",
    "oscore/one-hop/0.25":
        "9bc63872237ef2180dea0a9f5bab03780a9445832ae0170c4c2dca22a16ee7e3",
}


def _small_base() -> Scenario:
    return Scenario(
        workload=WorkloadSpec(num_queries=8, num_names=8),
        run_duration=120.0,
    )


def _assert_cells_identical(one, other):
    """Same cells in the same grid order, and bit-identical results:
    exact floats in the raw outcomes, link tallies and cache counters
    (the simulations are deterministic), hence equal Reports."""
    assert list(one) == list(other)
    for a, b in zip(one.values(), other.values()):
        assert a.raw.outcomes == b.raw.outcomes
        assert a.raw.link == b.raw.link
        assert a.raw.cache_stats == b.raw.cache_stats
        assert a.metrics == b.metrics
        assert a.spec == b.spec
        assert a.telemetry == b.telemetry


def _digest(metrics) -> str:
    text = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestParallelSweepDeterminism:
    def test_process_pool_matches_serial_with_cache_axes(self):
        grid = dict(
            transports=("coap",),
            topologies=("figure2",),
            losses=(0.05,),
            cache_placements=("none", "client-coap+proxy"),
            schemes=("doh-like", "eol-ttls"),
        )
        serial = sweep(_small_base(), **grid, workers=1)
        parallel = sweep(_small_base(), **grid, workers=4)
        assert len(serial) == len(parallel) == 4
        _assert_cells_identical(serial, parallel)

    def test_explicit_process_executor_name(self):
        grid = dict(
            transports=("udp", "coap"),
            topologies=("one-hop",),
            losses=(0.05,),
        )
        serial = sweep(_small_base(), **grid, workers=1)
        process = sweep(_small_base(), **grid, workers=2)
        _assert_cells_identical(serial, process)

    def test_sweep_cells_use_counting_capture(self):
        # Sweep metrics only read aggregate frame tallies; the cells
        # must still report non-zero link utilisation through them.
        reports = sweep(
            _small_base(),
            transports=("coap",),
            topologies=("figure2",),
            losses=(0.0,),
        )
        metrics = reports["coap/figure2/0"].metrics
        assert metrics["sim.link.frames_1hop"] > 0
        assert metrics["sim.link.bytes_2hop"] > 0
        assert metrics["queries.success_rate"] == 1.0

    def test_eight_cell_grid_matches_banked_digests(self):
        reports = sweep(
            Scenario(workload=WorkloadSpec(num_queries=6)),
            transports=("coap", "oscore"),
            topologies=("figure2", "one-hop"),
            losses=(0.05, 0.25),
            workers=2,
        )
        assert {
            key: _digest(report.metrics) for key, report in reports.items()
        } == EIGHT_CELL_DIGESTS


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
