"""Figure 15: resolution times with block-wise transfer (Appendix D)."""

from dataclasses import replace

import pytest

from repro.experiments.metrics import percentile
from repro.scenarios import Scenario, ScenarioRunner, TopologySpec

from conftest import print_rows

BASE = Scenario(
    transport="coap",
    topology=TopologySpec(loss=0.2, l2_retries=1),
    seed=12,
    run_duration=400.0,
)


def _run(block_size):
    return ScenarioRunner().run(replace(BASE, block_size=block_size))


@pytest.fixture(scope="module")
def runs():
    return {
        label: _run(size)
        for label, size in (
            ("no blockwise", None),
            ("16 bytes", 16),
            ("32 bytes", 32),
            ("64 bytes", 64),
        )
    }


def test_fig15_blockwise_resolution_times(runs, benchmark):
    benchmark(_run, 32)

    rows = []
    for label, result in runs.items():
        times = result.resolution_times
        rows.append(
            (
                label,
                f"{result.success_rate:.2f}",
                f"{percentile(times, 50) * 1000:.0f} ms" if times else "-",
                f"{percentile(times, 90):.2f} s" if times else "-",
                f"{max(times):.1f} s" if times else "-",
            )
        )
    print_rows(
        "Figure 15 — resolution times with block-wise transfer",
        ["block size", "success", "median", "p90", "max"],
        rows,
    )

    # "performance decreases with smaller block sizes": the 16-byte
    # configuration needs more messages and resolves slower than
    # larger blocks / no block-wise.
    median = {
        label: percentile(result.resolution_times, 50)
        for label, result in runs.items()
    }
    assert median["16 bytes"] >= median["no blockwise"]
    assert median["16 bytes"] >= median["32 bytes"]

    # More frames cross the medium with smaller blocks (the congestion
    # source in the paper's testbed).
    frames = {
        label: result.link.frames_2hop + result.link.frames_1hop
        for label, result in runs.items()
    }
    assert frames["16 bytes"] > frames["32 bytes"] > frames["no blockwise"]

    # Appendix D: "With a block size of 16 bytes, only ≈90% [of CoAP]
    # name resolutions complete" — small blocks lose resolutions to
    # congestion; larger blocks and no-blockwise stay near-complete.
    assert runs["16 bytes"].success_rate >= 0.6
    assert runs["16 bytes"].success_rate <= runs["no blockwise"].success_rate
    for label in ("no blockwise", "32 bytes", "64 bytes"):
        assert runs[label].success_rate >= 0.9
