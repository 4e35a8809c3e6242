"""Figure 7: name resolution time CDFs for 50 Poisson queries."""

import pytest

from repro.api import RunSpec, run
from repro.experiments.metrics import fraction_below, percentile
from repro.scenarios import Scenario, TopologySpec, WorkloadSpec

from conftest import print_rows

#: The lossy-testbed regime: per-frame loss with a single MAC retry so
#: the CoAP retransmission layer is exercised (the paper's links
#: saturate under the Poisson load).
LOSS = 0.25
L2_RETRIES = 1


#: The paper repeats every run 10 times (Section 5.1); three
#: repetitions keep the benchmark fast while smoothing the CDFs.
REPETITIONS = 3


def _run(transport, rtype_name, seed=1, repeats=1):
    """The raw result of one run — or, with *repeats*, the list of the
    repetitions' results (seeds spaced ``seed + 1000·k``)."""
    from repro.dns import RecordType

    rtype = RecordType.AAAA if rtype_name == "AAAA" else RecordType.A
    scenario = Scenario(
        transport=transport,
        topology=TopologySpec(loss=LOSS, l2_retries=L2_RETRIES),
        workload=WorkloadSpec(num_queries=50, rtype_mix=((int(rtype), 1.0),)),
        seed=seed,
        run_duration=300.0,
    )
    return run(RunSpec.from_scenario(scenario, repeats=repeats)).raw


class _Pooled:
    """Repetition-pooled view with the single-run interface."""

    def __init__(self, runs):
        self.runs = runs
        self.resolution_times = [
            t for run in runs for t in run.resolution_times
        ]
        self.outcomes = [o for run in runs for o in run.outcomes]

    @property
    def success_rate(self):
        return len(self.resolution_times) / len(self.outcomes)


@pytest.fixture(scope="module")
def results():
    out = {}
    for rtype in ("A", "AAAA"):
        for transport in ("udp", "dtls", "coap", "coaps", "oscore"):
            out[(transport, rtype)] = _Pooled(
                _run(transport, rtype, repeats=REPETITIONS)
            )
    return out


def test_fig7_resolution_time_cdfs(results, benchmark):
    benchmark(_run, "coap", "AAAA", 2)

    rows = []
    for (transport, rtype), result in results.items():
        times = result.resolution_times
        rows.append(
            (
                transport,
                rtype,
                f"{result.success_rate:.2f}",
                f"{100 * fraction_below(times, 0.25):.0f}%",
                f"{percentile(times, 50) * 1000:.0f} ms",
                f"{100 * fraction_below(times, 20.0):.0f}%",
                f"{max(times):.1f} s",
            )
        )
    print_rows(
        "Figure 7 — resolution times (50 queries, lambda=5/s)",
        ["transport", "record", "success", "<250ms", "median", "<20s", "max"],
        rows,
    )

    # Shape claims of Section 5.4.
    for rtype in ("A", "AAAA"):
        for key in results:
            assert results[key].success_rate >= 0.9

    # UDP/A is the fastest configuration (nothing fragments).
    udp_a = results[("udp", "A")].resolution_times
    for transport in ("dtls", "coaps", "oscore"):
        other = results[(transport, "A")].resolution_times
        assert fraction_below(udp_a, 0.25) >= fraction_below(other, 0.25)

    # Fully-fragmenting transports (DTLS/CoAPS/OSCORE) group within a
    # modest band of each other, below the non-fragmenting UDP/A.
    fractions = [
        fraction_below(results[(t, "AAAA")].resolution_times, 0.25)
        for t in ("dtls", "coaps", "oscore")
    ]
    assert max(fractions) - min(fractions) < 0.35

    # The long tail is driven by the exponential back-off: the slowest
    # resolutions take tens of seconds, not minutes.
    for result in results.values():
        assert max(result.resolution_times) < 100.0
