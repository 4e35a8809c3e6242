"""Known defects, reproduced as strict xfails.

Each test states what the program should do and fails today for a
known reason, so tier-1 shows every open defect by name. The change
that fixes a defect removes its mark; a strict xfail that starts to
pass fails the run until then.
"""

import pytest

from repro import api


@pytest.mark.xfail(strict=True, reason="defect (b), ROADMAP item 1")
@pytest.mark.parametrize("seed", [1, 4])
def test_lossy_oscore_loses_queries_only_to_timeouts(seed):
    """Every client shares one Sender ID, so a request that spent its
    back-off behind newer ones falls out of the server's replay window
    and fails with an ``OscoreError`` no counter names. Seeds 1 and 4
    lose 2 and 3 queries that way, and none to a timeout."""
    report = api.run(
        f"figure2,transport=oscore,loss=0.4,queries=200,seed={seed}"
    )
    metrics = report.metrics
    assert metrics["queries.failed"] == metrics["queries.timeouts"]
