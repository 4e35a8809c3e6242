"""Known defects, reproduced as strict xfails.

Each test states what the program should do and fails today for a
known reason, so tier-1 shows every open defect by name. The change
that fixes a defect removes its mark, and the test stays as the
defect's regression test; a strict xfail that starts to pass fails the
run until then.
"""

import pytest

from repro import api


@pytest.mark.parametrize("seed", [1, 4])
def test_lossy_oscore_loses_queries_only_to_timeouts(seed):
    """Defect (b), mended: when every client shared one Sender ID, a
    request that spent its back-off behind newer ones of the other
    client fell out of the server's replay window and failed with an
    ``OscoreError`` no counter names; seeds 1 and 4 lost 2 and 3 queries
    that way. Each client now has its own Sender ID and window."""
    report = api.run(
        f"figure2,transport=oscore,loss=0.4,queries=200,seed={seed}"
    )
    metrics = report.metrics
    assert metrics["queries.failed"] == metrics["queries.timeouts"]
