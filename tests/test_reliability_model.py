"""The simulator's loss and retransmission against a closed form.

``reliability_model_reference`` predicts a query's success rate from
the per-hop loss, the MAC retries and the frame-hops one attempt
crosses, which is read off a lossless run of the same spec. Each cell
of the grid must land within three binomial standard errors of it.

OSCORE is left out: defect (b) (ROADMAP item 1) shows under the
concurrency of figure2 at loss 0.4, and on this grid's cells OSCORE
stays inside the bound, so a strict xfail would not hold.
"""

from __future__ import annotations

import pytest

import reliability_model_reference as model
from repro.api import run
from repro.coap.reliability import ReliabilityParams

QUERIES = 1000
RATE = 0.2  # queries per second: one every 5 s, most of them alone
#: Long enough for the last query to give up, however late it is sent.
DURATION = QUERIES / RATE * 2 + model.MAX_TRANSMIT_WAIT


def _spec(transport, hops, loss, queries):
    return (
        f"one-hop,hops={hops},transport={transport},loss={loss},retries=0,"
        f"queries={queries},rate={RATE},seed=7,duration={DURATION:g}"
    )


def _frame_hops(transport, hops):
    """Frame-hops per attempt, request and response, with nothing lost."""
    metrics = run(_spec(transport, hops, 0, 10)).metrics
    frames = metrics["sim.link.queries_frames"] + metrics["sim.link.responses_frames"]
    return frames / metrics["queries.issued"]


def test_the_model_restates_the_simulated_constants():
    params = ReliabilityParams()
    assert (params.ack_timeout, params.ack_random_factor, params.max_retransmit) == (
        model.ACK_TIMEOUT, model.ACK_RANDOM_FACTOR, model.MAX_RETRANSMIT
    )
    assert model.MAX_TRANSMIT_WAIT == 93.0


def test_the_model_gives_the_predicted_column_of_roadmap_item_18():
    # One request frame and two response frames per hop (read off the
    # wire below), no MAC retries.
    assert {
        (loss, hops): round(model.success_rate(loss, 0, 3 * hops), 3)
        for loss in (0.3, 0.5) for hops in (1, 2)
    } == {(0.3, 1): 0.878, (0.3, 2): 0.465, (0.5, 1): 0.487, (0.5, 2): 0.076}


@pytest.mark.parametrize("hops", [1, 2])
@pytest.mark.parametrize("transport", ["udp", "coap"])
def test_a_hop_carries_one_request_frame_and_two_response_frames(transport, hops):
    assert _frame_hops(transport, hops) == 3 * hops


@pytest.mark.parametrize("loss", [0.3, 0.5])
@pytest.mark.parametrize("hops", [1, 2])
@pytest.mark.parametrize("transport", ["udp", "coap"])
def test_the_success_rate_is_within_three_standard_errors(transport, hops, loss):
    predicted = model.success_rate(loss, 0, _frame_hops(transport, hops))
    metrics = run(_spec(transport, hops, loss, QUERIES)).metrics
    assert metrics["queries.issued"] == QUERIES
    bound = 3 * model.binomial_se(predicted, QUERIES)
    assert abs(metrics["queries.success_rate"] - predicted) <= bound
