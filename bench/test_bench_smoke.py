"""Smoke test of the benchmark itself: every workload at 1/50 size, one
traced run, and the checks that must turn a wrong output into a failure
instead of a number."""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from bench import metrics, workloads
from bench.run import BENCH_DIR, ROOT, SMOKE_SCALE, verdict

RUN = [sys.executable, os.path.join(BENCH_DIR, "run.py")]


def run_bench(*arguments):
    """Run one workload the way a driver does; returns (exit code,
    contract result, detail)."""
    child = subprocess.run(
        [*RUN, "--scale", str(SMOKE_SCALE), "--seconds", "0",
         "--setup-samples", "1", *arguments],
        capture_output=True, text=True, timeout=120,
    )
    lines = child.stdout.splitlines()
    detail = next(
        json.loads(line[len("#detail "):])
        for line in lines if line.startswith("#detail ")
    )
    return child.returncode, json.loads(lines[-1]), detail, child.stdout


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_reports_every_end_to_end_metric(name):
    code, result, detail, printed = run_bench("--workload", name)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert detail["banked_check"] == "checked"
    assert detail["legs"] >= workloads.MIN_LEGS
    assert result["attempted"] == detail["legs"] * workloads.scaled_size(
        workloads.WORKLOADS[name], SMOKE_SCALE
    ) * max(1, len(workloads.WORKLOADS[name].cells))
    assert list(result["metrics"]) == [row[0] for row in metrics.END_TO_END]
    for metric, unit, _, _ in metrics.END_TO_END:
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] > 0
        assert f"{metric} " in printed and f" {unit}\n" in printed


def test_traced_run_reports_every_per_layer_metric_and_adds_up():
    code, result, detail, _ = run_bench(
        "--workload", "live_coap_hot", "--trace", "1"
    )
    assert code == 0 and result["correct"]
    assert list(result["metrics"]) == [row[0] for row in metrics.PER_LAYER]
    for metric, unit, _ in metrics.PER_LAYER:
        assert result["metrics"][metric]["unit"] == unit
    value = {name: entry["value"] for name, entry in result["metrics"].items()}
    trace = detail["trace"]
    # Self times partition the top-level spans ...
    assert trace["self_s"] == pytest.approx(trace["top_level_s"], rel=0.01)
    # ... and self + residual is the CPU time of the traced legs.
    cpu_us = trace["cpu_s"] * 1e6 / trace["ops"]
    self_us = trace["self_s"] * 1e6 / trace["ops"]
    assert self_us + value["loop.residual_us_per_op"] == pytest.approx(
        cpu_us, rel=0.01
    )
    assert value["trace.coverage"] == pytest.approx(self_us / cpu_us, rel=0.01)
    assert value["trace.targets_missing"] == 0
    assert value["doc.server.fastpath_hit_ratio"] > 0.8
    assert value["crypto.ccm.calls_per_op"] == 0
    assert value["live.transport.recv.self_us_per_op"] > 0
    assert os.path.exists(
        os.path.join(BENCH_DIR, "out", "trace-live_coap_hot.jsonl")
    )


def test_wrong_banked_digest_fails_the_run(tmp_path):
    with open(os.path.join(BENCH_DIR, "expected.json")) as file:
        expected = json.load(file)
    key = workloads.expected_key(workloads.DEFAULT_SEED, SMOKE_SCALE)
    expected["counters"]["sim_secure"][key]["digests"][0] = "0" * 64
    doctored = tmp_path / "expected.json"
    doctored.write_text(json.dumps(expected))
    code, result, detail, _ = run_bench(
        "--workload", "sim_secure", "--expected", str(doctored)
    )
    assert code != 0
    assert result["correct"] is False and result["metrics"] == {}
    assert any("banked" in problem for problem in detail["problems"])


def test_wrong_zone_answer_fails_the_leg():
    leg = workloads.Leg(ops=1)
    zone = [workloads.zone_address(10)]
    right = SimpleNamespace(rcode=0, addresses=["2001:db8::a:1"])
    wrong = SimpleNamespace(rcode=0, addresses=["2001:db8::b:1"])
    refused = SimpleNamespace(rcode=5, addresses=[])
    workloads.check_answer(leg, "name0010", right, zone)
    assert leg.failed == 0 and not workloads.check_legs([leg], None)
    workloads.check_answer(leg, "name0010", wrong, zone)
    workloads.check_answer(leg, "name0010", refused, zone)
    assert leg.failed == 2
    assert len(workloads.check_legs([leg], None)) == 2


def test_legs_must_count_alike():
    first = workloads.Leg(counters={"digests": ["a"]})
    second = workloads.Leg(counters={"digests": ["b"]})
    assert workloads.check_legs([first, second], None)
    assert not workloads.check_legs([first, first], {"digests": ["a"]})


def test_compare_verdicts():
    assert verdict("higher", 0.1, 100, 95) == "within-bound"
    assert verdict("higher", 0.1, 100, 80) == "worse"
    assert verdict("lower", 0.1, 100, 80) == "better"
    # A shift beyond the bound is unresolved when the legs are noisier
    # than the bound and overlap.
    assert verdict(
        "higher", 0.1, 100, 80, [70, 100, 130], [60, 80, 100]
    ) == "unresolved"
    assert verdict(
        "higher", 0.1, 100, 80, [99, 100, 101], [79, 80, 81]
    ) == "worse"


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as file:
        contract = json.load(file)
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in contract["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == list(metrics.PER_LAYER)
