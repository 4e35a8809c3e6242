"""Tests for the `repro.perf` subsystem.

Covers the harness mechanics (registration, measurement, JSON reports,
baseline comparison), the golden codec vectors — including the
checked-in ``tests/golden_codec_vectors.json`` copy staying in sync —
and the ordered map the macro benchmarks' sweeps fan out over.
"""

import json
import os

import pytest

from repro.perf import golden
from repro.perf.harness import (
    Benchmark,
    BenchmarkError,
    benchmark_names,
    build_report,
    compare_reports,
    gate_regressions,
    get_benchmark,
    run_one,
    write_report,
)


class TestGoldenVectors:
    def test_verify_passes(self):
        assert golden.verify() == len(golden.vectors())

    def test_vectors_cover_both_codecs(self):
        codecs = {v.codec for v in golden.vectors()}
        assert codecs == {"coap", "dns"}

    def test_encode_matches_golden_bytes(self):
        for vector in golden.vectors():
            assert vector.build().encode().hex() == vector.wire_hex, vector.name

    def test_checked_in_json_matches_golden_module(self):
        path = os.path.join(os.path.dirname(__file__), "golden_codec_vectors.json")
        with open(path, "r", encoding="utf-8") as handle:
            checked_in = json.load(handle)
        from_module = [
            {"name": v.name, "codec": v.codec, "wire_hex": v.wire_hex}
            for v in golden.vectors()
        ]
        assert checked_in["vectors"] == from_module

    def test_mismatch_raises(self, monkeypatch):
        vector = golden.vectors()[0]
        bad = golden.GoldenVector(
            vector.name, vector.codec, vector.build, "00" * 8
        )
        monkeypatch.setattr(golden, "vectors", lambda: [bad])
        with pytest.raises(golden.GoldenMismatch):
            golden.verify()


class TestHarness:
    def test_registered_benchmarks_present(self):
        names = benchmark_names()
        for expected in (
            "sweep_serial",
            "sweep_process4",
            "single_resolution",
            "coap_encode",
            "coap_decode",
            "dns_encode",
            "dns_decode",
            "aesccm_seal",
            "aesccm_open",
            "sim_event_churn",
            "cache_lookup",
        ):
            assert expected in names

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(BenchmarkError):
            get_benchmark("no-such-benchmark")

    def test_run_one_measures(self):
        bench = Benchmark("t", "test", "op", lambda quick: 7)
        result = run_one(bench, repeats=3, warmup=1)
        assert result.error is None
        assert len(result.times_s) == 3
        assert result.units == 7
        assert result.best_s <= result.mean_s
        assert result.per_unit_us > 0

    def test_run_one_captures_errors(self):
        def boom(quick):
            raise RuntimeError("kaput")

        result = run_one(Benchmark("t", "test", "op", boom), repeats=2)
        assert result.error == "RuntimeError: kaput"
        assert result.times_s == []

    def test_setup_guard_runs_before_timing(self):
        calls = []
        bench = Benchmark(
            "t", "test", "op", lambda quick: calls.append("fn") or 1,
            setup=lambda: calls.append("setup"),
        )
        run_one(bench, repeats=1, warmup=0)
        assert calls[0] == "setup"

    def test_report_roundtrip_and_compare(self, tmp_path):
        # The work must take measurable time — a zero-duration entry is
        # (correctly) excluded from baseline comparisons.
        bench = Benchmark("t", "test", "op", lambda quick: sum(range(200_000)) and 100)
        results = [run_one(bench, repeats=2, warmup=0)]
        path = tmp_path / "bench.json"
        report = write_report(str(path), results)
        on_disk = json.loads(path.read_text())
        assert on_disk["schema"] == "repro.perf/1"
        assert on_disk["results"][0]["name"] == "t"
        assert on_disk["results"][0]["units"] == 100
        # Compare a second run against the written baseline.
        again = [run_one(bench, repeats=2, warmup=0)]
        comparison = compare_reports(on_disk, again)
        assert "t" in comparison
        assert comparison["t"]["speedup"] > 0
        with_baseline = build_report(again, quick=False, baseline=report)
        assert "comparison" in with_baseline

    def test_errored_benchmarks_excluded_from_comparison(self):
        good = Benchmark("ok", "d", "op", lambda quick: 1)
        baseline = build_report([run_one(good, repeats=1, warmup=0)], quick=False)

        def boom(quick):
            raise RuntimeError("x")

        failed = run_one(Benchmark("ok", "d", "op", boom), repeats=1)
        assert compare_reports(baseline, [failed]) == {}

    def test_cli_quick_smoke(self, capsys):
        from repro.perf.__main__ import main

        assert main(["--only", "sim_event_churn", "--quick", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "sim_event_churn" in out

    def test_cli_list(self, capsys):
        from repro.perf.__main__ import main

        assert main(["--list"]) == 0
        assert "coap_encode" in capsys.readouterr().out


class TestGate:
    """--gate regression thresholds over a comparison document."""

    @staticmethod
    def _comparison(speedup, name="dns_decode"):
        return {name: {"speedup": speedup}}

    def test_within_threshold_passes(self):
        assert gate_regressions(self._comparison(0.85), 0.25) == []

    def test_improvement_passes(self):
        assert gate_regressions(self._comparison(1.6), 0.25) == []

    def test_regression_beyond_threshold_fails(self):
        failures = gate_regressions(self._comparison(0.5), 0.25)
        assert [f["name"] for f in failures] == ["dns_decode"]
        assert failures[0]["regression"] == 1.0  # 2x slower
        assert failures[0]["allowed"] == 0.25

    def test_noisy_benchmark_override_loosens(self):
        # live_loopback is allowed 60%: a 43% slowdown passes there but
        # would fail a benchmark on the default threshold.
        noisy = self._comparison(0.7, name="live_loopback")
        assert gate_regressions(noisy, 0.25) == []
        assert gate_regressions(self._comparison(0.7), 0.25)

    def test_negative_threshold_rejected(self):
        with pytest.raises(BenchmarkError):
            gate_regressions({}, -0.1)

    def test_cli_gate_requires_compare(self, capsys):
        from repro.perf.__main__ import main

        code = main(
            ["--only", "sim_event_churn", "--quick", "--repeats", "1",
             "--gate", "0.25"]
        )
        assert code == 2

    def test_cli_gate_pass_and_fail(self, tmp_path, capsys):
        from repro.perf.__main__ import main

        # Best of three: the baseline is doctored 10x below, and a single
        # 3 ms sample read 8x slow (one pause of the host or the garbage
        # collector is enough) in 3 of 22 runs of the whole suite, which
        # lets the doctored gate pass.
        base = tmp_path / "base.json"
        assert main(
            ["--only", "sim_event_churn", "--quick", "--repeats", "3",
             "--json", str(base)]
        ) == 0

        # Same machine, same workload, generous threshold: passes.
        out = tmp_path / "out.json"
        assert main(
            ["--only", "sim_event_churn", "--quick", "--repeats", "1",
             "--json", str(out), "--compare", str(base), "--gate", "10.0"]
        ) == 0
        assert json.loads(out.read_text())["gate"]["passed"] is True

        # Doctor the baseline 10x faster — an artificial >25% regression
        # — and the gate must trip with its distinct exit code.
        doc = json.loads(base.read_text())
        for entry in doc["results"]:
            entry["per_unit_us"] = entry["per_unit_us"] / 10
            entry["best_s"] = entry["best_s"] / 10
        base.write_text(json.dumps(doc))
        code = main(
            ["--only", "sim_event_churn", "--quick", "--repeats", "1",
             "--json", str(out), "--compare", str(base), "--gate", "0.25"]
        )
        assert code == 3
        written = json.loads(out.read_text())
        assert written["gate"]["passed"] is False
        assert written["gate"]["failures"][0]["name"] == "sim_event_churn"
        assert "GATE FAIL" in capsys.readouterr().err


class TestAllocationBudget:
    """tracemalloc micro-asserts pinning the zero-copy decode contract."""

    def test_coap_decode_materialises_payload_once(self):
        import gc
        import tracemalloc

        from repro.coap import CoapMessage, Code

        payload = bytes(range(256)) * 16  # 4 KiB
        wire = CoapMessage.request(
            Code.POST, "/dns", payload=payload, token=b"\x01"
        ).encode()
        rounds = 50
        CoapMessage.decode(wire)  # warm enum/option caches
        gc.collect()
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        decoded = [CoapMessage.decode(wire) for _ in range(rounds)]
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert decoded[-1].payload == payload
        # One boundary copy of the payload plus small fixed overhead
        # (message object, token, options); a second hidden copy of the
        # wire or payload would blow well past 1.5x.
        per_decode = (after - before) / rounds
        assert per_decode < len(payload) * 1.5, per_decode

    def test_memoryview_decode_allocates_no_extra(self):
        import gc
        import tracemalloc

        from repro.coap import CoapMessage, Code

        payload = bytes(range(256)) * 16
        wire = CoapMessage.request(
            Code.POST, "/dns", payload=payload, token=b"\x01"
        ).encode()
        view = memoryview(wire)
        rounds = 50
        CoapMessage.decode(view)
        gc.collect()
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        decoded = [CoapMessage.decode(view) for _ in range(rounds)]
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert decoded[-1].payload == payload
        per_decode = (after - before) / rounds
        assert per_decode < len(payload) * 1.5, per_decode


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
