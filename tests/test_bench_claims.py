"""Every performance claim on file holds up against its own runs.

A ``BENCH_PR<n>.json`` at the repository root (written by
``tools/claim.py``) keeps every run of its alternating pairs, and every
earlier claim made for the same PR in its ``earlier`` list. Nothing is
run here: the medians, quartiles, wins, ratio and gap of each seed are
recomputed from those runs, and must be the ones the file states, and so
must its verdict. A gain is met only if the change wins at least 90 % of
all pairs run, counted over every seed, and on each seed its median is
within the stated ratio of the parent's and better than it by more than
the parent's IQR.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import claim as claim_tool  # noqa: E402
CLAIMS = sorted(ROOT.glob("BENCH_PR*.json"))
SIDES = ("parent", "change")
MIN_WIN_SHARE = 0.9
#: name -> (lower is better, bound), ``BENCHMARK.json``'s end-to-end rows.
END_TO_END = {
    row["name"]: (row["better"] == "lower", row["bound"])
    for row in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}


def _load(path):
    return json.loads(path.read_text())


def _quartiles(values):
    values = sorted(values)
    low, median, high = (
        statistics.quantiles(values, n=4, method="inclusive")
        if len(values) > 1 else values * 3
    )
    assert median == pytest.approx(statistics.median(values))
    return low, median, high


def _pairs(claim, workload, seed, metric):
    """``{pair: {side: value}}`` of *metric* over one cell's runs, each
    pair run once on each side, correct and with nothing failed."""
    pairs = {}
    for run in claim["runs"]:
        if run["workload"] == workload and str(run["seed"]) == str(seed):
            assert run["correct"] and run["failed"] == 0
            assert run["side"] not in pairs.setdefault(run["pair"], {})
            pairs[run["pair"]][run["side"]] = run["metrics"][metric]
    assert pairs and all(set(pair) == set(SIDES) for pair in pairs.values())
    return pairs


def _verdict(claim) -> bool:
    """Check every stated figure of one claim against its runs; return
    whether the runs meet its acceptance (lower is better)."""
    acceptance = claim["acceptance"]
    metric = acceptance["metric"]
    assert acceptance["min_win_share"] == MIN_WIN_SHARE
    assert set(claim["host"]) >= {"nproc", "cpu_model", "python"}
    assert set(claim["trees"]) >= {"parent", "change"}
    assert set(claim["seeds"]) == {
        str(run["seed"]) for run in claim["runs"] if run["workload"] == claim["workload"]
    }
    all_pairs = all_wins = 0
    seeds_ok = True
    for seed, stated in claim["seeds"].items():
        pairs = _pairs(claim, claim["workload"], seed, metric)
        assert stated["pairs"] == len(pairs)
        wins = sum(pair["change"] < pair["parent"] for pair in pairs.values())
        assert stated["change_wins"] == wins
        medians, iqrs = {}, {}
        for side in SIDES:
            low, median, high = _quartiles(pair[side] for pair in pairs.values())
            assert stated[side]["median"] == pytest.approx(median)
            assert (stated[side]["q1"], stated[side]["q3"]) == pytest.approx((low, high))
            assert stated[side]["iqr"] == pytest.approx(high - low)
            medians[side], iqrs[side] = median, high - low
        ratio = medians["change"] / medians["parent"]
        gap = medians["parent"] - medians["change"]
        assert stated["ratio"] == pytest.approx(ratio)
        assert stated["gap"] == pytest.approx(gap)
        all_pairs += len(pairs)
        all_wins += wins
        seeds_ok = seeds_ok and ratio <= acceptance["max_ratio"] and gap > iqrs["parent"]
    return all_wins >= MIN_WIN_SHARE * all_pairs and seeds_ok


def _no_regression(claim):
    """Check the claim's ``no_regression`` table against its runs: every
    workload and seed run, every end-to-end metric of ``BENCHMARK.json``;
    return the verdicts, ``{(cell, metric): verdict}``."""
    table = claim["no_regression"]
    cells = {f"{run['workload']}/{run['seed']}" for run in claim["runs"]}
    assert set(table) == cells
    verdicts = {}
    for cell, rows in table.items():
        workload, seed = cell.rsplit("/", 1)
        assert set(rows) == set(END_TO_END)
        for metric, row in rows.items():
            lower, bound = END_TO_END[metric]
            assert row["bound"] == bound
            pairs = _pairs(claim, workload, seed, metric).values()
            values = {side: [pair[side] for pair in pairs] for side in SIDES}
            stats = {}
            for side in SIDES:
                low, median, high = _quartiles(values[side])
                assert (row[side]["q1"], row[side]["median"], row[side]["q3"]) == (
                    pytest.approx((low, median, high))
                )
                assert row[side]["iqr"] == pytest.approx(high - low)
                stats[side] = median, high - low
            base, change = stats["parent"][0], stats["change"][0]
            worse_by = (change - base) if lower else (base - change)
            if lower:
                all_better = max(values["change"]) < min(values["parent"])
            else:
                all_better = min(values["change"]) > max(values["parent"])
            if worse_by > bound * abs(base):
                expected = "worse"
            elif max(stats["parent"][1], stats["change"][1]) > bound * abs(base) and not all_better:
                expected = "unresolved"
            else:
                expected = "no worse"
            assert row["verdict"] == expected, (cell, metric)
            verdicts[cell, metric] = expected
    return verdicts


def test_there_is_a_claim_on_file():
    assert CLAIMS


@pytest.mark.parametrize("path", CLAIMS, ids=[path.name for path in CLAIMS])
def test_the_claim_is_what_its_runs_say(path):
    claim = _load(path)
    assert path.name == f"BENCH_PR{claim['pr']}.json"
    earlier = claim.get("earlier", [])
    assert all(block["pr"] == claim["pr"] and "earlier" not in block for block in earlier)
    for block in (claim, *earlier):
        assert block["acceptance"]["met"] is _verdict(block)
        _no_regression(block)


def _synthetic(parent_change_by_seed, max_ratio=0.9):
    """A claim file's shape around the given per-seed ``(parent,
    change)`` pairs, stating the summaries those runs give."""
    runs, seeds = [], {}
    for seed, pairs in parent_change_by_seed.items():
        for index, values in enumerate(pairs):
            for side, value in zip(SIDES, values):
                runs.append({
                    "workload": "w", "seed": seed, "pair": index, "side": side,
                    "correct": True,
                    "attempted": 1, "failed": 0, "metrics": {"cpu_us_per_op": value},
                })
        summary = {"pairs": len(pairs),
                   "change_wins": sum(c < p for p, c in pairs)}
        for side, column in zip(SIDES, zip(*pairs)):
            low, median, high = statistics.quantiles(
                sorted(column), n=4, method="inclusive"
            )
            summary[side] = {"q1": low, "median": median, "q3": high, "iqr": high - low}
        summary["ratio"] = summary["change"]["median"] / summary["parent"]["median"]
        summary["gap"] = summary["parent"]["median"] - summary["change"]["median"]
        seeds[str(seed)] = summary
    return {
        "pr": 0, "workload": "w", "host": {"nproc": 1, "cpu_model": "x", "python": "3"},
        "trees": {"parent": "a", "change": "b"}, "seeds": seeds, "runs": runs,
        "acceptance": {"metric": "cpu_us_per_op", "max_ratio": max_ratio,
                       "min_win_share": MIN_WIN_SHARE},
    }


def test_six_wins_in_ten_is_not_a_gain():
    # The medians are far apart (x0.80), but the change wins only 6 of 10.
    pairs = [(100.0, 80.0)] * 6 + [(100.0, 200.0)] * 4
    claim = _synthetic({1: pairs})
    assert claim["seeds"]["1"]["gap"] > claim["seeds"]["1"]["parent"]["iqr"]
    assert not _verdict(claim)


def test_a_gap_inside_the_parents_spread_is_not_a_gain():
    # 10 of 10 won and x0.89, but the parent's IQR (17.5) exceeds the gap.
    pairs = [(parent, parent - 11.0) for parent in
             (75.0, 80.0, 90.0, 95.0, 100.0, 100.0, 105.0, 110.0, 120.0, 125.0)]
    claim = _synthetic({1: pairs})
    assert claim["seeds"]["1"]["ratio"] <= 0.9
    assert not _verdict(claim)


def test_wins_count_over_every_seed():
    # 10 of 10 on one seed and 8 of 10 on the other: 18 of 20 is 90 %.
    won = [(100.0 + i, 80.0 + i) for i in range(10)]
    most = won[:8] + [(108.0, 200.0), (109.0, 201.0)]
    assert _verdict(_synthetic({1: won, 2: most}))
    fewer = won[:7] + [(107.0, 200.0), (108.0, 201.0), (109.0, 202.0)]
    claim = _synthetic({1: won, 2: fewer})
    assert all(s["gap"] > s["parent"]["iqr"] for s in claim["seeds"].values())
    assert not _verdict(claim)


def _guarded(cpu_us_per_op):
    """A claim's runs on one workload whose end-to-end metrics are all
    constant but ``cpu_us_per_op``, given as ``(parent, change)``
    pairs, with the ``no_regression`` table the claim tool writes."""
    runs = []
    for index, values in enumerate(cpu_us_per_op):
        for side, value in zip(SIDES, values):
            metrics = {metric: 1.0 for metric in END_TO_END}
            metrics["cpu_us_per_op"] = value
            runs.append({"workload": "w", "seed": 1, "pair": index, "side": side,
                         "correct": True, "attempted": 1, "failed": 0,
                         "metrics": metrics})
    return {"runs": runs, "no_regression": claim_tool.no_regression(runs)}


def test_no_regression_verdicts():
    steady = _guarded([(100.0 + i, 101.0 + i) for i in range(10)])
    assert set(_no_regression(steady).values()) == {"no worse"}
    # Medians 100 -> 130 with a narrow spread: worse than the 25 % bound.
    worse = _guarded([(100.0 + i, 130.0 + i) for i in range(10)])
    assert _no_regression(worse)["w/1", "cpu_us_per_op"] == "worse"
    # Same medians, but the parent's IQR (60) is wider than the bound.
    wide = [(60.0, 100.0), (140.0, 100.0)] * 5
    assert _no_regression(_guarded(wide))["w/1", "cpu_us_per_op"] == "unresolved"
    # As wide (IQR 135 around 235), but every change run reads better
    # than every parent run.
    better = _guarded([(100.0 + 30 * i, 10.0 + 5 * i) for i in range(10)])
    row = better["no_regression"]["w/1"]["cpu_us_per_op"]
    assert row["parent"]["iqr"] > row["bound"] * row["parent"]["median"]
    assert _no_regression(better)["w/1", "cpu_us_per_op"] == "no worse"
