#!/usr/bin/env python3
"""A performance claim on file: the parent commit (``HEAD``) and the
working tree, run as alternating pairs of ``bench/run.py``, written to
``BENCH_PR<n>.json`` at the repository root. The claimed metric is
``cpu_us_per_op``, for which lower is better.

    python3 tools/claim.py --pr N --workload live_oscore_hot \\
        --seeds 20230 4711 --pairs 10 --seconds 8 --max-ratio 0.90 \\
        --guard live_coap_hot live_coap_wide sim_lossy_plain sim_secure fleet_1m

Both trees are exported to a scratch directory (``git archive`` of
``HEAD``; the working tree's tracked and untracked, not ignored, files),
so each run builds what it runs from its own copy. For every
seed, pair *i* runs one side and then the other, the parent first on
even pairs and the working tree first on odd ones, so that a drift of
the host during the claim falls on both sides alike. Each run is
``bench/run.py --workload W --seed S --seconds T``, and its last line,
the contract JSON, is kept whole. Each ``--guard`` workload, on which
no gain is claimed, is run the same way on the first seed.

The file holds the host (``nproc``, CPU model, Python), both trees,
every run's end-to-end metrics, and per seed the medians, quartiles,
IQRs, win counts, the ratio of medians and their gap, with whether the
runs meet the claim's acceptance (:func:`meets`). Its ``no_regression``
table gives, for every workload and seed run and every end-to-end
metric, both sides' quartiles and a verdict against ``BENCHMARK.json``'s
bound (:func:`verdict`). A file already there
is not lost: its claim moves, whole, into the new one's ``earlier``
list, so every run made for the claim stays on file.
``tests/test_bench_claims.py`` recomputes all of that from the runs.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The claimed metric; lower is better.
METRIC = "cpu_us_per_op"

#: The share of all pairs run, over every seed, that the change must win.
MIN_WIN_SHARE = 0.9

#: ``BENCHMARK.json``'s end-to-end metrics: name -> (whether lower is
#: better, the bound by which the change's median may be worse).
END_TO_END = {
    row["name"]: (row["better"] == "lower", row["bound"])
    for row in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}


def quartiles(values):
    """(lower quartile, median, upper quartile) of *values*, the
    ``statistics.quantiles`` inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def _spread(values) -> dict:
    low, median, high = quartiles(sorted(values))
    return {"q1": low, "median": median, "q3": high, "iqr": high - low}


def _pairs(runs, workload: str, seed: int, metric: str) -> dict:
    pairs = {}
    for run in runs:
        if run["workload"] == workload and run["seed"] == seed:
            pairs.setdefault(run["pair"], {})[run["side"]] = run["metrics"][metric]
    return pairs


def summarise(runs, workload: str, seed: int) -> dict:
    """The per-seed summary of :data:`METRIC` over *workload*'s *runs*:
    medians, quartiles and IQRs of each side, the pairs the change won,
    the ratio of the change's median to the parent's, and the gap
    between them (the parent's median less the change's)."""
    pairs = _pairs(runs, workload, seed, METRIC)
    wins = sum(pair["change"] < pair["parent"] for pair in pairs.values())
    summary = {"pairs": len(pairs), "change_wins": wins}
    for side in ("parent", "change"):
        summary[side] = _spread(pair[side] for pair in pairs.values())
    summary["ratio"] = summary["change"]["median"] / summary["parent"]["median"]
    summary["gap"] = summary["parent"]["median"] - summary["change"]["median"]
    return summary


def meets(seeds: dict, max_ratio: float) -> bool:
    """Whether the per-seed *seeds* summaries claim a gain: the change
    wins at least :data:`MIN_WIN_SHARE` of all pairs run, counted over
    every seed, and on each seed its median is within *max_ratio* of
    the parent's and better than it by more than the parent's IQR."""
    pairs = sum(summary["pairs"] for summary in seeds.values())
    wins = sum(summary["change_wins"] for summary in seeds.values())
    return wins >= MIN_WIN_SHARE * pairs and all(
        summary["ratio"] <= max_ratio and summary["gap"] > summary["parent"]["iqr"]
        for summary in seeds.values()
    )


def verdict(metric: str, parent, change) -> dict:
    """Both sides' quartiles of one end-to-end *metric* over the *parent*
    and *change* runs, and the verdict: ``worse`` when the change's
    median is worse than the parent's by more than the metric's bound;
    else ``unresolved`` when either side's IQR is wider than the bound
    (relative to the parent's median) and not every change run reads
    better than every parent run; else ``no worse``."""
    lower, bound = END_TO_END[metric]
    row = {"parent": _spread(parent), "change": _spread(change), "bound": bound}
    base = row["parent"]["median"]
    loss = row["change"]["median"] - base if lower else base - row["change"]["median"]
    all_better = max(change) < min(parent) if lower else min(change) > max(parent)
    spread = max(row["parent"]["iqr"], row["change"]["iqr"])
    if loss > bound * abs(base):
        row["verdict"] = "worse"
    elif spread > bound * abs(base) and not all_better:
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "no worse"
    return row


def no_regression(runs) -> dict:
    """``{"<workload>/<seed>": {metric: verdict(...)}}`` for every
    workload and seed among *runs*."""
    table = {}
    for workload, seed in sorted({(run["workload"], run["seed"]) for run in runs}):
        rows = table[f"{workload}/{seed}"] = {}
        for metric in END_TO_END:
            pairs = _pairs(runs, workload, seed, metric).values()
            rows[metric] = verdict(
                metric, [pair["parent"] for pair in pairs], [pair["change"] for pair in pairs]
            )
    return table


def host() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu_model": model,
        "python": platform.python_version(), "platform": platform.platform(),
    }


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def export(scratch: Path) -> dict:
    """Export ``HEAD`` and the working tree under *scratch*; returns
    what names each tree."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", "HEAD"], cwd=ROOT, check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(scratch / "parent")
    files = sorted(
        name for name in _git("ls-files", "-co", "--exclude-standard").split("\n")
        if name and (ROOT / name).is_file()
    )
    digest = hashlib.sha256()
    for name in files:
        target = scratch / "change" / name
        target.parent.mkdir(parents=True, exist_ok=True)
        data = (ROOT / name).read_bytes()
        target.write_bytes(data)
        if name.startswith("src/"):
            digest.update(name.encode() + b"\0" + data)
    return {
        "parent": _git("rev-parse", "HEAD").strip(),
        "change": "working tree of " + _git("rev-parse", "HEAD").strip(),
        "change_src_sha256": digest.hexdigest(),
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in *tree*: its contract JSON."""
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, timeout=900,
    )
    lines = child.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"claim: bench/run.py printed nothing in {tree}:\n{child.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--max-ratio", type=float, required=True)
    parser.add_argument("--guard", nargs="*", default=[],
                        help="workloads on which no end-to-end metric may get worse")
    parser.add_argument("--scratch", default=None,
                        help="where to export the trees (default: a temporary directory)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=args.scratch) as scratch:
        scratch = Path(scratch)
        trees = export(scratch)
        runs = []
        cells = [(args.workload, seed) for seed in args.seeds]
        cells += [(workload, args.seeds[0]) for workload in args.guard]
        for workload, seed in cells:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(scratch / side, workload, seed, args.seconds)
                    runs.append({
                        "workload": workload, "seed": seed, "pair": pair, "side": side,
                        "correct": result["correct"], "attempted": result["attempted"],
                        "failed": result["failed"],
                        "metrics": {
                            name: entry["value"]
                            for name, entry in result["metrics"].items()
                        },
                    })
                    print(f"{workload} seed {seed} pair {pair} {side}: "
                          f"{METRIC} {runs[-1]['metrics'].get(METRIC)}", flush=True)
    seeds = {str(seed): summarise(runs, args.workload, seed) for seed in args.seeds}
    acceptance = {
        "metric": METRIC, "max_ratio": args.max_ratio, "min_win_share": MIN_WIN_SHARE,
        "met": meets(seeds, args.max_ratio),
    }
    claim = {
        "pr": args.pr, "workload": args.workload, "seconds": args.seconds,
        "host": host(), "trees": trees, "acceptance": acceptance,
        "seeds": seeds, "no_regression": no_regression(runs), "runs": runs,
    }
    path = ROOT / f"BENCH_PR{args.pr}.json"
    if path.exists():  # keep every run made for the claim
        before = json.loads(path.read_text())
        claim["earlier"] = before.pop("earlier", []) + [before]
    path.write_text(json.dumps(claim, indent=1) + "\n")
    for seed, summary in seeds.items():
        print(f"seed {seed}: {METRIC} median {summary['parent']['median']:.1f}"
              f" -> {summary['change']['median']:.1f} (x{summary['ratio']:.3f},"
              f" gap {summary['gap']:.1f} against the parent's IQR"
              f" {summary['parent']['iqr']:.1f}),"
              f" {summary['change_wins']} of {summary['pairs']} pairs won")
    for cell, rows in claim["no_regression"].items():
        for metric, row in rows.items():
            if row["verdict"] != "no worse":
                print(f"{cell} {metric}: {row['verdict']} (median"
                      f" {row['parent']['median']:.4g} -> {row['change']['median']:.4g})")
    print(f"met: {acceptance['met']}; written to {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
