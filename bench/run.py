#!/usr/bin/env python3
"""One command for every performance number of this repository.

    python3 bench/run.py                     all six workloads, end to end
    python3 bench/run.py --trace             ... and the per-layer budget
    python3 bench/run.py --only fleet_1m     one workload of the suite
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The suite runs every workload in its own fresh interpreter, one after
another (the last form is what it starts, and what a benchmark driver
calls directly), echoes every metric by name with its unit, and writes
one result file under ``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # before anything of the program loads

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

if __name__ == "__main__":
    # Run as a script, sys.path[0] is bench/ itself, where trace.py
    # would shadow the standard library's; import it as bench.trace.
    sys.path[0] = ROOT

from bench import metrics, workloads  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

#: The smaller scale whose exact outputs are banked (the smoke test's).
SMOKE_SCALE = 0.02

#: Share of ``--seconds`` a traced run spends on untraced legs first.
UNTRACED_SHARE = 0.45


def load_benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as file:
        return json.load(file)


def prepare_program() -> None:
    """Pin the crypto backend and make ``repro`` importable from the
    checkout this file sits in; exit 2 when the program is not there."""
    # The dependency-free AES-CCM is the only backend every checkout
    # has; with `cryptography` installed OSCORE is ~4.5x faster.
    os.environ["REPRO_PURE_CRYPTO"] = "1"
    sys.path.insert(1, os.path.join(ROOT, "src"))
    try:
        import repro.api  # noqa: F401
    except ImportError as error:
        print(f"bench: cannot import the program: {error}", file=sys.stderr)
        raise SystemExit(2)


def host_facts() -> dict:
    try:
        rev = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, text=True,
            capture_output=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "crypto_backend": "pure-python (REPRO_PURE_CRYPTO=1)",
        "git_rev": rev,
    }


def load_banked(path: str, name: str, seed: int, scale: float):
    """The banked counters of this (workload, seed, scale), or None."""
    if path == "none":
        return None
    with open(path, encoding="utf-8") as file:
        banked = json.load(file)["counters"]
    return banked.get(name, {}).get(workloads.expected_key(seed, scale))


# -- one workload, in this process ------------------------------------------


def child_command(args, name: str, *extra: str) -> list:
    return [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(args.seed), "--scale", str(args.scale), *extra,
    ]


def run_legs(workload, args, state, budget_s: float, min_legs: int) -> list:
    """Legs of the same work until *budget_s* is used (set-up of the
    legs included), at least *min_legs*."""
    legs = []
    start = time.perf_counter()
    last = 0.0
    while (
        len(legs) < min_legs
        or time.perf_counter() - start + last / 2 < budget_s
    ):
        leg_start = time.perf_counter()
        legs.append(workloads.run_leg(workload, args.seed, args.scale, state))
        last = time.perf_counter() - leg_start
    return legs


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    prepare_program()
    state = {}
    if workload.kind == "live":
        state["sent_bytes"] = workloads.SentBytes()
        state["sent_bytes"].install()

    if args.setup_probe:
        leg_start = time.perf_counter()
        leg = workloads.run_leg(
            workload, args.seed, args.scale, state, setup_only=True
        )
        print(leg_start - _PROCESS_START + leg.setup_s)
        return 0

    # Set-up is sampled in fresh interpreters: this one and the probes,
    # half of them before the legs and half after, so that a slow phase
    # of the host shorter than the run does not catch every sample.
    ready_s = []

    def probe_setup(count: int) -> None:
        for _ in range(count):
            probe = subprocess.run(
                child_command(args, workload.name, "--setup-probe"),
                capture_output=True, text=True, timeout=120, check=True,
            )
            ready_s.append(float(probe.stdout.split()[-1]))

    probes_start = time.perf_counter()
    probe_setup((args.setup_samples - 1) // 2)
    probes_s = time.perf_counter() - probes_start

    measure_start = time.perf_counter()
    tracer = None
    if args.trace:
        untraced = run_legs(
            workload, args, state, args.seconds * UNTRACED_SHARE,
            workloads.MIN_LEGS,
        )
        tracer = Tracer()
        tracer.install()
        used = time.perf_counter() - measure_start
        legs = untraced + run_legs(
            workload, args, state, args.seconds - used, 1
        )
    else:
        legs = untraced = run_legs(
            workload, args, state, args.seconds, workloads.MIN_LEGS
        )
    ready_s.append(
        measure_start - _PROCESS_START - probes_s + legs[0].setup_s
    )
    probe_setup(args.setup_samples - 1 - (args.setup_samples - 1) // 2)

    banked = load_banked(args.expected, workload.name, args.seed, args.scale)
    problems = workloads.check_legs(legs, banked)
    attempted = sum(leg.ops for leg in legs)
    failed = sum(leg.failed for leg in legs)
    detail = {
        "workload": workload.name, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "legs": len(legs), "counters": legs[0].counters,
        "banked_check": "skipped" if banked is None else "checked",
        "problems": problems,
    }
    print(f"{workload.name}: {len(legs)} legs of {legs[0].ops} ops, seed "
          f"{args.seed}, scale {args.scale:g}")
    if banked is None:
        print("  banked-output check skipped: this seed and scale are "
              "not in expected.json")
    values, units = {}, {}
    if problems:
        # A failed check is an error, not a slow result: no metrics.
        for problem in problems:
            print(f"bench: {workload.name}: {problem}", file=sys.stderr)
    else:
        values, units = report_metrics(
            args, workload, untraced, legs, ready_s, tracer, detail
        )
    print("#detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 1 if problems else 0


def report_metrics(args, workload, untraced, legs, ready_s, tracer, detail):
    """Compute and print the run's metrics (per-layer when *tracer* is
    set, end-to-end otherwise); returns (values, units) and completes
    *detail* with the per-leg series ``--compare`` reads."""
    if tracer is not None:
        traced = legs[len(untraced):]
        values = metrics.per_layer(untraced, traced, tracer)
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        detail["trace"] = {
            "ops": sum(leg.ops for leg in traced),
            "cpu_s": sum(leg.cpu_s for leg in traced),
            "self_s": tracer.total_self_s(),
            "top_level_s": tracer.top_level_s,
            "raw_spans": len(tracer.spans),
        }
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(
            os.path.join(OUT_DIR, f"trace-{workload.name}.jsonl"),
            header={"workload": workload.name, "seed": args.seed,
                    "missing_targets": tracer.missing},
        )
    else:
        values = metrics.end_to_end(legs, ready_s)
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
    series = metrics.per_leg_series(untraced)
    detail["per_leg"] = series
    detail["leg_spread"] = {
        name: metrics.spread(series[name]) for name in series
    }
    detail["setup"] = {
        "ready_s": ready_s, "rebuild_s": [leg.setup_s for leg in legs[1:]],
    }
    detail["samples"] = {
        "legs": len(untraced), "setup": len(ready_s),
        "slices": sum(len(leg.slices) for leg in untraced),
        "calls": sum(len(leg.call_s) for leg in untraced),
    }
    for name, unit in units.items():
        print(f"  {name:<42} {values[name]:>14.6g} {unit}")
    print(f"  (first deciles over {detail['samples']['slices']} slices of "
          f"{len(untraced)} legs; {detail['samples']['calls']} timed calls; "
          f"whole-leg ops_per_s spread across legs "
          f"{detail['leg_spread']['ops_per_s']:.3f})")
    return values, units


# -- the suite: every workload in its own interpreter -----------------------


def run_child(args, name: str, trace: int, seconds: float, *extra: str):
    """Run one workload in a fresh interpreter; echo what it prints and
    return (contract result, detail)."""
    child = subprocess.run(
        child_command(
            args, name, "--trace", str(trace), "--seconds", str(seconds),
            "--setup-samples", str(args.setup_samples), *extra,
        ),
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    lines = child.stdout.splitlines()
    detail = {}
    for line in lines[:-1]:
        if line.startswith("#detail "):
            detail = json.loads(line[len("#detail "):])
        else:
            print(line)
    if not lines:
        raise SystemExit(f"bench: {name} printed no result "
                         f"(exit code {child.returncode})")
    return json.loads(lines[-1]), detail


def run_suite(args) -> int:
    names = [args.only] if args.only else list(WORKLOADS)
    results = {
        "host": host_facts(), "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "workloads": {},
    }
    ok = True
    for name in names:
        entry = results["workloads"][name] = {}
        for trace in (0, 1) if args.trace else (0,):
            result, detail = run_child(
                args, name, trace, args.seconds, "--expected", args.expected
            )
            ok = ok and result["correct"]
            entry["per_layer" if trace else "end_to_end"] = result["metrics"]
            if not trace:
                entry.update(
                    correct=result["correct"], attempted=result["attempted"],
                    failed=result["failed"], detail=detail,
                )
    os.makedirs(OUT_DIR, exist_ok=True)
    path = args.out or os.path.join(OUT_DIR, f"results-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as file:
        json.dump(results, file, indent=1, sort_keys=True)
        file.write("\n")
    print(f"results written to {os.path.relpath(path)}")
    if not ok:
        print("bench: at least one output check failed", file=sys.stderr)
    return 0 if ok else 1


def bank(args) -> int:
    """Rewrite expected.json from this checkout: the exact counters of
    every workload for the two banked seeds at full and smoke scale."""
    counters = {name: {} for name in WORKLOADS}
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        for scale in (1.0, SMOKE_SCALE):
            args.seed, args.scale, args.setup_samples = seed, scale, 1
            for name in WORKLOADS:
                result, detail = run_child(
                    args, name, 0, 0, "--expected", "none"
                )
                if not result["correct"]:
                    return 1
                key = workloads.expected_key(seed, scale)
                counters[name][key] = detail["counters"]
    with open(args.expected, "w", encoding="utf-8") as file:
        json.dump({
            "seeds": {"default": workloads.DEFAULT_SEED,
                      "held_out": workloads.HELD_OUT_SEED},
            "scales": [1.0, SMOKE_SCALE],
            "counters": counters,
        }, file, indent=1, sort_keys=True)
        file.write("\n")
    print(f"banked {os.path.relpath(args.expected)}")
    return 0


# -- comparing two result files ---------------------------------------------


def verdict(
    better: str, bound: float, base: float, new: float,
    base_legs=None, new_legs=None,
) -> str:
    """Judge *new* against *base*: ``worse`` / ``better`` when it moved
    by more than *bound* of the base, ``unresolved`` when it did but
    either side's legs spread wider than the bound and overlap."""
    change = (new - base) / base
    if better == "higher":
        change = -change
    if abs(change) <= bound:
        return "within-bound"
    if base_legs and new_legs:
        noisy = max(metrics.spread(base_legs), metrics.spread(new_legs)) > bound
        overlap = (
            min(base_legs) <= max(new_legs) and min(new_legs) <= max(base_legs)
        )
        if noisy and overlap:
            return "unresolved"
    return "worse" if change > 0 else "better"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as file:
        side_a = json.load(file)
    with open(path_b, encoding="utf-8") as file:
        side_b = json.load(file)
    bad = False
    # With the same seed and scale both sides did exactly the same work,
    # so what went on the wire may not differ at all.
    same_inputs = (
        (side_a["seed"], side_a["scale"]) == (side_b["seed"], side_b["scale"])
    )
    print(f"A = {path_a} ({side_a['host']['git_rev']}), "
          f"B = {path_b} ({side_b['host']['git_rev']}); ratios are B ÷ A")
    header = (f"{'workload':<16} {'metric':<18} {'A':>12} {'B':>12} "
              f"{'B/A':>7} {'bound':>6}  verdict")
    print(header)
    for name, entry_a in side_a["workloads"].items():
        entry_b = side_b["workloads"].get(name)
        if entry_b is None:
            continue
        if entry_b["failed"] > entry_a["failed"]:
            print(f"{name:<16} failed operations rose from "
                  f"{entry_a['failed']} to {entry_b['failed']}")
            bad = True
        if not (entry_a["correct"] and entry_b["correct"]):
            print(f"{name:<16} output checks failed on "
                  f"{'A' if not entry_a['correct'] else 'B'}: no comparison")
            bad = True
            continue
        legs_a = entry_a["detail"]["per_leg"]
        legs_b = entry_b["detail"]["per_leg"]
        if same_inputs:
            same = entry_a["detail"]["counters"] == entry_b["detail"]["counters"]
            print(f"{name:<16} exact counters and digests "
                  f"{'identical' if same else 'DIFFER'}")
        for metric, unit, better, bound in metrics.END_TO_END:
            if same_inputs and metric == "wire_bytes_per_op":
                bound = 0.0
            base = entry_a["end_to_end"][metric]["value"]
            new = entry_b["end_to_end"][metric]["value"]
            outcome = verdict(
                better, bound, base, new, legs_a.get(metric), legs_b.get(metric)
            )
            bad = bad or outcome == "worse"
            print(f"{name:<16} {metric:<18} {base:>12.6g} {new:>12.6g} "
                  f"{new / base:>6.3f}x {bound:>6.3f}  {outcome}  "
                  f"[{unit}, {better} is better]")
    return 1 if bad else 0


# -- command line -----------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run this one workload in this process")
    parser.add_argument("--only", choices=list(WORKLOADS),
                        help="suite: run only this workload")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also/only the per-layer run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every leg by this factor")
    parser.add_argument("--setup-samples", type=int, default=5,
                        help="fresh interpreters that sample set-up time")
    parser.add_argument("--expected",
                        default=os.path.join(BENCH_DIR, "expected.json"),
                        help="banked exact outputs ('none' to skip)")
    parser.add_argument("--out", help="suite: result file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--bank", action="store_true",
                        help="rewrite expected.json from this checkout")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_samples < 1:
        parser.error("--setup-samples must be at least 1")
    if args.scale <= 0:
        parser.error("--scale must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = float(load_benchmark_json()["run_seconds"])
    if args.workload:
        return run_workload(args)
    prepare_program()  # fail here, once, when the program is missing
    if args.bank:
        return bank(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
