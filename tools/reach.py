#!/usr/bin/env python3
"""Reach gate: every function in ``src/`` is reached by a product path,
or is listed in ``tools/reach_allowlist.json`` with a reason.

The product paths are the paper's figures and tables (``benchmarks/``),
the examples, the CLI (``tests/test_cli.py`` and every command CI runs,
``tools/cli_smoke.py``) and the bench workloads
(``bench/test_bench_smoke.py``). They run in subprocesses with a
``sitecustomize`` on ``PYTHONPATH`` that calls :func:`install`: a
``sys.setprofile`` / ``threading.setprofile`` hook records the code
object of every call, and each process (forked workers, which leave
through ``os._exit``, too) writes the ``src/`` ones it saw to the trace
directory. The trace is joined with an AST table of every function,
keyed ``(module, min(def line, first decorator line))`` -- the
``co_firstlineno`` of its code object.

A function that is not reached needs an allowlist entry whose reason is
``<kind>: <evidence>``, *kind* one of :data:`REASONS`. "Only its unit
test calls it" is not a reason: such code is deleted.

* an unreached function with no entry fails, and so does an entry whose
  reason is ``TODO`` or of no known kind;
* a listed function that is now reached is only reported: a path that
  depends on timing must not make the build flaky.

``--update`` adds the unlisted unreached functions with reason ``TODO``
(and drops entries for functions that no longer exist); the diff is
then the review. ``--trace DIR`` keeps the trace in *DIR*, and joins
the one already there instead of running the paths again (they take
about a minute and a half on a 2-core host).
"""

from __future__ import annotations

import ast
import atexit
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOWLIST = Path(__file__).with_name("reach_allowlist.json")

#: The closed set of reasons an unreached function may stay for.
REASONS = {
    "stub": "a Protocol or abstract method body",
    "decoder": "a codec branch for bytes from outside, driven by the named "
               "fuzz or golden test",
    "safety": "a check on outside input",
    "fault": "an error or retry branch the product paths do not trigger; "
             "names the test that does",
    "api": "a public name or spec key README documents",
}

PRODUCT_TESTS = [
    "benchmarks", "tests/test_examples.py", "tests/test_cli.py",
    "bench/test_bench_smoke.py",
]


def install(out: str, src: str, site: str) -> None:
    """The tracer, run by the ``sitecustomize`` :func:`trace` writes in
    *site*: it writes what the process called under *src* into *out*."""
    seen = set()
    record = seen.add

    def profile(frame, event, arg):
        if event == "call":
            record(frame.f_code)

    def dump() -> None:
        lines = sorted({
            f"{code.co_filename}:{code.co_firstlineno}"
            for code in list(seen) if code.co_filename.startswith(src)
        })
        name = f"{os.getpid()}-{time.monotonic_ns()}.txt"
        Path(out, name).write_text("\n".join(lines) + "\n")

    real_exit = os._exit

    def exit_after_dump(code):
        dump()
        real_exit(code)

    popen_init = subprocess.Popen.__init__

    def popen_keeping_tracer(self, *args, env=None, **kwargs):
        # A child given its own PYTHONPATH keeps the tracer in front.
        if env is not None and not env.get("PYTHONPATH", "").startswith(site):
            env = dict(env, PYTHONPATH=os.pathsep.join(
                filter(None, (site, env.get("PYTHONPATH")))))
        popen_init(self, *args, env=env, **kwargs)

    atexit.register(dump)
    os._exit = exit_after_dump
    subprocess.Popen.__init__ = popen_keeping_tracer
    threading.setprofile(profile)
    sys.setprofile(profile)


def trace(trace_dir: Path) -> None:
    """Run the product paths under the tracer into *trace_dir*."""
    site = trace_dir / "site"
    site.mkdir(parents=True, exist_ok=True)
    arguments = (str(trace_dir), str(SRC) + os.sep, str(site))
    (site / "sitecustomize.py").write_text(
        "import importlib.util as u\n"
        f"s = u.spec_from_file_location('_reach', {str(Path(__file__))!r})\n"
        "m = u.module_from_spec(s)\n"
        "s.loader.exec_module(m)\n"
        f"m.install(*{arguments!r})\n"
    )
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join((str(site), str(SRC), str(ROOT)))
    )
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable", *PRODUCT_TESTS],
        env=env, cwd=ROOT, check=True,
    )
    with tempfile.TemporaryDirectory() as work:  # cli_smoke's output files
        subprocess.run([sys.executable, str(ROOT / "tools" / "cli_smoke.py")],
                       env=env, cwd=work, check=True)


def reached(trace_dir: Path) -> set:
    """``{(module, line)}`` over every dump in *trace_dir*."""
    keys = set()
    for dump in trace_dir.glob("*.txt"):
        for line in dump.read_text().split():
            filename, _, lineno = line.rpartition(":")
            keys.add((Path(filename).relative_to(SRC).as_posix(), int(lineno)))
    return keys


def functions(src: Path) -> dict:
    """``{module: {qualified name: [key line, ...]}}`` for every function
    under *src* (a property's getter and setter share a name, so a name
    has a line per definition)."""
    table = {}
    for path in sorted(src.rglob("*.py")):
        found = {}
        stack = []

        def visit(node) -> None:
            for child in ast.iter_child_nodes(node):
                scoped = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                            ast.ClassDef))
                if scoped:
                    stack.append(child.name)
                    if not isinstance(child, ast.ClassDef):
                        found.setdefault(".".join(stack), []).append(min(
                            [child.lineno] + [d.lineno for d in child.decorator_list]
                        ))
                visit(child)
                if scoped:
                    stack.pop()

        visit(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            table[path.relative_to(src).as_posix()] = found
    return table


def check(table: dict, keys: set, allowed: dict):
    """``(failures, notes, unlisted)`` of *table* joined with *keys*."""
    failures, notes, unlisted = [], [], {}
    for module, names in table.items():
        listed = allowed.get(module, {})
        for name, lines in names.items():
            where = f"{module}:{name}"
            if all((module, line) in keys for line in lines):
                if name in listed:
                    notes.append(f"{where} is reached; its entry can go")
                continue
            reason = listed.get(name)
            if reason is None:
                failures.append(f"{where} (line {lines[0]}) is reached by no "
                                "product path and has no reason")
                unlisted.setdefault(module, {})[name] = "TODO"
            elif reason.partition(":")[0] not in REASONS or not \
                    reason.partition(":")[2].strip():
                failures.append(f"{where}: reason {reason!r} is not "
                                f"'<kind>: <evidence>', kind one of "
                                f"{sorted(REASONS)}")
    for module, names in allowed.items():
        for name in names:
            if name not in table.get(module, {}):
                notes.append(f"{module}:{name} is listed but no longer exists")
    return failures, notes, unlisted


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    allowed = json.loads(ALLOWLIST.read_text()) if ALLOWLIST.exists() else {}
    with tempfile.TemporaryDirectory() as scratch:
        trace_dir = Path(scratch)
        if "--trace" in argv:
            trace_dir = Path(argv[argv.index("--trace") + 1])
        if not any(trace_dir.glob("*.txt")):
            try:
                trace(trace_dir)
            except subprocess.CalledProcessError as exc:
                # A product path that fails reaches less than it should:
                # its trace would report live code as unreached.
                print(f"error: product path failed: {exc}", file=sys.stderr)
                return 2
        keys = reached(trace_dir)
    table = functions(SRC)
    failures, notes, unlisted = check(table, keys, allowed)

    if "--update" in argv:
        merged = {
            module: dict(sorted({
                **{n: r for n, r in allowed.get(module, {}).items()
                   if n in table.get(module, {})},
                **unlisted.get(module, {}),
            }.items()))
            for module in sorted(set(allowed) | set(unlisted))
        }
        ALLOWLIST.write_text(json.dumps(
            {m: names for m, names in merged.items() if names},
            indent=2) + "\n")
        print(f"allowlist rewritten: {ALLOWLIST}")
        return 0

    for line in notes:
        print(f"note: {line}")
    lines = [(m, line) for m, names in table.items()
             for defs in names.values() for line in defs]
    total, hit = len(lines), sum(key in keys for key in lines)
    print(f"reach: {hit} of {total} functions in src/ reached by the "
          "product paths")
    if failures:
        print("unreached code is deleted, or listed with a reason from the "
              "closed set:", file=sys.stderr)
        for kind, meaning in REASONS.items():
            print(f"  {kind}: {meaning}", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
