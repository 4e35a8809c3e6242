#!/usr/bin/env python3
"""Reach gate: every function in ``src/`` is reached by a product path,
or is listed in ``tools/reach_allowlist.json`` with a reason; and the
lines of reached functions that no product path runs only ever get
fewer (``tools/reach_lines.json``).

The product paths are the paper's figures and tables (``benchmarks/``),
the examples, the CLI (``tests/test_cli.py`` and every command CI runs,
``tools/cli_smoke.py``) and the bench workloads
(``bench/test_bench_smoke.py``). They run in subprocesses with a
``sitecustomize`` on ``PYTHONPATH`` that calls :func:`install`: a
``sys.settrace`` / ``threading.settrace`` hook records the code object
of every call, and a line tracer, installed only in frames of ``src/``,
records every line they run. Each process (forked workers, which leave
through ``os._exit``, too) writes what it saw under ``src/`` to the
trace directory.

**Functions.** The trace is joined with an AST table of every function,
keyed ``(module, min(def line, first decorator line))`` -- the
``co_firstlineno`` of its code object. A function that is not reached
needs an allowlist entry whose reason is ``<kind>: <evidence>``, *kind*
one of :data:`REASONS`. "Only its unit test calls it" is not a reason:
such code is deleted.

* an unreached function with no entry fails, and so does an entry whose
  reason is ``TODO`` or of no known kind;
* a listed function that is now reached is only reported: a path that
  depends on timing must not make the build flaky.

**Lines.** A reached function's executable lines are the ``co_lines()``
of its code object, less its first line. One that never ran is exempt
when the AST puts it inside a ``raise`` statement or an ``except``
handler (the error branches, which the allowlist's ``safety`` and
``fault`` kinds cover at function level); the others are counted per
module and ratcheted against ``tools/reach_lines.json``, in the shape
of ``tools/check_hot_slices.py``:

* a count above the file's fails, and lists the module's lines that
  never ran;
* a count below it is only reported.

``--update`` rewrites both files: it adds the unlisted unreached
functions with reason ``TODO`` (and drops entries for functions that no
longer exist), and writes the line counts as they are; the diff is then
the review. ``--trace DIR`` keeps the trace in *DIR*, and joins the one
already there instead of running the paths again (they take about 90 s
on a 2-core host; the trace is joined by line number, so it is stale
once ``src/`` is edited).
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
LINES = Path(__file__).with_name("reach_lines.json")

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
    *site*: it writes what the process called, and the lines it ran,
    under *src* into *out*."""
    seen, ran = set(), set()
    record, record_line = seen.add, ran.add

    def lines(frame, event, arg):
        if event == "line":
            record_line((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        code = frame.f_code
        record(code)
        if code.co_filename.startswith(src):
            return lines
        return None

    def dump() -> None:
        name = f"{os.getpid()}-{time.monotonic_ns()}"
        called = sorted({
            f"{code.co_filename}:{code.co_firstlineno}"
            for code in list(seen) if code.co_filename.startswith(src)
        })
        Path(out, name + ".txt").write_text("\n".join(called) + "\n")
        executed = sorted(f"{filename}:{line}" for filename, line in list(ran))
        Path(out, name + ".lines").write_text("\n".join(executed) + "\n")

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
    threading.settrace(calls)
    sys.settrace(calls)


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


def _keys(trace_dir: Path, suffix: str) -> set:
    """``{(module, line)}`` over every *suffix* dump in *trace_dir*."""
    keys = set()
    for dump in trace_dir.glob("*" + suffix):
        for line in dump.read_text().split():
            filename, _, lineno = line.rpartition(":")
            keys.add((Path(filename).relative_to(SRC).as_posix(), int(lineno)))
    return keys


def reached(trace_dir: Path) -> set:
    """``{(module, first line)}`` of every function the trace called."""
    return _keys(trace_dir, ".txt")


def executed(trace_dir: Path) -> set:
    """``{(module, line)}`` of every line the trace ran."""
    return _keys(trace_dir, ".lines")


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


def _exempt(tree: ast.AST) -> set:
    """The lines of every ``raise`` statement and ``except`` handler."""
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            exempt.update(range(node.lineno, node.end_lineno + 1))
    return exempt


def _codes(code):
    """*code* and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _codes(const)


def unexecuted(src: Path, keys: set, ran: set) -> dict:
    """``{module: [line, ...]}``: the lines of reached functions that
    never ran and are not exempt (see :func:`_exempt`)."""
    found = {}
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()
        text = path.read_text(encoding="utf-8")
        exempt = _exempt(ast.parse(text))
        missed = set()
        for code in _codes(compile(text, str(path), "exec")):
            first = code.co_firstlineno
            if code.co_name.startswith("<") or (module, first) not in keys:
                continue
            missed.update(
                line for _, _, line in code.co_lines()
                if line is not None and line != first and line not in exempt
                and (module, line) not in ran
            )
        if missed:
            found[module] = sorted(missed)
    return found


def check_lines(found: dict, budget: dict):
    """``(failures, notes)`` of the counts in *found* against *budget*."""
    failures, notes = [], []
    for module in sorted(set(found) | set(budget)):
        lines, allowed = found.get(module, []), budget.get(module, 0)
        if len(lines) > allowed:
            failures.append(
                f"{module}: {len(lines)} lines of reached functions ran on no "
                f"product path, {allowed} on file; lines "
                + ", ".join(map(str, lines))
            )
        elif len(lines) < allowed:
            notes.append(f"{module}: {len(lines)} unexecuted lines < {allowed} "
                         "on file; ratchet with --update")
    return failures, notes


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
        ran = executed(trace_dir)
    table = functions(SRC)
    failures, notes, unlisted = check(table, keys, allowed)
    lines = [(m, line) for m, names in table.items()
             for defs in names.values() for line in defs]
    found = unexecuted(SRC, {key for key in lines if key in keys}, ran)
    budget = json.loads(LINES.read_text()) if LINES.exists() else {}
    line_failures, line_notes = check_lines(found, budget)

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
        LINES.write_text(json.dumps(
            {m: len(found[m]) for m in sorted(found)}, indent=2) + "\n")
        print(f"line counts rewritten: {LINES}")
        return 0

    for line in notes + line_notes:
        print(f"note: {line}")
    total, hit = len(lines), sum(key in keys for key in lines)
    print(f"reach: {hit} of {total} functions in src/ reached by the "
          "product paths")
    print(f"reach: {sum(map(len, found.values()))} lines of reached functions, "
          "raise and except lines aside, run on no product path")
    if failures:
        print("unreached code is deleted, or listed with a reason from the "
              "closed set:", file=sys.stderr)
        for kind, meaning in REASONS.items():
            print(f"  {kind}: {meaning}", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
    if line_failures:
        print("lines that no product path runs are deleted, or reached; a "
              "count may only fall (tools/reach_lines.json):", file=sys.stderr)
        for line in line_failures:
            print(f"  {line}", file=sys.stderr)
    return 1 if failures or line_failures else 0


if __name__ == "__main__":
    sys.exit(main())
