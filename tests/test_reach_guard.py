"""The reach gate (tools/reach.py) on synthetic modules and a synthetic
trace, so this suite does not run the product paths under the tracer.

CI runs the script itself over the real paths; these tests keep its
joins and its verdicts honest: which line a function is keyed by, which
unreached functions fail the build, and which lines of reached functions
the line ratchet counts.
"""

import ast
import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"

MODULE = textwrap.dedent('''\
    import functools


    def plain():
        return 1


    @functools.lru_cache(
        maxsize=None,
    )
    def decorated():
        return 2


    class Outer:
        @property
        def value(self):
            return 3

        @value.setter
        def value(self, new):
            pass

        def method(self):
            def inner():
                return 4

            return inner()
''')


def _load_reach():
    spec = importlib.util.spec_from_file_location("reach", _TOOLS / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def reach(tmp_path, monkeypatch):
    """The tool pointed at a one-module ``src/`` and its own allowlist
    and line counts."""
    module = _load_reach()
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "mod.py").write_text(MODULE)
    monkeypatch.setattr(module, "SRC", src)
    monkeypatch.setattr(module, "ALLOWLIST", tmp_path / "allowlist.json")
    monkeypatch.setattr(module, "LINES", tmp_path / "lines.json")
    return module


def _trace(reach, tmp_path, names, module="mod", ran=None):
    """A trace directory whose one dump reached *names* of pkg/*module*
    and ran *ran* of its lines (by default every line of them)."""
    path = reach.SRC / "pkg" / f"{module}.py"
    table = reach.functions(reach.SRC)[f"pkg/{module}.py"]
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir(exist_ok=True)
    called = [line for name in names for line in table[name]]
    (trace_dir / "1-1.txt").write_text(
        "\n".join(f"{path}:{line}" for line in called) + "\n"
    )
    if ran is None:
        ran = range(1, len(path.read_text().splitlines()) + 1)
    (trace_dir / "1-1.lines").write_text(
        "\n".join(f"{path}:{line}" for line in ran) + "\n"
    )
    return trace_dir


def test_decorated_and_nested_functions_are_keyed_like_their_code(reach):
    table = reach.functions(reach.SRC)["pkg/mod.py"]
    namespace = {}
    code = compile(MODULE, "mod.py", "exec")
    exec(code, namespace)
    # The key is co_firstlineno: the first decorator's line if any.
    assert table["plain"] == [namespace["plain"].__code__.co_firstlineno]
    assert table["decorated"] == [
        namespace["decorated"].__wrapped__.__code__.co_firstlineno
    ] == [8]
    assert table["Outer.method"] == [
        namespace["Outer"].method.__code__.co_firstlineno
    ]
    inner = next(
        const for const in namespace["Outer"].method.__code__.co_consts
        if hasattr(const, "co_name") and const.co_name == "inner"
    )
    assert table["Outer.method.inner"] == [inner.co_firstlineno]
    # A property's getter and setter share a name: one line each.
    value = namespace["Outer"].value
    assert table["Outer.value"] == [
        value.fget.__code__.co_firstlineno, value.fset.__code__.co_firstlineno,
    ]


def test_everything_reached_passes(reach, tmp_path, capsys):
    table = reach.functions(reach.SRC)["pkg/mod.py"]
    trace_dir = _trace(reach, tmp_path, list(table))
    assert reach.main(["--trace", str(trace_dir)]) == 0
    assert "6 of 6 functions" in capsys.readouterr().out


def test_an_unlisted_unreached_function_fails(reach, tmp_path, capsys):
    trace_dir = _trace(reach, tmp_path, ["plain", "decorated", "Outer.value"])
    assert reach.main(["--trace", str(trace_dir)]) == 1
    err = capsys.readouterr().err
    assert "pkg/mod.py:Outer.method " in err
    assert "pkg/mod.py:Outer.method.inner " in err
    assert "pkg/mod.py:plain " not in err


def test_a_setter_no_path_reaches_fails_its_property(reach, tmp_path, capsys):
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    table = reach.functions(reach.SRC)["pkg/mod.py"]
    path = reach.SRC / "pkg" / "mod.py"
    lines = [f"{path}:{line}" for name, defs in table.items()
             for line in defs[:1]]  # only the getter of Outer.value
    (trace_dir / "1-1.txt").write_text("\n".join(lines) + "\n")
    assert reach.main(["--trace", str(trace_dir)]) == 1
    assert "pkg/mod.py:Outer.value " in capsys.readouterr().err


def test_update_writes_todo_and_todo_fails(reach, tmp_path, capsys):
    trace_dir = _trace(reach, tmp_path, ["plain", "Outer.value"])
    assert reach.main(["--trace", str(trace_dir), "--update"]) == 0
    written = json.loads(reach.ALLOWLIST.read_text())
    assert written == {"pkg/mod.py": {
        "Outer.method": "TODO",
        "Outer.method.inner": "TODO",
        "decorated": "TODO",
    }}
    capsys.readouterr()
    assert reach.main(["--trace", str(trace_dir)]) == 1
    assert "reason 'TODO'" in capsys.readouterr().err


@pytest.mark.parametrize("reason", [
    "only its unit test calls it",
    "convenience: handy in a REPL",
    "stub:",
])
def test_a_reason_outside_the_closed_set_fails(reach, tmp_path, capsys, reason):
    trace_dir = _trace(reach, tmp_path, ["plain", "Outer.value", "Outer.method",
                                         "Outer.method.inner"])
    reach.ALLOWLIST.write_text(json.dumps({"pkg/mod.py": {"decorated": reason}}))
    assert reach.main(["--trace", str(trace_dir)]) == 1
    assert "pkg/mod.py:decorated: reason" in capsys.readouterr().err


def test_a_listed_function_that_is_reached_is_reported_not_failed(
    reach, tmp_path, capsys
):
    table = reach.functions(reach.SRC)["pkg/mod.py"]
    trace_dir = _trace(reach, tmp_path, list(table))
    reach.ALLOWLIST.write_text(json.dumps({"pkg/mod.py": {
        "plain": "api: a public name README documents",
    }}))
    assert reach.main(["--trace", str(trace_dir)]) == 0
    assert "pkg/mod.py:plain is reached" in capsys.readouterr().out


def test_checked_in_allowlist_uses_the_closed_reason_set():
    reach = _load_reach()
    allowed = json.loads(reach.ALLOWLIST.read_text())
    table = reach.functions(reach.SRC)
    for module, names in allowed.items():
        for name, reason in names.items():
            kind, _, evidence = reason.partition(":")
            assert kind in reach.REASONS and evidence.strip(), (module, name)
            assert name in table.get(module, {}), (module, name)


BRANCHY = textwrap.dedent('''\
    def pick(flag):
        if flag:
            return "taken"
        value = "never"
        return value


    def guard(value):
        if value is None:
            raise ValueError(
                "no value"
            )
        try:
            return int(value)
        except TypeError as exc:
            message = str(exc)
            return message


    def unreached():
        return 0
''')
#: What the product paths run of BRANCHY: pick(True) and guard("1").
BRANCHY_RAN = [2, 3, 9, 13, 14]


@pytest.fixture
def branchy(reach):
    (reach.SRC / "pkg" / "branchy.py").write_text(BRANCHY)
    (reach.SRC / "pkg" / "mod.py").unlink()
    return reach


def _branchy_trace(reach, tmp_path, ran=BRANCHY_RAN):
    reach.ALLOWLIST.write_text(json.dumps({"pkg/branchy.py": {
        "unreached": "api: a public name README documents",
    }}))
    return _trace(reach, tmp_path, ["pick", "guard"], "branchy", ran)


def test_an_untaken_branch_in_a_reached_function_is_counted(branchy, tmp_path):
    trace_dir = _branchy_trace(branchy, tmp_path)
    keys = branchy.reached(trace_dir)
    found = branchy.unexecuted(branchy.SRC, keys, branchy.executed(trace_dir))
    # pick's fall-through is counted; the unreached function is the
    # function gate's, not the line ratchet's.
    assert found == {"pkg/branchy.py": [4, 5]}


def test_raise_lines_and_except_handlers_are_exempt(branchy, tmp_path):
    trace_dir = _branchy_trace(branchy, tmp_path)
    found = branchy.unexecuted(
        branchy.SRC, branchy.reached(trace_dir), branchy.executed(trace_dir)
    )
    exempt = branchy._exempt(ast.parse(BRANCHY))
    assert exempt == {10, 11, 12, 15, 16, 17}
    # guard's untaken `if` body is a three-line raise, its except
    # handler never ran: none of them is counted.
    assert not exempt & set(found["pkg/branchy.py"])


def test_a_count_that_rises_fails_and_names_the_lines(branchy, tmp_path, capsys):
    branchy.LINES.write_text(json.dumps({"pkg/branchy.py": 1}))
    trace_dir = _branchy_trace(branchy, tmp_path)
    assert branchy.main(["--trace", str(trace_dir)]) == 1
    err = capsys.readouterr().err
    assert "pkg/branchy.py: 2 lines of reached functions ran on no product " \
           "path, 1 on file; lines 4, 5" in err
    # A module the file does not list has a budget of 0.
    branchy.LINES.write_text("{}")
    assert branchy.main(["--trace", str(trace_dir)]) == 1


def test_a_count_that_falls_is_only_reported(branchy, tmp_path, capsys):
    branchy.LINES.write_text(json.dumps({"pkg/branchy.py": 3, "pkg/gone.py": 1}))
    trace_dir = _branchy_trace(branchy, tmp_path)
    assert branchy.main(["--trace", str(trace_dir)]) == 0
    out = capsys.readouterr().out
    assert "pkg/branchy.py: 2 unexecuted lines < 3 on file" in out
    assert "pkg/gone.py: 0 unexecuted lines < 1 on file" in out
    assert "reach: 2 lines of reached functions" in out


def test_only_update_writes_the_line_counts(branchy, tmp_path, capsys):
    trace_dir = _branchy_trace(branchy, tmp_path, ran=BRANCHY_RAN + [4, 5])
    assert branchy.main(["--trace", str(trace_dir)]) == 0
    assert not branchy.LINES.exists()
    trace_dir = _branchy_trace(branchy, tmp_path)
    assert branchy.main(["--trace", str(trace_dir)]) == 1
    assert not branchy.LINES.exists()
    assert branchy.main(["--trace", str(trace_dir), "--update"]) == 0
    assert json.loads(branchy.LINES.read_text()) == {"pkg/branchy.py": 2}
    capsys.readouterr()
    assert branchy.main(["--trace", str(trace_dir)]) == 0


def test_checked_in_line_counts_name_modules_that_exist():
    reach = _load_reach()
    counts = json.loads(reach.LINES.read_text())
    for module, count in counts.items():
        assert (reach.SRC / module).is_file(), module
        assert isinstance(count, int) and count > 0, module
