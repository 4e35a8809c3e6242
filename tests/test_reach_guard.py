"""The reach gate (tools/reach.py) on synthetic modules and a synthetic
trace, so this suite does not run the product paths under the tracer.

CI runs the script itself over the real paths; these tests keep its
join and its verdicts honest: which line a function is keyed by, and
which unreached functions fail the build.
"""

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
    """The tool pointed at a one-module ``src/`` and its own allowlist."""
    module = _load_reach()
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "mod.py").write_text(MODULE)
    monkeypatch.setattr(module, "SRC", src)
    monkeypatch.setattr(module, "ALLOWLIST", tmp_path / "allowlist.json")
    return module


def _trace(reach, tmp_path, names):
    """A trace directory whose one dump reached *names* of pkg/mod.py."""
    table = reach.functions(reach.SRC)["pkg/mod.py"]
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir(exist_ok=True)
    path = reach.SRC / "pkg" / "mod.py"
    lines = [f"{path}:{line}" for name in names for line in table[name]]
    (trace_dir / "1-1.txt").write_text("\n".join(lines) + "\n")
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
