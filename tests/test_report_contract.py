"""What ``python -m repro.api.validate`` rejects, over real artifacts.

One sim, one live and one fleet Report, one sweep and one telemetry
row are each mutated every way a hand edit or a drifting writer could:
every key deleted, an unknown key added at every object level, and
every scalar replaced by a string, a bool, -1, null, a list and an
object. Every unmutated document must pass, and every mutant outside
what the contract leaves open (:func:`_left_open`) must exit 1.

The contract leaves open: anything inside ``spec`` (a free object);
deleting ``telemetry``, a sweep cell or a metric that not every run
emits; a metric value of its row's unit type (or null), except that
the always-emitted keys other than ``latency.*`` are never null nor
negative; a ``provenance`` string for another string; and a telemetry
row's latencies set to null or a negative number.
"""

from __future__ import annotations

import copy
import json
import pathlib

import pytest

from repro.api import RunSpec, run, sweep, sweep_to_json
from repro.api.report import REPORT_METRICS, SUBSTRATES, UNITS, metric_rows

#: The metrics every Report carries: the rows listing every substrate,
#: without a placeholder.
ALWAYS = {
    row.key for row in REPORT_METRICS
    if row.substrates == SUBSTRATES and "{" not in row.key
}

REPLACEMENTS = (
    ("string", "x"), ("bool", True), ("negative", -1), ("null", None),
    ("list", []), ("object", {}),
)

UNKNOWN = "zz_unknown"

# The command once took the draft-07 schema file as its first argument;
# passing it while it exists lets this test run on either side of the
# Report reading itself.
_SCHEMA = pathlib.Path(__file__).parent / "report_schema.json"


@pytest.fixture(scope="module")
def artifacts():
    sim = run("transport=coap,queries=6,loss=0.0,cache=client-dns")
    live = run(
        "transport=udp,queries=10,rate=200,cache=client-dns,substrate=live,"
        "timeout=5,serve_workers=2,load_workers=2"
    )
    fleet = run(
        "one-hop,transport=coap,cache=client-dns+client-coap,clients=1000,"
        "queries=400,rate=400,fleet-sample-cap=500,substrate=fleet"
    )
    cells = sweep(
        RunSpec.from_spec("queries=4,loss=0.0").scenario,
        transports=("udp", "coap"), topologies=("one-hop",), losses=(0.0,),
    )
    documents = {
        "sim": sim.to_json(),
        "live": live.to_json(),
        "fleet": fleet.to_json(),
        "sweep": sweep_to_json(cells),
        "telemetry": sim.telemetry[0],
    }
    return json.loads(json.dumps(documents))


def _nodes(value, path=()):
    """``(path, value)`` for *value* and everything inside it."""
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _nodes(child, path + (index,))


def _edited(document, path, edit):
    mutant = copy.deepcopy(document)
    parent = mutant
    for step in path[:-1]:
        parent = parent[step]
    edit(parent, path[-1])
    return mutant


def mutants(document):
    """``(op, path, new value, mutant)`` for every mutation of
    *document*; *op* is ``del``, ``add`` or ``set``."""
    for path, value in _nodes(document):
        if path and isinstance(path[-1], str):
            yield "del", path, None, _edited(
                document, path, lambda parent, key: parent.pop(key))
        if isinstance(value, dict):
            mutant = copy.deepcopy(document)
            target = mutant
            for step in path:
                target = target[step]
            target[UNKNOWN] = 1
            yield "add", path, 1, mutant
        elif not isinstance(value, list) and path:
            for _, new in REPLACEMENTS:
                if type(new) is type(value) and new == value:
                    continue
                yield "set", path, new, _edited(
                    document, path,
                    lambda parent, key, new=new: parent.__setitem__(key, new),
                )


def _row_left_open(op, path, new) -> bool:
    """Whether a telemetry row mutation is one the contract allows."""
    return (
        op == "set" and len(path) == 2 and path[0] == "latency_ms"
        and (new is None or new == -1)
    )


def _metric_left_open(op, key, new) -> bool:
    if op == "del":
        return key not in ALWAYS
    if op != "set":
        return False
    if key in ALWAYS and not key.startswith("latency."):
        return False
    (row,) = metric_rows(key)
    return new is None or type(new) in UNITS[row.unit]


def _report_left_open(op, path, new) -> bool:
    head = path[0]
    if head == "spec":
        return len(path) > 1 or op == "add"
    if head == "telemetry":
        return (op == "del" and len(path) == 1) or (
            len(path) > 2 and _row_left_open(op, path[2:], new)
        )
    if head == "metrics" and len(path) == 2:
        return _metric_left_open(op, path[1], new)
    return head == "provenance" and op == "set" and isinstance(new, str)


def _left_open(kind, op, path, new) -> bool:
    if kind == "telemetry":
        return _row_left_open(op, path, new)
    if kind == "sweep":
        if path[:1] != ("cells",) or len(path) < 2:
            return path[:1] == ("provenance",) and op == "set" \
                and isinstance(new, str)
        if len(path) == 2:
            return op == "del"
        path = path[2:]
    return bool(path) and _report_left_open(op, path, new)


def _exit_code(tmp_path, document) -> int:
    from repro.api.validate import main

    target = tmp_path / "document.json"
    target.write_text(json.dumps(document))
    schema = [str(_SCHEMA)] if _SCHEMA.exists() else []
    return main(schema + [str(target)])


KINDS = ("sim", "live", "fleet", "sweep", "telemetry")


@pytest.mark.parametrize("kind", KINDS)
def test_unmutated_document_passes(artifacts, tmp_path, kind):
    assert _exit_code(tmp_path, artifacts[kind]) == 0


@pytest.mark.parametrize("kind", KINDS)
def test_every_mutant_outside_the_contract_fails(
    artifacts, tmp_path, capsys, kind
):
    passed = []
    checked = 0
    for op, path, new, mutant in mutants(artifacts[kind]):
        if _left_open(kind, op, path, new):
            continue
        checked += 1
        if _exit_code(tmp_path, mutant) != 1:
            passed.append((op, path, new))
        capsys.readouterr()
    assert checked > 40, checked
    assert not passed, passed[:20]
