"""The codec hot-slice ratchet (tools/check_hot_slices.py) stays green.

The guard counts, per function, ``data[a:b]`` slice subscripts across
the codec hot modules and message-copy calls (``replace``,
``with_option``, ...) across the CoAP exchange modules, and compares
them with the checked-in allowlist; a DNS message copy (``with_ttls``,
``adjust_ttls``) counts like a CoAP one. CI runs the script directly,
this test keeps it honest under pytest too.
"""

import importlib.util
import json
from pathlib import Path

SECTIONS = ("slices", "copies")

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_guard():
    spec = importlib.util.spec_from_file_location(
        "check_hot_slices", _TOOLS / "check_hot_slices.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_guard_passes(capsys):
    guard = _load_guard()
    assert guard.main([]) == 0
    assert "passed" in capsys.readouterr().out


def test_guard_trips_on_new_slice(monkeypatch, capsys):
    guard = _load_guard()
    inventory = guard.inventory
    for section in SECTIONS:  # a new slice, and a new message copy
        bloated = inventory()
        module = next(iter(bloated[section]))
        scopes = bloated[section][module]
        scopes["freshly_written_decode"] = scopes.get(
            "freshly_written_decode", 0
        ) + 1
        monkeypatch.setattr(guard, "inventory", lambda: bloated)
        assert guard.main([]) == 1
        assert "freshly_written_decode" in capsys.readouterr().err


def test_guard_reports_ratchet_opportunity(monkeypatch, capsys):
    guard = _load_guard()
    inventory = guard.inventory
    for section in SECTIONS:
        shrunk = inventory()
        scopes = next(
            scopes for scopes in shrunk[section].values() if scopes
        )
        del scopes[next(iter(scopes))]
        monkeypatch.setattr(guard, "inventory", lambda: shrunk)
        assert guard.main([]) == 0
        assert f"{section}: " in capsys.readouterr().out


def test_allowlist_covers_all_hot_modules():
    guard = _load_guard()
    allowed = json.loads(guard.ALLOWLIST.read_text())
    assert set(allowed) == set(SECTIONS)
    assert set(allowed["slices"]) == {
        m for m in guard.HOT_MODULES if (guard.SRC / m).exists()
    }
    assert set(allowed["copies"]) == set(guard.EXCHANGE_MODULES)


def test_answered_exchange_path_makes_no_message_copies():
    """The functions every answered FETCH/POST runs build each message
    in one constructor call; only the GET, Echo-retry, block-wise,
    validation and 4.01 branches still copy, and of the DNS messages
    only the client's TTL restore."""
    copies = _load_guard().inventory()["copies"]
    endpoint = copies["repro/coap/endpoint.py"]
    for scope in (
        "CoapClient.request", "CoapClient._prepare", "CoapClient._transmit",
        "CoapServer._on_datagram", "CoapServer._reply",
    ):
        assert endpoint.get(scope, 0) == 0, scope
    server = copies["repro/doc/server.py"]
    for scope in ("DocServer.answer", "DocServer._read", "DocServer._reply_plaintext"):
        assert server.get(scope, 0) == 0, scope
    caching = copies["repro/doc/caching.py"]
    assert caching.get("prepare_response", 0) == 0  # rewrites while encoding
    assert caching["restore_ttls"] == 2  # EOL restore, DoH-like cap
    client = copies["repro/doc/client.py"]
    assert client["DocClient._build_request"] == 2  # the GET branch
    assert client["DocClient._send"] == 1  # the Echo retry


def test_hop_path_keeps_only_its_deliberate_slices():
    """6LoWPAN and UDP parse their fixed headers with one ``Struct``;
    what is still sliced is the header that keys the parse memo, the
    payload tails, the fragment chunks and (on a memo miss only) the
    inline addresses."""
    slices = _load_guard().inventory()["slices"]
    assert slices["repro/lowpan/adaptation.py"] == {}
    assert slices["repro/lowpan/fragmentation.py"] == {
        "Fragmenter.fragment": 2,  # the FRAG1 chunk, the FRAGN chunks
        "Reassembler.push": 2,  # the chunk behind either header
    }
    assert slices["repro/net/udp.py"] == {"UdpDatagram.decode": 1}
    iphc = slices["repro/lowpan/iphc.py"]
    assert iphc["compress"] == 1  # checksum and payload behind the NHC
    assert iphc["decompress"] == 3  # header (memo key), two payload tails
    assert sum(iphc.values()) <= 8  # 18 before the hop-path rewrite


def test_copy_counter_sees_bare_and_method_calls(tmp_path):
    guard = _load_guard()
    source = tmp_path / "sample.py"
    source.write_text(
        "def build(message):\n"
        "    copy = replace(message, mid=1).with_option(4, b'x')\n"
        "    def inner():\n"
        "        return copy.without_option(4).with_uint_option(14, 1)\n"
        "    return CoapMessage(0, 0, 1, b'', (), b'')[1:2]\n"
        "def rewrite(response):\n"
        "    aged = response.adjust_ttls(-3)\n"
        "    return aged.with_ttls(0).encode(ttl=0)\n"
    )
    assert guard._counts(source, guard._is_copy_call) == {
        "build": 2, "build.inner": 2, "rewrite": 2,
    }
    assert guard._counts(source, guard._is_slice) == {"build": 1}
