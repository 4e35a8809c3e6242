#!/usr/bin/env python3
"""Lint guard: no new byte-slicing in the wire codecs' hot modules, and
no new message copies (CoAP or DNS) on the CoAP exchange path.

The decode hot paths parse with ``struct.unpack_from``, index
arithmetic, and :class:`repro.net.buffers.BufReader` cursors; every
``data[a:b]`` slice of a bytes-like object allocates a copy, and PR 6
removed most of them; PR 14 did the same for the 6LoWPAN hop path
(IPHC, fragmentation, the adaptation layer, UDP). The answered CoAP exchange builds each message
once; every ``dataclasses.replace`` / ``with_option`` /
``with_uint_option`` / ``without_option`` call constructs another
:class:`~repro.coap.message.CoapMessage`, and PR 13 took them off that
path; every ``with_ttls`` / ``adjust_ttls`` call constructs another
:class:`~repro.dns.message.Message`, and PR 18 took the server's off it
(the EOL-TTLs rewrite happens while encoding; the client's restore is
the one DNS copy a query still makes). This guard ratchets both states:
it counts, per function, slice subscripts (``x[a:b]``) across the codec
modules and calls to the copying helpers across the exchange modules,
and compares the counts against the checked-in allowlist
(``tools/hot_slice_allowlist.json``, one section each).

* a function exceeding its allowance fails the build — rewrite the new
  slice (cursor, ``unpack_from``, or a deliberate single ``bytes(...)``
  boundary materialisation) or build the message in one constructor
  call, or record the deliberate exception here;
* a function now below its allowance is reported so the allowlist can
  be ratcheted down.

Run ``python tools/check_hot_slices.py --update`` after a deliberate
change to regenerate the allowlist; the diff then documents the
decision in review.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path
from typing import Callable, Dict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOWLIST = Path(__file__).with_name("hot_slice_allowlist.json")

#: The codec, AES-CCM and 6LoWPAN hop-path modules whose slice counts
#: are ratcheted.
HOT_MODULES = [
    "repro/cborlib/decoder.py",
    "repro/coap/message.py",
    "repro/coap/options.py",
    "repro/crypto/aes.py",
    "repro/crypto/ccm.py",
    "repro/dns/message.py",
    "repro/dns/name.py",
    "repro/dns/rdata.py",
    "repro/dtls/record.py",
    "repro/lowpan/adaptation.py",
    "repro/lowpan/fragmentation.py",
    "repro/lowpan/ieee802154.py",
    "repro/lowpan/iphc.py",
    "repro/net/buffers.py",
    "repro/net/udp.py",
    "repro/oscore/option.py",
    "repro/oscore/protect.py",
]


#: The endpoint modules whose message-copy counts are ratcheted.
EXCHANGE_MODULES = [
    "repro/coap/endpoint.py",
    "repro/doc/caching.py",
    "repro/doc/client.py",
    "repro/doc/server.py",
]

#: Calls that construct one more CoapMessage, or one more DNS Message,
#: from an existing one (matched by name, so a ``str.replace`` in these
#: modules counts too).
COPY_CALLS = frozenset({
    "replace", "with_option", "with_uint_option", "without_option",
    "with_ttls", "adjust_ttls",
})


def _is_slice(node: ast.AST) -> bool:
    return isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)


def _is_copy_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in COPY_CALLS


#: section of the allowlist -> (modules, node predicate, what is counted)
SECTIONS = {
    "slices": (HOT_MODULES, _is_slice, "byte-slice(s)"),
    "copies": (EXCHANGE_MODULES, _is_copy_call, "message copy call(s)"),
}


def _counts(path: Path, counted: Callable[[ast.AST], bool]) -> Dict[str, int]:
    """``{qualified function name: nodes *counted* accepts}`` for *path*."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    counts: Dict[str, int] = {}
    stack: list = []

    class Visitor(ast.NodeVisitor):
        def _scoped(self, node) -> None:
            stack.append(node.name)
            self.generic_visit(node)
            stack.pop()

        visit_FunctionDef = _scoped
        visit_AsyncFunctionDef = _scoped
        visit_ClassDef = _scoped

        def generic_visit(self, node) -> None:
            if counted(node):
                scope = ".".join(stack) or "<module>"
                counts[scope] = counts.get(scope, 0) + 1
            super().generic_visit(node)

    Visitor().visit(tree)
    return counts


def inventory() -> Dict[str, Dict[str, Dict[str, int]]]:
    return {
        section: {
            module: _counts(SRC / module, counted)
            for module in modules
            if (SRC / module).exists()
        }
        for section, (modules, counted, _what) in SECTIONS.items()
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    current = inventory()
    if "--update" in argv:
        ALLOWLIST.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"allowlist rewritten: {ALLOWLIST}")
        return 0

    if not ALLOWLIST.exists():
        print(f"error: missing allowlist {ALLOWLIST}", file=sys.stderr)
        return 2
    allowed = json.loads(ALLOWLIST.read_text(encoding="utf-8"))

    failures = []
    improvements = []
    for section, modules in current.items():
        what = SECTIONS[section][2]
        for module, scopes in modules.items():
            module_allowed = allowed.get(section, {}).get(module, {})
            for scope, count in scopes.items():
                budget = module_allowed.get(scope, 0)
                if count > budget:
                    failures.append(
                        f"{module}:{scope}: {count} {what}, "
                        f"allowlisted {budget}"
                    )
                elif count < budget:
                    improvements.append(
                        f"{section}: {module}:{scope}: {count} < {budget}"
                    )
            for scope, budget in module_allowed.items():
                if budget and scope not in scopes:
                    improvements.append(
                        f"{section}: {module}:{scope}: 0 < {budget}"
                    )

    for line in improvements:
        print(f"note: count dropped ({line}); ratchet with --update")
    if failures:
        print(
            "new byte-slicing in codec hot modules or new message copies "
            "on the CoAP exchange path — parse via BufReader/"
            "struct.unpack_from, build the message in one constructor "
            "call, or record a deliberate exception with --update:",
            file=sys.stderr,
        )
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    modules = sum(len(section) for section in current.values())
    print(f"hot-slice guard passed ({modules} modules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
