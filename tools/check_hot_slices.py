#!/usr/bin/env python3
"""Lint guard: no new byte-slicing in the wire codecs' hot modules.

The decode hot paths parse with ``struct.unpack_from``, index
arithmetic, and :class:`repro.net.buffers.BufReader` cursors; every
``data[a:b]`` slice of a bytes-like object allocates a copy, and PR 6
removed most of them. This guard ratchets that state: it counts slice
subscripts (``x[a:b]``) per function across the codec modules and
compares the counts against the checked-in allowlist
(``tools/hot_slice_allowlist.json``).

* a function exceeding its allowance fails the build — rewrite the new
  slice (cursor, ``unpack_from``, or a deliberate single ``bytes(...)``
  boundary materialisation that you then record here);
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
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOWLIST = Path(__file__).with_name("hot_slice_allowlist.json")

#: The codec and AES-CCM modules whose slice counts are ratcheted.
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
    "repro/lowpan/ieee802154.py",
    "repro/lowpan/iphc.py",
    "repro/net/buffers.py",
    "repro/oscore/option.py",
    "repro/oscore/protect.py",
]


def _slice_counts(path: Path) -> Dict[str, int]:
    """``{qualified function name: slice-subscript count}`` for *path*."""
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

        def visit_Subscript(self, node) -> None:
            if isinstance(node.slice, ast.Slice):
                scope = ".".join(stack) or "<module>"
                counts[scope] = counts.get(scope, 0) + 1
            self.generic_visit(node)

    Visitor().visit(tree)
    return counts


def inventory() -> Dict[str, Dict[str, int]]:
    return {
        module: _slice_counts(SRC / module)
        for module in HOT_MODULES
        if (SRC / module).exists()
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
    for module, scopes in current.items():
        module_allowed = allowed.get(module, {})
        for scope, count in scopes.items():
            budget = module_allowed.get(scope, 0)
            if count > budget:
                failures.append(
                    f"{module}:{scope}: {count} byte-slice(s), "
                    f"allowlisted {budget}"
                )
            elif count < budget:
                improvements.append(f"{module}:{scope}: {count} < {budget}")
        for scope, budget in module_allowed.items():
            if budget and scope not in scopes:
                improvements.append(f"{module}:{scope}: 0 < {budget}")

    for line in improvements:
        print(f"note: slice count dropped ({line}); ratchet with --update")
    if failures:
        print(
            "new byte-slicing in codec hot modules — parse via "
            "BufReader/struct.unpack_from, or record a deliberate "
            "boundary copy with --update:",
            file=sys.stderr,
        )
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"hot-slice guard passed ({len(current)} modules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
