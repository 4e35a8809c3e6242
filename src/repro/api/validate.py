"""``python -m repro.api.validate SCHEMA FILE [FILE...]`` — validate
JSON artifacts against the checked-in report schema and every Report
in them (a sweep's cells too) against
:data:`~repro.api.report.REPORT_METRICS`
(:func:`~repro.api.report.check_metrics`).

The CI workflow runs this over the live-smoke and perf-smoke artifacts
so any drift between what the toolkit emits and what
``tests/report_schema.json`` and the table promise fails the build.
Exit status: 0 when every file validates, 1 if any fails, 2 on
unreadable inputs or a malformed schema.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

from .report import ReportError, check_metrics
from .schema import SchemaError, ValidationError, load_schema, validate


def _check_reports(instance) -> None:
    """:func:`check_metrics` on a Report document, or on every cell of
    a sweep document; other documents have no Report."""
    if instance.get("kind") == "sweep":
        for cell in instance["cells"].values():
            _check_reports(cell)
    elif "metrics" in instance:
        check_metrics(instance["substrate"], instance["metrics"])


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 2:
        print(
            "usage: python -m repro.api.validate SCHEMA FILE [FILE...]",
            file=sys.stderr,
        )
        return 2
    schema_path, *files = args
    try:
        schema = load_schema(schema_path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load schema {schema_path}: {exc}",
              file=sys.stderr)
        return 2
    status = 0
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                instance = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot load {path}: {exc}", file=sys.stderr)
            return 2
        try:
            validate(instance, schema)
            _check_reports(instance)
        except (ValidationError, ReportError) as exc:
            print(f"FAIL {path}: {exc}", file=sys.stderr)
            status = 1
        except SchemaError as exc:
            print(f"error: malformed schema: {exc}", file=sys.stderr)
            return 2
        else:
            print(f"ok   {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
