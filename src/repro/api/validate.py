"""``python -m repro.api.validate FILE [FILE...]`` — check JSON
artifacts with the readers of the documents the toolkit writes: a
sweep (:func:`~repro.api.report.sweep_from_json`), a Report
(:meth:`~repro.api.report.Report.from_json`) or a telemetry row
(:func:`~repro.obs.telemetry.validate_snapshot`).

CI runs this over every artifact ``tools/cli_smoke.py`` writes, so any
drift between what the toolkit emits and what its readers accept fails
the build. Exit status: 0 when every file passes, 1 if any fails, 2 on
unreadable inputs or no file.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

from repro.obs.telemetry import validate_snapshot

from .report import Report, ReportError, sweep_from_json


def check_document(document) -> None:
    """Raise :class:`ReportError` unless *document* is a sweep (it has
    ``kind``), a Report (it has ``report_version``) or a telemetry row
    that reads back."""
    if isinstance(document, dict) and "kind" in document:
        sweep_from_json(document)
    elif isinstance(document, dict) and "report_version" in document:
        Report.from_json(document)
    else:
        validate_snapshot(document)


def main(argv: Optional[List[str]] = None) -> int:
    files = sys.argv[1:] if argv is None else argv
    if not files:
        print("usage: python -m repro.api.validate FILE [FILE...]",
              file=sys.stderr)
        return 2
    status = 0
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot load {path}: {exc}", file=sys.stderr)
            return 2
        try:
            check_document(document)
        except ReportError as exc:
            print(f"FAIL {path}: {exc}", file=sys.stderr)
            status = 1
        else:
            print(f"ok   {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
