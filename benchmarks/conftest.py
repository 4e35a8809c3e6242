"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it prints
the rows/series the paper reports (via ``print_rows``) and times a
representative computation with pytest-benchmark. Absolute numbers
differ from the testbed; each file asserts the relation the paper
reports (an ordering, a ratio, a size), not the testbed's value.
"""

from typing import Iterable, Sequence


def print_rows(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Render one table in the captured benchmark output."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(h)), 12) for h in header]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
