"""Prometheus text exposition of plain-dict snapshots.

A snapshot is dicts and lists only::

    {family_name: {"kind": "counter" | "gauge", "help": ...,
                   "samples": [[labels_dict, value], ...]}}

A serving pool builds one, gauges included, straight from its workers'
stats blocks (:func:`repro.live.workers.stats_snapshot`);
:func:`render_snapshot` prints it as ``/metrics`` serves it, and
:func:`parse_exposition` reads that text back — what tests and CI use
to check per-worker series against pool totals without a Prometheus
client.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = [
    "render_snapshot",
    "parse_exposition",
]

_LabelKV = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelKV:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(label_kv: _LabelKV) -> str:
    if not label_kv:
        return ""
    parts = []
    for key, value in label_kv:
        escaped = (
            value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        parts.append(f'{key}="{escaped}"')
    return "{" + ",".join(parts) + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def render_snapshot(snapshot: Dict[str, object]) -> str:
    """Render a snapshot dict in Prometheus text exposition format."""
    lines: List[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        help_text = entry.get("help", "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {entry['kind']}")
        samples = sorted(
            entry["samples"], key=lambda s: _label_key(s[0])
        )
        for labels, value in samples:
            label_text = _format_labels(_label_key(labels))
            lines.append(f"{name}{label_text} {_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_exposition(
    text: str,
) -> Dict[str, Dict[_LabelKV, float]]:
    """Parse Prometheus text exposition back into ``{series: {labels: v}}``.

    Supports the subset :func:`render_snapshot` emits (no escaped
    ``}``/``,`` inside label values beyond the escapes we produce).
    Used by tests and CI to assert per-worker series sum to pool
    totals without a Prometheus client dependency.
    """
    out: Dict[str, Dict[_LabelKV, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"malformed exposition line: {line!r}")
        if "{" in name_part:
            series, _, label_blob = name_part.partition("{")
            label_blob = label_blob.rstrip("}")
            labels: Dict[str, str] = {}
            for item in _split_labels(label_blob):
                key, _, raw = item.partition("=")
                raw = raw.strip()
                if not (raw.startswith('"') and raw.endswith('"')):
                    raise ValueError(f"malformed label in line: {line!r}")
                value = (
                    raw[1:-1]
                    .replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
                labels[key.strip()] = value
            key_kv = _label_key(labels)
        else:
            series = name_part
            key_kv = ()
        out.setdefault(series, {})[key_kv] = (
            float("inf") if value_part == "+Inf" else float(value_part)
        )
    return out


def _split_labels(blob: str) -> List[str]:
    items: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for ch in blob:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            current.append(ch)
            escaped = True
        elif ch == '"':
            current.append(ch)
            in_quotes = not in_quotes
        elif ch == "," and not in_quotes:
            items.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        items.append("".join(current))
    return [i for i in items if i.strip()]
