"""Label-aware metrics registry with Prometheus text exposition.

Dependency-free observability core for the toolkit: two instrument
kinds (:class:`Counter`, :class:`Histogram`) grouped into families by
a :class:`MetricsRegistry`, snapshot into plain dicts and rendered in
the Prometheus text exposition format. The load generator counts into
a registry; a serving pool builds the same snapshot shape, gauges
included, straight from its workers' stats blocks
(:func:`repro.live.workers.stats_snapshot`).

Design constraints, in order:

* **Lock-free single-threaded fast path.** A child instrument is a
  ``__slots__`` object whose ``inc``/``observe`` touch plain Python
  ints — no locks, no string formatting, no dict lookups beyond what
  the caller chose to hoist. Hot loops resolve their child once
  (``c = family.labels(result="ok")``) and call ``c.inc()`` per event.
* **Plain data out.** ``snapshot()`` is dicts and lists only:
  :class:`~repro.obs.telemetry.TelemetrySampler` diffs two of them,
  :func:`render_snapshot` prints one, whoever built it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "render_snapshot",
    "parse_exposition",
]

#: Fixed log-spaced latency bounds (seconds): four buckets per decade
#: from 100 µs to 10 s. Every histogram in the toolkit shares these so
#: per-worker bucket counts merge by position and quantile estimates
#: stay comparable across sim, live, and pool scrapes.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    round(1e-4 * 10 ** (i / 4), 10) for i in range(21)
)

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


class _CounterChild:
    """One labelled counter series. ``inc`` is the hot path."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class _HistogramChild:
    """One labelled histogram series with fixed bucket bounds.

    ``counts[i]`` holds the *non-cumulative* number of observations in
    ``(bounds[i-1], bounds[i]]``; ``counts[-1]`` is the overflow
    (> last bound). Rendering applies the cumulative ``le`` semantics
    Prometheus expects; keeping the internal form non-cumulative makes
    per-interval deltas and merges plain element-wise sums.
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        # bisect_left gives the first bound >= value, matching the
        # Prometheus contract that a bucket counts values <= le.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value


class _Family:
    """A named metric family holding children keyed by label values."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Tuple[str, ...]):
        self.name = name
        self.help = help
        self.label_names = label_names
        self._children: Dict[_LabelKV, object] = {}

    def _make_child(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def labels(self, **labels: str):
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def child_items(self) -> Iterable[Tuple[_LabelKV, object]]:
        return self._children.items()


class Counter(_Family):
    """A monotonically increasing count of events."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: int = 1) -> None:
        """Unlabelled shorthand (only valid when the family is bare)."""
        self.labels().inc(amount)

    @property
    def value(self) -> int:
        return sum(c.value for c in self._children.values())


class Histogram(_Family):
    """A distribution over fixed log-spaced buckets."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Tuple[str, ...],
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help, label_names)
        self.buckets = tuple(float(b) for b in buckets)
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be sorted ascending")

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self.labels().observe(value)


class MetricsRegistry:
    """A process-local set of metric families."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    def _register(self, family: _Family) -> _Family:
        existing = self._families.get(family.name)
        if existing is not None:
            if type(existing) is not type(family):
                raise ValueError(
                    f"metric {family.name!r} re-registered as a different kind"
                )
            return existing
        self._families[family.name] = family
        return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter(name, help, tuple(labels)))

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help, tuple(labels), buckets))

    def snapshot(self) -> Dict[str, object]:
        """Plain-data view of every series, pickle- and merge-safe.

        Shape::

            {family_name: {"kind": ..., "help": ...,
                           "buckets": [...],          # histograms only
                           "samples": [[labels_dict, value], ...]}}

        Histogram sample values are ``[counts, count, sum]`` with
        non-cumulative per-bucket counts.
        """
        out: Dict[str, object] = {}
        for name, family in self._families.items():
            samples = []
            for label_kv, child in family.child_items():
                labels = {k: v for k, v in label_kv}
                if family.kind == "histogram":
                    samples.append(
                        [labels, [list(child.counts), child.count, child.sum]]
                    )
                else:
                    samples.append([labels, child.value])
            entry: Dict[str, object] = {
                "kind": family.kind,
                "help": family.help,
                "samples": samples,
            }
            if family.kind == "histogram":
                entry["buckets"] = list(family.buckets)
            out[name] = entry
        return out

    def render(self) -> str:
        """Prometheus text exposition of the registry's current state."""
        return render_snapshot(self.snapshot())


def render_snapshot(snapshot: Dict[str, object]) -> str:
    """Render a snapshot dict in Prometheus text exposition format."""
    lines: List[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry["kind"]
        help_text = entry.get("help", "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        samples = sorted(
            entry["samples"], key=lambda s: _label_key(s[0])
        )
        if kind == "histogram":
            bounds = entry.get("buckets", [])
            for labels, (counts, count, total) in samples:
                cumulative = 0
                for bound, bucket_count in zip(bounds, counts):
                    cumulative += bucket_count
                    le_labels = dict(labels)
                    le_labels["le"] = _format_value(float(bound))
                    lines.append(
                        f"{name}_bucket{_format_labels(_label_key(le_labels))}"
                        f" {cumulative}"
                    )
                inf_labels = dict(labels)
                inf_labels["le"] = "+Inf"
                lines.append(
                    f"{name}_bucket{_format_labels(_label_key(inf_labels))}"
                    f" {count}"
                )
                label_text = _format_labels(_label_key(labels))
                lines.append(f"{name}_count{label_text} {count}")
                lines.append(f"{name}_sum{label_text} {_format_value(total)}")
        else:
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
