"""Exposition formats for the metrics registry.

Two views of the same :class:`~repro.obs.registry.MetricsRegistry`:

* :func:`prometheus_text` — the Prometheus `text exposition format`_:
  ``# HELP`` / ``# TYPE`` headers, one sample per line, label values
  escaped, histograms expanded to cumulative ``_bucket{le=...}`` series
  plus ``_sum`` and ``_count``.  Bucket bounds are the power-of-two
  upper bounds of :class:`~repro.obs.histogram.Histogram`
  (``le="0"``, ``le="1"``, ``le="3"``, ``le="7"``, ... ``le="+Inf"``),
  emitted up to the highest non-empty bucket so an idle family stays
  one line, not forty-eight.
* :func:`json_snapshot` / :func:`registry_from_snapshot` — a lossless
  JSON round-trip (exact bucket counts, not quantile estimates), used by
  ``repro metrics --json`` and by the per-run bench history.

Plus :func:`write_chrome_trace`, the one-call path from a recording to
a Perfetto-loadable file.

.. _text exposition format:
   https://prometheus.io/docs/instrumenting/exposition_formats/
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping

from repro.obs.events import Event
from repro.obs.histogram import Histogram
from repro.obs.registry import HistogramChild, MetricsRegistry

__all__ = [
    "json_snapshot",
    "prometheus_text",
    "registry_from_snapshot",
    "write_chrome_trace",
]


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_block(names: tuple[str, ...], values: tuple[str, ...],
                 extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(names, values)
    ]
    pairs.extend(f'{name}="{_escape_label(value)}"' for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def _histogram_lines(name: str, label_names: tuple[str, ...],
                     values: tuple[str, ...], hist: Histogram) -> list[str]:
    lines = []
    cumulative = 0
    highest = max(
        (i for i, c in enumerate(hist.counts) if c), default=-1
    )
    for i in range(highest + 1):
        cumulative += hist.counts[i]
        bound = (1 << i) - 1
        lines.append(
            f"{name}_bucket"
            f"{_label_block(label_names, values, (('le', str(bound)),))}"
            f" {cumulative}"
        )
    lines.append(
        f"{name}_bucket"
        f"{_label_block(label_names, values, (('le', '+Inf'),))}"
        f" {hist.count}"
    )
    lines.append(
        f"{name}_sum{_label_block(label_names, values)} {hist.total}"
    )
    lines.append(
        f"{name}_count{_label_block(label_names, values)} {hist.count}"
    )
    return lines


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus text exposition format."""
    lines: list[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for values, child in family.series():
            if isinstance(child, HistogramChild):
                lines.extend(
                    _histogram_lines(
                        family.name, family.label_names, values, child.hist
                    )
                )
            else:
                lines.append(
                    f"{family.name}"
                    f"{_label_block(family.label_names, values)}"
                    f" {_format_value(child.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def json_snapshot(registry: MetricsRegistry) -> dict:
    """A lossless JSON view: exact counter/gauge values and raw
    histogram bucket counts (no quantile estimation baked in)."""
    families = []
    for family in registry.families():
        series = []
        for values, child in family.series():
            labels = dict(zip(family.label_names, values))
            if isinstance(child, HistogramChild):
                hist = child.hist
                series.append(
                    {
                        "labels": labels,
                        "count": hist.count,
                        "sum": hist.total,
                        "max": hist.max,
                        "buckets": {
                            str(i): c
                            for i, c in enumerate(hist.counts) if c
                        },
                        "p50": hist.percentile(0.50),
                        "p95": hist.percentile(0.95),
                        "p99": hist.percentile(0.99),
                    }
                )
            else:
                series.append({"labels": labels, "value": child.value})
        families.append(
            {
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "series": series,
            }
        )
    return {"families": families}


def registry_from_snapshot(payload: Mapping) -> MetricsRegistry:
    """Rebuild a registry from :func:`json_snapshot` output."""
    registry = MetricsRegistry()
    for spec in payload.get("families", ()):
        kind = spec["kind"]
        label_names = tuple(
            sorted(spec["series"][0]["labels"]) if spec["series"] else ()
        )
        family = registry._family(
            spec["name"], kind, spec.get("help", ""), label_names
        )
        for entry in spec["series"]:
            child = family.labels(**entry["labels"])
            if kind == "histogram":
                hist = child.hist
                for index, count in entry["buckets"].items():
                    hist.counts[int(index)] = count
                hist.count = entry["count"]
                hist.total = entry["sum"]
                hist.max = entry["max"]
            else:
                child.value = entry["value"]
    return registry


def write_chrome_trace(events: Iterable[Event], path: str) -> int:
    """Build the Chrome trace for a recording and write it to ``path``;
    returns the number of trace events written."""
    from repro.obs.spans import chrome_trace

    trace = chrome_trace(events)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
        handle.write("\n")
    return len(trace["traceEvents"])
