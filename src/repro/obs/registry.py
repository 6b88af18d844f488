"""The labeled metrics registry: the *aggregate* half of observability.

Where the flight recorder answers "what happened, in what order"
(:mod:`repro.obs.events`), the registry answers "how much, and where":
families of Counters, Gauges and Histograms, each fanned out over label
sets (``scheduler=``, ``node=``, ``phase=``, ...), exposable as
Prometheus text format or a JSON snapshot (:mod:`repro.obs.export`).

* **One write model.**  Nothing pushes.  Every component keeps its
  counts where it already needs them — ``Metrics``, ``Sequencer.commits``,
  ``Network.messages_by_kind``, ``OnlineMonitor.checked`` — and registers
  one *source* with :meth:`MetricsRegistry.derive`; each read of the
  registry first lets every source *set* its series to the current
  counts (see :class:`MetricsRegistry`).  A run therefore never touches
  the registry, and a component built without one (``registry=None``)
  tests that once, at construction.
* **Behaviour invariance.**  A source only reads; a metered run is
  bit-identical to a bare one (asserted by the differential tests).

Families are identified by name; re-requesting a family with the same
kind and label names returns the existing one (so every data node can
set its own ``node=`` series of ``repro_node_parks_total`` without
coordination), while a conflicting re-registration raises
:class:`SpecificationError`.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from repro.errors import SpecificationError
from repro.obs.histogram import Histogram

__all__ = [
    "Counter",
    "Gauge",
    "HistogramChild",
    "MetricFamily",
    "MetricsRegistry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """A count that only grows in its owner's hands."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class HistogramChild:
    """A labeled series backed by the power-of-two ``Histogram``."""

    __slots__ = ("hist",)

    def __init__(self) -> None:
        self.hist = Histogram()


_CHILD_TYPES = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": HistogramChild,
}


class MetricFamily:
    """One named metric, fanned out over label values.

    ``labels(**kv)`` returns the child for that label combination,
    creating it on first use.  Children are plain holders of a ``value``
    (or a ``hist``) that the owning source assigns.
    """

    __slots__ = ("name", "kind", "help", "label_names", "_children")

    def __init__(
        self, name: str, kind: str, help: str, label_names: tuple[str, ...]
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **kv: object):
        if tuple(sorted(kv)) != tuple(sorted(self.label_names)):
            raise SpecificationError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(kv))}"
            )
        key = tuple(str(kv[ln]) for ln in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _CHILD_TYPES[self.kind]()
        return child

    def series(self) -> list[tuple[tuple[str, ...], object]]:
        """``(label values, child)`` pairs in deterministic order."""
        return sorted(self._children.items())


class MetricsRegistry:
    """A registry of metric families, every series derived on read.

    A component registers a *source* with :meth:`derive`; every read
    (:meth:`families`, :meth:`get`, :meth:`value`, hence exposition)
    first calls each source, which sets its series
    (:meth:`put`) from the counts the component keeps anyway.  A source
    sets, so scraping twice changes nothing, and a restarted engine's
    series agree with its restored ``Metrics``, not with the work done
    since the restart.

    A source must be the only writer of its series: **one live engine
    per ``scheduler=`` label per registry** (likewise one sequencer per
    ``control=``, one node per ``node=``).  A second source under the
    same key *replaces* the first (the series restart from its counts,
    the old owner is released).
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._sources: dict[object, object] = {}

    def derive(self, key: object, source) -> None:
        """Call ``source(self)`` before every read, replacing any source
        registered under the same ``key``."""
        self._sources[key] = source

    def _refresh(self) -> None:
        for source in self._sources.values():
            source(self)

    def put(
        self, kind: str, name: str, help: str, value, /, **labels: object
    ) -> None:
        """Set one series — the only write a source makes.  ``value`` is
        a number, or for a ``"histogram"`` a ``Histogram``, which is
        copied (a series never aliases its owner's).  Positional-only
        up to ``value``: ``kind`` and ``name`` are label names too."""
        child = self._family(name, kind, help, tuple(labels)).labels(**labels)
        if kind == "histogram":
            child.hist = Histogram().merge(value)
        else:
            child.value = value

    # ------------------------------------------------------------------

    def _family(
        self, name: str, kind: str, help: str, labels: Iterable[str]
    ) -> MetricFamily:
        label_names = tuple(labels)
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != label_names:
                raise SpecificationError(
                    f"metric {name!r} re-registered as {kind} with labels "
                    f"{label_names}, but exists as {existing.kind} with "
                    f"labels {existing.label_names}"
                )
            return existing
        if kind not in _CHILD_TYPES:
            raise SpecificationError(f"unknown family kind {kind!r}")
        if not _NAME_RE.match(name):
            raise SpecificationError(f"bad metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise SpecificationError(f"bad label name {label!r}")
        family = MetricFamily(name, kind, help, label_names)
        self._families[name] = family
        return family

    # ------------------------------------------------------------------

    def families(self) -> list[MetricFamily]:
        """All families, sorted by name (deterministic exposition)."""
        self._refresh()
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> MetricFamily | None:
        self._refresh()
        return self._families.get(name)

    def value(self, name: str, **kv: object):
        """Convenience read: the child value for one label combination
        (0 / empty histogram when the series was never touched)."""
        family = self.get(name)
        if family is None:
            return None
        child = family.labels(**kv)
        return child.hist if isinstance(child, HistogramChild) else child.value
