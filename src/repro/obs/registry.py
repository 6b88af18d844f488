"""The labeled metrics registry: the *aggregate* half of observability.

Where the flight recorder answers "what happened, in what order"
(:mod:`repro.obs.events`), the registry answers "how much, and where":
pull-based families of Counters, Gauges and Histograms, each fanned out
over label sets (``scheduler=``, ``node=``, ``phase=``, ...), exposable
as Prometheus text format or a JSON snapshot (:mod:`repro.obs.export`).

The design mirrors the tracer's contract:

* **Guarded use.**  Components hold a registry attribute defaulting to
  the shared :data:`NULL_REGISTRY` (``enabled = False``) and bind label
  children only when ``registry.enabled`` — so a disabled run pays one
  attribute load and one branch per site, and never allocates a family,
  a child, or a label tuple.  The engine pays nothing per site either
  way: its series are derived from ``Metrics`` when the registry is
  read (see :class:`MetricsRegistry`).
* **Behaviour invariance.**  Recording never touches any RNG and never
  mutates instrumented state; an instrumented run is bit-identical to an
  uninstrumented one (asserted by the differential tests).
* **Merge mirrors ``Metrics.merge``.**  Per-node registries from the
  distributed runtime fold into one view: counters add, gauges take the
  maximum (the convention ``Metrics`` uses for ``ticks`` and maxima —
  parallel participants overlap rather than sum), histograms add
  bucket-wise (exact).

Families are identified by name; re-requesting a family with the same
kind and label names returns the existing one (so engine, schedulers and
nodes can all bind ``repro_commits_total`` without coordination), while
a conflicting re-registration raises :class:`SpecificationError`.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping

from repro.errors import SpecificationError
from repro.obs.histogram import Histogram

__all__ = [
    "Counter",
    "Gauge",
    "HistogramChild",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise SpecificationError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class HistogramChild:
    """A labeled series backed by the power-of-two ``Histogram``."""

    __slots__ = ("hist",)

    def __init__(self) -> None:
        self.hist = Histogram()

    def observe(self, value: int) -> None:
        self.hist.record(value)


_CHILD_TYPES = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": HistogramChild,
}


class MetricFamily:
    """One named metric, fanned out over label values.

    ``labels(**kv)`` returns the child for that label combination,
    creating it on first use.  Children are plain objects with one hot
    method each (``inc`` / ``set`` / ``observe``) — call sites bind them
    once and never pay the dict lookup again.
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
    """A pull-based registry of metric families.

    Components with no counts of their own (the service, the distributed
    runtime, the audit monitor) *push*: they bind children and ``inc`` /
    ``set`` / ``observe`` them.  The engine keeps its counts in
    :class:`repro.engine.metrics.Metrics` — what snapshots persist and
    recovery restores — so it registers a *source* with :meth:`derive`,
    and every read (:meth:`families`, :meth:`get`, :meth:`value`, hence
    exposition and :meth:`merge`) first lets each source *set* its
    series to the current counts.  Setting is idempotent: scraping twice
    changes nothing, and a restarted engine's series agree with its
    restored ``Metrics``, not with the work done since the restart.

    A source sets rather than adds, so it must be the only writer of its
    series: **one live engine per ``scheduler=`` label per registry**.
    A second engine under the same label *replaces* the first as the
    source (the series restart from its counts, the old engine is
    released); to aggregate engines under one label, give each its own
    registry and :meth:`merge` them.
    """

    enabled = True

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

    # ------------------------------------------------------------------

    def _family(
        self, name: str, kind: str, help: str, labels: Iterable[str]
    ) -> MetricFamily:
        label_names = tuple(labels)
        if not _NAME_RE.match(name):
            raise SpecificationError(f"bad metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise SpecificationError(f"bad label name {label!r}")
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != label_names:
                raise SpecificationError(
                    f"metric {name!r} re-registered as {kind} with labels "
                    f"{label_names}, but exists as {existing.kind} with "
                    f"labels {existing.label_names}"
                )
            return existing
        family = MetricFamily(name, kind, help, label_names)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> MetricFamily:
        return self._family(name, "counter", help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> MetricFamily:
        return self._family(name, "gauge", help, labels)

    def histogram(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> MetricFamily:
        return self._family(name, "histogram", help, labels)

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

    # ------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry (e.g. one node's) into this one.

        Mirrors :meth:`repro.engine.metrics.Metrics.merge`: counters
        add, gauges take the max (parallel participants overlap in time,
        they do not sum), histograms add bucket-wise (exact).  Families
        must agree on kind and label names.
        """
        for family in other.families():
            mine = self._family(
                family.name, family.kind, family.help, family.label_names
            )
            for key, child in family.series():
                target = mine._children.get(key)
                if target is None:
                    target = mine._children[key] = _CHILD_TYPES[family.kind]()
                if family.kind == "counter":
                    target.value += child.value
                elif family.kind == "gauge":
                    target.value = max(target.value, child.value)
                else:
                    target.hist.merge(child.hist)
        return self


class NullRegistry(MetricsRegistry):
    """The disabled registry: never registers, never allocates.

    ``counter`` / ``gauge`` / ``histogram`` return a shared inert family
    whose children swallow every update, so even an unguarded call site
    is safe — but guarded sites (``if registry.enabled``) are the norm
    and the overhead budget assumes them.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def _family(self, name, kind, help, labels) -> MetricFamily:
        return _NULL_FAMILY

    def derive(self, key, source) -> None:
        pass

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        return self


class _NullChild:
    __slots__ = ()

    def inc(self, amount=1) -> None:
        pass

    def dec(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    @property
    def value(self) -> int:
        return 0


class _NullFamily(MetricFamily):
    __slots__ = ()

    def labels(self, **kv):
        return _NULL_CHILD


_NULL_CHILD = _NullChild()
_NULL_FAMILY = _NullFamily("_null", "counter", "", ())

#: Shared disabled registry — the default for every instrumented component.
NULL_REGISTRY = NullRegistry()


def registry_from_mapping(
    payload: Mapping[str, object],
) -> MetricsRegistry:  # pragma: no cover - convenience for external tools
    """Rebuild a registry from a JSON snapshot (see export.json_snapshot)."""
    from repro.obs.export import registry_from_snapshot

    return registry_from_snapshot(payload)
