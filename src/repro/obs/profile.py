"""Deterministic phase profiler: where does wall time actually go.

The engine and the distributed runtime spend their time in a small,
closed set of activities — making a scheduling decision, maintaining the
coherent closure, rolling a transaction back, certifying a commit, and
delivering network messages.  :class:`PhaseProfiler` attributes wall
time to exactly those :data:`PHASES` via nestable context managers::

    with profiler.phase("schedule"):
        decision = scheduler.on_request(...)

Attribution is **exclusive**: while a nested phase is open, the elapsed
time is charged to the *inner* phase, not the enclosing one — so the
per-phase seconds sum to (at most) the instrumented wall time and a
stacked-bar over the phases is honest.

The contract mirrors the tracer:

* **Guarded use.**  Components default to :data:`NULL_PROFILER`
  (``enabled = False``) whose ``phase()`` returns one shared inert
  context manager; hot sites additionally guard with
  ``if profiler.enabled`` so the disabled cost is one attribute load and
  one branch.
* **Zero RNG, behaviour-free.**  The profiler only reads a clock; it
  never feeds back into any decision, so profiled runs are bit-identical
  to unprofiled ones (differential-tested).
* **Deterministic in tests.**  The clock is injectable
  (``PhaseProfiler(clock=fake)``) so the nesting arithmetic is tested
  against exact integers, not wall time.

``add(phase, seconds)`` lets components that already meter themselves
with ``perf_counter`` (the closure window's ``closure_seconds``) donate
an interval without opening a context manager; the donated interval is
carved out of whatever phase is currently open, preserving exclusivity.
"""

from __future__ import annotations

from time import perf_counter

from repro.errors import SpecificationError

__all__ = [
    "NULL_PROFILER",
    "NullProfiler",
    "PHASES",
    "PhaseProfiler",
]

#: The closed phase taxonomy.  Adding a phase is a spec change: update
#: DESIGN.md §4f and the exposition tests alongside.
PHASES = ("schedule", "closure", "rollback", "certify", "network")


class _Span:
    """The reusable context manager for one (profiler, phase) pair.

    Spans are stateless beyond that pair — enter/exit only push/pop the
    profiler's stack — so one cached instance per phase serves arbitrary
    nesting, including the same phase nested inside itself, without a
    per-call allocation on the hot path."""

    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Span":
        self._profiler._push(self._name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._profiler._pop(self._name)


class PhaseProfiler:
    """Exclusive-time attribution over the closed :data:`PHASES` set."""

    enabled = True

    __slots__ = ("seconds", "calls", "_clock", "_stack", "_mark", "_spans")

    def __init__(self, clock=perf_counter) -> None:
        self.seconds = {name: 0.0 for name in PHASES}
        self.calls = {name: 0 for name in PHASES}
        self._clock = clock
        self._stack: list[str] = []
        self._mark = 0.0
        self._spans = {name: _Span(self, name) for name in PHASES}

    # -- recording ------------------------------------------------------

    def phase(self, name: str) -> _Span:
        try:
            return self._spans[name]
        except KeyError:
            raise SpecificationError(
                f"unknown phase {name!r}; phases are {PHASES}"
            ) from None

    def _push(self, name: str) -> None:
        now = self._clock()
        if self._stack:
            self.seconds[self._stack[-1]] += now - self._mark
        self._stack.append(name)
        self._mark = now

    def _pop(self, name: str) -> None:
        now = self._clock()
        top = self._stack.pop()
        if top != name:  # pragma: no cover - misuse guard
            raise SpecificationError(
                f"phase {name!r} exited while {top!r} was innermost"
            )
        self.seconds[name] += now - self._mark
        self.calls[name] += 1
        self._mark = now

    def add(self, name: str, seconds: float) -> None:
        """Donate an externally metered interval ending *now*.

        The donated time is subtracted from the currently open phase (by
        advancing its mark) so exclusivity holds: a closure rebuild that
        ran inside a ``schedule`` span counts as closure time, not both.
        """
        if name not in self.seconds:
            raise SpecificationError(
                f"unknown phase {name!r}; phases are {PHASES}"
            )
        self.seconds[name] += seconds
        self.calls[name] += 1
        if self._stack:
            self._mark += seconds

    # -- reading --------------------------------------------------------

    def total(self) -> float:
        return sum(self.seconds.values())

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {
            name: {"seconds": self.seconds[name], "calls": self.calls[name]}
            for name in PHASES
        }

    def merge(self, other: "PhaseProfiler") -> "PhaseProfiler":
        """Fold another profiler in (phase seconds and calls add)."""
        for name in PHASES:
            self.seconds[name] += other.seconds[name]
            self.calls[name] += other.calls[name]
        return self

    def publish(self, registry) -> None:
        """Set the phase series from the attribution so far — the
        profiler's registry source (``registry.derive("phases",
        profiler.publish)``)."""
        for name in PHASES:
            registry.put(
                "counter", "repro_phase_seconds_total",
                "Exclusive wall time attributed to each phase.",
                self.seconds[name], phase=name,
            )
            registry.put(
                "counter", "repro_phase_calls_total",
                "Completed spans (or donated intervals) per phase.",
                self.calls[name], phase=name,
            )


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullProfiler(PhaseProfiler):
    """The disabled profiler: one shared inert span, no clock reads."""

    enabled = False

    def phase(self, name: str) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def add(self, name: str, seconds: float) -> None:
        pass


#: Shared disabled profiler — the default for every instrumented component.
NULL_PROFILER = NullProfiler()
