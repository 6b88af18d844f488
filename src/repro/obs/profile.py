"""Deterministic phase profiler: where does wall time actually go.

The engine and the distributed runtime spend their time in a small,
closed set of activities — making a scheduling decision, maintaining the
coherent closure, rolling a transaction back, certifying a commit, and
delivering network messages.  :class:`PhaseProfiler` attributes wall
time to exactly those :data:`PHASES`.

It works **outside-in**: ``install(owner)`` swaps a timing proxy in,
on the instances, around each callable of an engine or a distributed
runtime that does one phase's work, and ``uninstall()`` puts back
exactly what was there.  Nothing it times names it, so an owner nobody
profiles pays nothing: the service installs its profiler only while a
``profile`` request is open, ``repro top`` and ``repro metrics`` for
their own runs.  ``phase(name)`` records a block timed by hand.

Attribution is **exclusive**: while a nested phase is open, the elapsed
time is charged to the *inner* phase — a closure rebuild inside a
scheduler hook counts as closure time, not both — so the per-phase
seconds sum to (at most) the profiled wall time.  A proxy only reads a
clock and calls through, so a profiled run is bit-identical to a bare
one (differential-tested); the clock is injectable
(``PhaseProfiler(clock=fake)``), so the nesting arithmetic is tested
against exact integers.
"""

from __future__ import annotations

from time import perf_counter

from repro.errors import SpecificationError

__all__ = ["PHASES", "PhaseProfiler"]

#: The closed phase taxonomy.  Adding a phase is a spec change: update
#: DESIGN.md §4f and the exposition tests alongside.
PHASES = ("schedule", "closure", "rollback", "certify", "network")

#: What :meth:`PhaseProfiler.install` times, as ``(attribute, phase)``:
#: on an engine's scheduler, on a sequencer's control, on a window.
_SCHEDULER_HOOKS = (
    ("on_request", "schedule"),
    ("after_performed", "schedule"),
    ("may_commit", "certify"),
)
_CONTROL_HOOKS = (("decide", "schedule"), ("certify_commit", "certify"))
_WINDOW_CALLS = (("_recompute", "closure"), ("_extend", "closure"))

#: Marks an attribute the instance did not hold itself before a swap.
_ABSENT = object()


class _Span:
    """The reusable context manager for one (profiler, phase) pair.

    Spans are stateless beyond that pair — enter/exit only push/pop the
    profiler's stack — so one cached instance per phase serves arbitrary
    nesting, including the same phase nested inside itself, without a
    per-call allocation."""

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

    __slots__ = (
        "seconds", "calls", "_clock", "_stack", "_mark", "_spans", "_undo",
    )

    def __init__(self, clock=perf_counter) -> None:
        self.seconds = {name: 0.0 for name in PHASES}
        self.calls = {name: 0 for name in PHASES}
        self._clock = clock
        self._stack: list[str] = []
        self._mark = 0.0
        self._spans = {name: _Span(self, name) for name in PHASES}
        # (namespace, key, what it held or _ABSENT) per swapped callable
        # while installed, else None.
        self._undo: list[tuple[dict, str, object]] | None = None

    # -- installing -----------------------------------------------------

    def install(self, owner) -> "PhaseProfiler":
        """Time ``owner``'s phase callables until :meth:`uninstall`.

        For an engine, its scheduler's hooks and its ``_rollback``; for
        a distributed runtime (it has a ``sequencer``), every network
        handler, the control's hooks and the sequencer's
        ``_execute_rollback``; for either, the control's closure window
        if it has one.  Each proxy goes in on the instance, over
        whatever the instance held (another proxy included)."""
        if self._undo is not None:
            raise SpecificationError("the phase profiler is already installed")
        self._undo = []
        sequencer = getattr(owner, "sequencer", None)
        if sequencer is None:
            control, hooks = owner.scheduler, _SCHEDULER_HOOKS
            self._swap(owner, (("_rollback", "rollback"),))
        else:
            control, hooks = sequencer.control, _CONTROL_HOOKS
            self._swap(sequencer, (("_execute_rollback", "rollback"),))
            handlers = owner.network._handlers
            for target, handler in list(handlers.items()):
                self._wrap(handlers, target, handler, "network")
        self._swap(control, hooks)
        window = getattr(control, "window", None)
        if window is not None:
            self._swap(window, _WINDOW_CALLS)
        return self

    def uninstall(self) -> None:
        """Put back every swapped callable: what the instance held, or
        nothing where it held none (the class's method shows again)."""
        undo, self._undo = self._undo or [], None
        while undo:
            namespace, key, original = undo.pop()
            if original is _ABSENT:
                del namespace[key]
            else:
                namespace[key] = original

    def _swap(self, owner, calls) -> None:
        namespace = vars(owner)
        for attribute, phase in calls:
            call = getattr(owner, attribute)
            self._wrap(namespace, attribute, call, phase)

    def _wrap(self, namespace: dict, key: str, call, phase: str) -> None:
        self._undo.append((namespace, key, namespace.get(key, _ABSENT)))
        namespace[key] = self._timed(phase, call)

    def _timed(self, name: str, call):
        """A proxy charging the calls of ``call`` to phase ``name``."""
        push, pop = self._push, self._pop

        def proxy(*args, **kwargs):
            push(name)
            try:
                return call(*args, **kwargs)
            finally:
                pop(name)

        return proxy

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

    # -- reading --------------------------------------------------------

    def total(self) -> float:
        return sum(self.seconds.values())

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {
            name: {"seconds": self.seconds[name], "calls": self.calls[name]}
            for name in PHASES
        }

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
