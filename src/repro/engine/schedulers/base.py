"""The scheduler interface of the engine.

A scheduler is consulted by the engine at three points:

* :meth:`Scheduler.on_request` — a transaction has a pending access; may
  it perform now, must it wait, or should somebody be rolled back?
* :meth:`Scheduler.after_performed` — a step was just performed; the
  Section 6 *cycle-detection* strategy reacts here (the step may have
  closed a cycle in the coherent closure, forcing a rollback).
* :meth:`Scheduler.may_commit` — a finished transaction asks to commit.

Schedulers never touch entity values; the engine owns stores, undo and
cascades.  Victim sets returned in :class:`Decision` are transaction
names whose *current attempts* the engine will roll back and restart.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.runtime import Engine, TxnState
    from repro.model.programs import Access
    from repro.model.steps import StepRecord

__all__ = ["Action", "Decision", "Scheduler"]


class Action(Enum):
    PERFORM = "perform"
    WAIT = "wait"
    ABORT = "abort"


@dataclass(frozen=True)
class Decision:
    """A scheduling verdict.  ``victims`` accompanies ``ABORT``.

    ``victim_points`` optionally names, per victim, the first step index
    that must be undone.  Under the engine's ``recovery="segment"`` mode
    the victim is rolled back only to its latest breakpoint at or before
    that step (the paper's intermediate *unit of recovery*); without a
    point — or under the default whole-transaction recovery — the victim
    restarts from scratch.
    """

    action: Action
    victims: tuple[str, ...] = ()
    reason: str = ""
    victim_points: tuple[tuple[str, int], ...] = ()

    @classmethod
    def perform(cls) -> "Decision":
        return _PERFORM

    @classmethod
    def wait(cls, reason: str = "") -> "Decision":
        return cls(Action.WAIT, reason=reason)

    @classmethod
    def abort(cls, victims, reason: str = "", points=None) -> "Decision":
        return cls(
            Action.ABORT,
            tuple(victims),
            reason=reason,
            victim_points=tuple((points or {}).items()),
        )


#: What ``Decision.perform()`` returns: frozen, so every caller shares it.
_PERFORM = Decision(Action.PERFORM)


class Scheduler:
    """Base class: admit everything (no concurrency control at all).

    Running the engine with the base scheduler yields arbitrary
    interleavings — the contrast workload for experiment E5, where the
    audit invariant visibly breaks without control.
    """

    name = "none"
    #: The engine's emission point (``emit(kind, /, **fields)``, the tick
    #: is stamped there), and the kinds some sink of it reads: a site
    #: reports ``kind`` only ``if kind in self.reads``.
    emit = None
    reads: Container[str] = frozenset()

    def __init__(self) -> None:
        self.engine: "Engine | None" = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def attach(self, engine: "Engine") -> None:
        """Called by the engine on entry to every ``advance``.

        Binds the engine's emission point and the kinds its sinks read
        for the scheduler and for its closure window, if it has one (the
        window has no engine reference of its own), so a decision no
        sink reads is never built."""
        self.engine = engine
        self.emit = engine._emit
        self.reads = engine._routes
        window = getattr(self, "window", None)
        if window is not None:
            window.emit = self.emit
            window.reads = self.reads

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Picklable dynamic state for engine snapshots.  The base
        scheduler is stateless; subclasses with waits-for graphs, locks
        or closure windows override (iteration orders that feed victim
        choice must round-trip exactly)."""
        return {}

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` dict onto a freshly
        constructed scheduler of the same kind."""

    def retains(self, name: str) -> bool:
        """Whether this control still reads committed ``name``'s place
        in the nest: a closure window does until it prunes the
        transaction.  A service forgets a committed transaction's nest
        entry only once this says no."""
        window = getattr(self, "window", None)
        return window is not None and window.retains(name)

    def counters(self, metrics) -> tuple[tuple[str, str, int], ...]:
        """``(series, help, value)`` rows the engine publishes under this
        scheduler's label whenever the registry is read, valued from the
        engine's ``metrics``: a field, or — for counts only a series
        reports (lock traffic, conflicts, parks, ...) — its ``detail``
        bag.  Default: no series of its own."""
        return ()

    # ------------------------------------------------------------------
    # decision points
    # ------------------------------------------------------------------

    def on_request(self, txn: "TxnState", access: "Access") -> Decision:
        return Decision.perform()

    def after_performed(
        self, txn: "TxnState", record: "StepRecord"
    ) -> Decision | None:
        """Optionally veto a just-performed step (cycle detection)."""
        return None

    def may_commit(self, txn: "TxnState") -> Decision:
        return Decision.perform()

    # ------------------------------------------------------------------
    # notifications
    # ------------------------------------------------------------------

    def on_commit(self, txn: "TxnState") -> None:
        pass

    def on_abort(self, txn: "TxnState") -> None:
        """The attempt ``txn.key`` is rolled back whole and restarts
        (under either unit of recovery); called exactly once per
        restart, before ``txn.attempt`` moves on."""

    def on_rollback(self, txn: "TxnState", keep_steps: int) -> None:
        """Partial-rollback notification (``recovery="segment"``): the
        attempt keeps its first ``keep_steps`` steps, always at least
        one — a rewind that keeps nothing is a restart, reported through
        :meth:`on_abort` instead.  Default: ignore it."""

    def on_stall(self, active: list["TxnState"]) -> Decision:
        """Never called (the engine has no stall rule): kept only while
        ``benchmarks/e18/inproc.py`` swaps a proxy onto it by name."""
        raise NotImplementedError
