"""On-demand wait-for-graph and closure-frontier snapshots.

The tracer answers *what happened*; these helpers answer *what is stuck
right now*.  Both work on live objects (an :class:`~repro.engine.runtime
.Engine` mid-run, a scheduler, a distributed sequencer) and return plain
dicts, so a debugger, a test, or the CLI can render them without
touching internals.

Wait-for edges are gathered from every blocking mechanism the stack
has — lock queues, breakpoint waits, retention waits, cycle parks, and
commit dependencies — because a stall can hide in any one of them.
"""

from __future__ import annotations

from typing import Any

from repro.engine.cycles import WaitGraph

__all__ = ["closure_frontier", "wait_for_snapshot"]


def _scheduler_of(obj: Any) -> Any:
    return getattr(obj, "scheduler", None) or getattr(obj, "control", None) or obj


def wait_for_snapshot(obj: Any) -> dict[str, Any]:
    """Every wait-for edge currently in force, plus one cycle if any.

    ``obj`` may be an engine, a scheduler, a distributed runtime, or a
    sequencer; whatever blocking state it (or its scheduler/control)
    exposes is collected.  Edges run waiter -> blocker, listed sorted,
    each with the first cause that put it there.
    """
    scheduler = _scheduler_of(obj)
    graph = WaitGraph()
    causes: dict[tuple[str, str], str] = {}  # first cause per edge

    def waits(waiter: str, blockers: set[str], cause: str) -> None:
        graph.add_waits(waiter, blockers)
        for blocker in blockers:
            causes.setdefault((waiter, blocker), cause)

    locks = getattr(scheduler, "locks", None)
    if locks is not None and hasattr(locks, "waits_for_edges"):
        for waiter, holder in locks.waits_for_edges():
            waits(waiter, {holder}, "lock")

    for attr, cause in (
        ("_waiting_on", "breakpoint"),   # MLA prevent / nested-lock
        ("waiting_on", "breakpoint"),    # distributed sequencer
    ):
        waiting = getattr(scheduler, attr, None) or getattr(obj, attr, None)
        if isinstance(waiting, dict):
            for waiter, blockers in waiting.items():
                waits(waiter, blockers, cause)

    parked = getattr(scheduler, "_parked", None)
    if isinstance(parked, dict):
        for waiter, entries in parked.items():
            waits(waiter, {entry[0] for entry in entries}, "park")

    # Commit dependencies: a finished attempt cannot commit before the
    # attempts whose uncommitted writes it consumed.
    txns = getattr(obj, "txns", None)
    if isinstance(txns, dict):
        for state in txns.values():
            if getattr(state, "committed", True):
                continue
            waits(state.name, {
                dep_name
                for dep_name, dep_attempt in getattr(state, "deps", ())
                if (dep := txns.get(dep_name)) is not None
                and not dep.committed
                and dep.attempt == dep_attempt
            }, "commit-dep")

    seq_deps = getattr(obj, "deps", None)
    attempts = getattr(obj, "attempts", None)
    if isinstance(seq_deps, dict) and isinstance(attempts, dict):
        committed = getattr(obj, "committed", set())
        for (name, attempt), deps in seq_deps.items():
            if attempts.get(name) == attempt:
                waits(name, {
                    dep[0]
                    for dep in deps
                    if dep not in committed and attempts.get(dep[0]) == dep[1]
                }, "commit-dep")

    return {
        "edges": [
            {"waiter": w, "blocker": b, "cause": c}
            for (w, b), c in sorted(causes.items())
        ],
        "waiters": sorted({w for w, _ in causes}),
        "cycle": graph.find_cycle(),
    }


def closure_frontier(window: Any) -> dict[str, Any]:
    """The closure window's live frontier: per transaction, how deep its
    performed prefix reaches and where its last step sits; plus the
    window-wide derived-edge count (the quantity pruning bounds)."""
    steps = getattr(window, "_steps", {})
    committed = getattr(window, "_committed", set())
    cuts = getattr(window, "_cuts", {})
    transactions = {}
    for name in sorted(steps):
        chain = steps[name]
        if not chain:
            continue
        transactions[name] = {
            "steps": len(chain),
            "last": str(chain[-1]),
            "committed": name in committed,
            "breakpoints": {
                gap: level for gap, level in sorted(cuts.get(name, {}).items())
            },
        }
    return {
        "size": getattr(window, "size", len(steps)),
        "edges": getattr(window, "edges_last", 0),
        "shortcuts": len(getattr(window, "_shortcut_edges", ())),
        "transactions": transactions,
    }
