"""Commit-time closure certification, shared by the MLA schedulers.

Per-step cycle detection has a subtle hole: ``find_cycle`` surfaces *one*
cycle, and rolling back its victim does not prove the rest of the closure
acyclic.  A transaction whose final step participated in a second,
undetected cycle could otherwise commit a non-correctable history into
the window — permanently, since committed steps never leave.

The fix is an induction invariant: **no transaction commits while the
window's closure is cyclic.**  ``certify_commit`` re-checks the closure
when a finished transaction asks to commit and, on a cycle, rolls back a
victim that :func:`certify_victim` picks — on the engine and, through
the scheduler it hosts, on the distributed sequencer alike.

A witness cycle may consist purely of committed steps.  By the invariant
the committed part of the window is acyclic, so such a cycle is justified
through the reachability of some still-active attempt — typically an old
one that has finished its steps, not the youngest.  Rolling back a
transaction outside that justification leaves the cycle standing, and
certification would then abort forever.  So the victim is the youngest
active transaction whose removal leaves the window acyclic, found by
probing each candidate on a rebuilt closure.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.engine.schedulers.base import Decision
from repro.errors import EngineError

__all__ = ["certify_commit", "certify_victim"]


def certify_victim(
    window, cycle, owners: set[str], candidates: Iterable[str],
    key: Callable[[str], object],
) -> str:
    """The transaction to roll back when certification finds ``cycle``.

    ``owners`` are the uncommitted transactions with a step on the
    witness; the youngest of them (largest ``key``) is the victim.  With
    no owner, the youngest of ``candidates`` whose removal makes
    ``window`` acyclic is.  If no removal does, the committed steps alone
    are cyclic, which only an admission bug can cause.
    """
    if owners:
        return max(owners, key=key)
    for name in sorted(candidates, key=key, reverse=True):
        if window.acyclic_without(name):
            return name
    raise EngineError(
        "committed steps close a cycle no active transaction justifies: "
        + " -> ".join(str(step) for step in cycle or ())
    )


def certify_commit(scheduler, txn) -> Decision:
    """Allow the commit only if the scheduler's window is acyclic."""
    window = getattr(scheduler, "window", None)
    if window is None:
        return Decision.perform()
    result = window.closure()
    if result is None or result.is_partial_order:
        return Decision.perform()
    engine = scheduler.engine
    assert engine is not None
    engine.metrics.cycles_detected += 1
    active = {state.name: state for state in engine.active_states()}
    victim = certify_victim(
        window,
        result.cycle,
        {step.transaction for step in result.cycle or ()
         if step.transaction in active},
        active,
        lambda name: (active[name].priority, name),
    )
    if "cycle.detect" in scheduler.reads:
        scheduler.emit(
            "cycle.detect",
            witness=[str(step) for step in result.cycle or ()],
            victim=victim,
            txns=sorted(
                step.transaction for step in result.cycle or ()
            ),
            when="commit-certify",
        )
    return Decision.abort([victim], "commit-time certification")
