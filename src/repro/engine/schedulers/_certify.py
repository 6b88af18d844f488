"""Commit-time closure certification, shared by the MLA schedulers.

Per-step cycle detection has a subtle hole: ``find_cycle`` surfaces *one*
cycle, and rolling back its victim does not prove the rest of the closure
acyclic.  A transaction whose final step participated in a second,
undetected cycle could otherwise commit a non-correctable history into
the window — permanently, since committed steps never leave.

The fix is an induction invariant: **no transaction commits while the
window's closure is cyclic.**  ``certify_commit`` re-checks the closure
when a finished transaction asks to commit and, on a cycle, rolls back an
active participant (or, when a cycle consists purely of committed steps —
possible only through a still-active justifier — the youngest active
transaction, whose rollback removes the justification).
"""

from __future__ import annotations

from repro.engine.schedulers.base import Decision

__all__ = ["certify_commit"]


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
    owners = {
        step.transaction
        for step in result.cycle or ()
        if step.transaction in engine.txns
        and not engine.txns[step.transaction].committed
    }
    if not owners:
        # The cycle lies among committed steps, justified through some
        # still-active transaction's reachability; remove a justifier.
        owners = {
            state.name for state in engine.active_states()
        }
    victim = max(
        (engine.txns[name] for name in owners),
        key=lambda t: (t.priority, t.name),
    )
    if "cycle.detect" in scheduler.reads:
        scheduler.emit(
            "cycle.detect",
            witness=[str(step) for step in result.cycle or ()],
            victim=victim.name,
            txns=sorted(
                step.transaction for step in result.cycle or ()
            ),
            when="commit-certify",
        )
    return Decision.abort([victim.name], "commit-time certification")
