"""Breakpoint-released locking: multilevel atomicity via nested-style locks.

Section 7 leaves open "whether implementation of multilevel atomicity as
a special case of the nested transaction model provides reasonable
efficiency" — nested-transaction systems enforce atomicity with lock
*retention* rules rather than explicit dependency graphs.  This scheduler
is that idea specialised to multilevel atomicity:

* every access takes the entity's lock, annotated with the step at which
  the holder last touched it;
* a competitor ``t'`` may acquire an entity some ``t`` holds only when
  ``t`` has passed a breakpoint of level ``<= level(t, t')`` *since its
  last access to that entity* (or finished) — the per-entity analogue of
  the Section 6 prevention rule, with no closure computation at all;
* locks die at commit/rollback; a wait goes into the engine's one
  waits-for relation, whose cycles abort the youngest.

The per-entity rule is cheaper but *weaker* than the closure rule: it
ignores transitive constraints through third parties, so it can admit a
schedule whose coherent closure is cyclic.  With ``certify=True``
(default) the scheduler therefore keeps a closure window as a safety net
and rolls back on certification failure — and the rate of those failures
is itself the answer to the paper's open question, measured by
experiment E13.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.nests import KNest
from repro.engine.closure_window import ClosureWindow
from repro.engine.schedulers._certify import certify_commit
from repro.engine.schedulers.base import Decision, Scheduler

__all__ = ["NestedLockScheduler"]


@dataclass
class _Hold:
    """One transaction's claim on an entity."""

    last_access_step: int = 0


@dataclass
class _EntityLock:
    holders: dict[str, _Hold] = field(default_factory=dict)


class NestedLockScheduler(Scheduler):
    name = "mla-nested-lock"

    def __init__(self, nest: KNest, certify: bool = True) -> None:
        super().__init__()
        self.nest = nest
        self.certify = certify
        self._locks: dict[str, _EntityLock] = {}
        self.certification_failures = 0
        self.window = ClosureWindow(nest) if certify else None

    def counters(self, metrics):
        return (
            ("repro_retention_waits_total",
             "Accesses delayed by the per-entity retention rule.",
             metrics.detail["retention_waits"]),
            ("repro_certify_failures_total",
             "Schedules the retention rule admitted but the closure rejects.",
             self.certification_failures),
            ("repro_closure_checks_total",
             "Coherent-closure queries (per-step and hypothetical).",
             metrics.closure_checks),
        )

    # ------------------------------------------------------------------

    def _passed_breakpoint_since(self, txn, step_index: int, level: int) -> bool:
        """Whether ``txn`` has a declared breakpoint of level ``<= level``
        in some gap at or after ``step_index - 1`` — i.e. whether the
        segment (at that level) containing its ``step_index``-th access
        has closed."""
        if txn.finished:
            return True
        for gap, declared in txn.live.cut_levels.items():
            if gap >= step_index - 1 and declared <= level:
                return True
        return False

    def _blockers(self, txn, entity: str) -> set[str]:
        assert self.engine is not None
        lock = self._locks.setdefault(entity, _EntityLock())
        blockers: set[str] = set()
        for holder, hold in lock.holders.items():
            if holder == txn.name:
                continue
            other = self.engine.txns.get(holder)
            if other is None:  # committed
                continue
            level = self.nest.level(holder, txn.name)
            if not self._passed_breakpoint_since(
                other, hold.last_access_step + 1, level
            ):
                blockers.add(holder)
        return blockers

    # ------------------------------------------------------------------

    def on_request(self, txn, access) -> Decision:
        assert self.engine is not None
        blockers = self._blockers(txn, access.entity)
        if not blockers:
            return Decision.perform()
        found = self.engine.waits.wait(txn.name, blockers, "retention")
        if found:
            return self.engine.break_cycle(*found)
        self.engine.metrics.detail["retention_waits"] += 1
        if "retention.wait" in self.reads:
            self.emit(
                "retention.wait",
                txn=txn.name,
                entity=access.entity,
                holders=sorted(blockers),
            )
        return Decision.wait(
            f"{access.entity!r} retained by {sorted(blockers)}"
        )

    def after_performed(self, txn, record) -> Decision | None:
        assert self.engine is not None
        lock = self._locks.setdefault(record.entity, _EntityLock())
        lock.holders[txn.name] = _Hold(record.step.index)
        if self.window is None:
            return None
        self.engine.metrics.closure_checks += 1
        result = self.window.observe(
            txn.name, record.step, record.entity, record.kind,
            txn.live.cut_levels,
        )
        self.engine.metrics.closure_edges_added += result.edges_added
        if result.is_partial_order:
            return None
        # Certification failure: the per-entity retention rule admitted a
        # schedule the closure rejects.  Recover like the detector would.
        self.certification_failures += 1
        self.engine.metrics.cycles_detected += 1
        owners = {
            step.transaction
            for step in result.cycle or ()
            if step.transaction in self.engine.txns
        }
        victim = self.engine.waits.victim(owners or {txn.name})
        if "certify.fail" in self.reads:
            self.emit(
                "certify.fail",
                witness=[str(step) for step in result.cycle or ()],
                victim=victim,
                when="step",
            )
        return Decision.abort([victim], "certification failure")

    def may_commit(self, txn) -> Decision:
        return certify_commit(self, txn)

    def _release(self, name: str) -> None:
        for lock in self._locks.values():
            lock.holders.pop(name, None)

    def on_commit(self, txn) -> None:
        self._release(txn.name)
        if self.window is not None:
            self.window.mark_committed(txn.name)

    def on_abort(self, txn) -> None:
        self._release(txn.name)
        if self.window is not None:
            self.window.drop(txn.name)

    def snapshot_state(self) -> dict:
        return {
            "locks": [
                (
                    entity,
                    [
                        (name, hold.last_access_step)
                        for name, hold in lock.holders.items()
                    ],
                )
                for entity, lock in self._locks.items()
            ],
            "certification_failures": self.certification_failures,
            "window": (
                self.window.snapshot_state()
                if self.window is not None
                else None
            ),
        }

    def restore_state(self, state: dict) -> None:
        self._locks = {
            entity: _EntityLock(
                {name: _Hold(step) for name, step in holders}
            )
            for entity, holders in state["locks"]
        }
        self.certification_failures = state["certification_failures"]
        if self.window is not None and state["window"] is not None:
            self.window.restore_state(state["window"])
