"""Section 6, strategy 2: cycle prevention by waiting for breakpoints.

    "Let b be a step of any transaction t'.  b first gets 'scheduled',
    thereby locking its entity and delaying t'.  b does not actually get
    'performed' until the following is insured. [...] If a is the last
    step of some transaction t which precedes b in the coherent closure
    of <=_e, then a level(t, t') breakpoint immediately follows a in t's
    execution subsequence. [...] If the property above is guaranteed, for
    each b, then the coherent closure of <=_e is consistent with the
    total ordering of steps in e, so it must be a partial order."

Implementation: a request for step ``b`` of ``t'`` asks the closure
window for ``b``'s would-be closure predecessors; if some active
transaction's *last* performed step is among them and that transaction is
not currently at a breakpoint of level ``level(t, t')`` (nor finished),
``b`` waits.  The wait goes into the engine's one waits-for relation
(:class:`repro.engine.cycles.WaitsFor`), which rolls back the youngest
member of any circular wait it closes — through other waits, or through
the commit dependencies of a finished blocker — the paper's assumed
"priority - rollback mechanism for preventing blocking".  The paper's
"scheduled" lock has no counterpart: the engine performs a step
atomically within its tick, so nothing can slip between scheduling
``b`` and performing it.

Because performed steps then never precede earlier steps in the closure,
the committed execution is always correctable — experiment E7/E4's
property tests verify exactly that.
"""

from __future__ import annotations

from repro.core.nests import KNest
from repro.engine.closure_window import ClosureWindow
from repro.engine.schedulers._certify import certify_commit
from repro.engine.schedulers.base import Decision, Scheduler
from repro.model.steps import StepId

__all__ = ["MLAPreventScheduler"]


class MLAPreventScheduler(Scheduler):
    name = "mla-prevent"

    def __init__(self, nest: KNest) -> None:
        super().__init__()
        self.nest = nest
        self.window = ClosureWindow(nest)

    def counters(self, metrics):
        return (
            ("repro_closure_checks_total",
             "Coherent-closure queries (per-step and hypothetical).",
             metrics.closure_checks),
            ("repro_breakpoint_waits_total",
             "Steps delayed until blockers reach a suitable breakpoint.",
             metrics.detail["breakpoint_waits"]),
            ("repro_cycles_detected_total",
             "Closure cycles detected (rollback triggered).",
             metrics.cycles_detected),
        )

    # ------------------------------------------------------------------

    def _breakpoint_blockers(self, txn, access) -> set[str]:
        """Active transactions whose last step would precede the requested
        step in the closure and that are not at a suitable breakpoint."""
        assert self.engine is not None
        step = StepId(txn.name, txn.steps_taken)
        acyclic, predecessors, cycle_owners = self.window.hypothetical(
            txn.name, step, access.entity, access.kind
        )
        self.engine.metrics.closure_checks += 1
        if not acyclic:
            # Performing now would close a cycle outright; wait for the
            # transactions on that cycle to advance (their segments close
            # at breakpoints, dissolving the retroactive edges).  With no
            # uncommitted owner on it, wait for any active transaction
            # with a step in the window; one with none cannot dissolve
            # the cycle.  With no such transaction either, the step
            # performs and is rolled back as a prevention miss.
            return {
                owner
                for owner in cycle_owners
                if owner != txn.name
                and owner in self.engine.txns
            } or {
                other.name
                for other in self.engine.active_states()
                if other.name != txn.name
                and self.window.last_step_of(other.name) is not None
            }
        blockers: set[str] = set()
        for other in self.engine.arrived_states():
            if other.name == txn.name:
                continue
            last = self.window.last_step_of(other.name)
            if last is None or last not in predecessors:
                continue
            level = self.nest.level(other.name, txn.name)
            if not other.at_breakpoint(level):
                blockers.add(other.name)
        return blockers

    # ------------------------------------------------------------------

    def on_request(self, txn, access) -> Decision:
        assert self.engine is not None
        blockers = self._breakpoint_blockers(txn, access)
        if not blockers:
            return Decision.perform()
        found = self.engine.waits.wait(txn.name, blockers, "breakpoint-wait")
        if found:
            return self.engine.break_cycle(*found)
        self.engine.metrics.detail["breakpoint_waits"] += 1
        if "breakpoint.wait" in self.reads:
            self.emit(
                "breakpoint.wait",
                txn=txn.name,
                blockers=sorted(blockers),
            )
        return Decision.wait(f"waiting for breakpoints of {sorted(blockers)}")

    def after_performed(self, txn, record) -> Decision | None:
        assert self.engine is not None
        result = self.window.observe(
            txn.name, record.step, record.entity, record.kind,
            txn.live.cut_levels,
        )
        self.engine.metrics.closure_edges_added += result.edges_added
        reads = self.reads
        if "closure.check" in reads:
            self.emit(
                "closure.check",
                txn=txn.name,
                step=record.step.index,
                acyclic=result.is_partial_order,
                edges_added=result.edges_added,
            )
        if not result.is_partial_order:
            # Prevention should make this unreachable; treat it as a
            # detected cycle and recover rather than corrupt the run.
            self.engine.metrics.cycles_detected += 1
            if "cycle.detect" in reads:
                self.emit(
                    "cycle.detect",
                    witness=[str(step) for step in result.cycle or ()],
                    victim=txn.name,
                    txns=sorted(
                        step.transaction for step in result.cycle or ()
                    ),
                )
            return Decision.abort([txn.name], "prevention miss")
        return None

    def may_commit(self, txn) -> Decision:
        return certify_commit(self, txn)

    def on_commit(self, txn) -> None:
        self.window.mark_committed(txn.name)

    def on_rollback(self, txn, keep_steps: int) -> None:
        self.window.truncate(txn.name, keep_steps)

    def on_abort(self, txn) -> None:
        self.window.drop(txn.name)

    def snapshot_state(self) -> dict:
        return {"window": self.window.snapshot_state()}

    def restore_state(self, state: dict) -> None:
        self.window.restore_state(state["window"])
