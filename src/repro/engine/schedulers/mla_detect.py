"""Section 6, strategy 1: optimistic execution with cycle detection.

    "the concurrency control might generate explicitly the edges of the
    coherent closure of <=_e, and check for cycles.  If a cycle is
    detected, a priority scheme can be used to determine which steps
    should be rolled back.  Presumably, fewer cycles would be detected
    using the multilevel atomicity definition than if strict
    serializability were required, leading to fewer rollbacks."

Every access is admitted immediately; after each performed step the
coherent closure of the performed prefix is updated, and if it acquired a
cycle the youngest *active* transaction on the cycle is rolled back (with
the engine cascading the rollback to everything that consumed its dirty
writes — the paper's Section 6 closing remark about rollback chains under
multilevel atomicity, measured by experiment E9).

Instantiated with the flat 2-nest this scheduler *is* classical
serialization-graph cycle detection — the baseline experiment E3 compares
against.
"""

from __future__ import annotations

from repro.core.nests import KNest
from repro.engine.closure_window import ClosureWindow
from repro.engine.schedulers._certify import certify_commit
from repro.engine.schedulers.base import Decision, Scheduler

__all__ = ["MLADetectScheduler"]


class MLADetectScheduler(Scheduler):
    name = "mla-detect"

    def __init__(self, nest: KNest) -> None:
        super().__init__()
        self.nest = nest
        self.window = ClosureWindow(nest)
        # Victims of a cycle rollback are parked until some other cycle
        # participant advances — retrying into an unchanged conflict
        # pattern would just re-form the same cycle.
        self._parked: dict[str, list[tuple[str, int, int]]] = {}

    def counters(self, metrics):
        return (
            ("repro_closure_checks_total",
             "Coherent-closure queries (per-step and hypothetical).",
             metrics.closure_checks),
            ("repro_cycles_detected_total",
             "Closure cycles detected (rollback triggered).",
             metrics.cycles_detected),
            ("repro_parks_total",
             "Cycle victims parked behind their cycle peers.",
             metrics.detail["parks"]),
        )

    def on_request(self, txn, access) -> Decision:
        assert self.engine is not None
        waits = self._parked.get(txn.name)
        if waits:
            for blocker, steps, attempt in waits:
                other = self.engine.txns.get(blocker)
                if (
                    other is None  # committed
                    or other.finished  # will never take another step
                    or other.attempt != attempt
                    or other.steps_taken > steps
                ):
                    continue  # that participant moved on (or never will)
                return Decision.wait(f"parked behind {blocker}")
            del self._parked[txn.name]
        return Decision.perform()

    def after_performed(self, txn, record) -> Decision | None:
        result = self.window.observe(
            txn.name, record.step, record.entity, record.kind,
            txn.live.cut_levels,
        )
        assert self.engine is not None
        self.engine.metrics.closure_checks += 1
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
        if result.is_partial_order:
            return None
        self.engine.metrics.cycles_detected += 1
        cycle_names = {
            step.transaction
            for step in result.cycle or ()
        }
        txns = self.engine.txns  # uncommitted transactions only
        active = cycle_names & txns.keys()
        if active:
            victim = txns[self.engine.waits.victim(active)]
        else:
            # The cycle closed between already-committed steps through the
            # new step's reachability; removing the new step's attempt
            # removes the justification.
            victim = txn
        # Under segment recovery, rolling the victim back to the latest
        # breakpoint before its earliest step on the cycle suffices to
        # dissolve the cycle.
        victim_cycle_steps = [
            step.index
            for step in result.cycle or ()
            if step.transaction == victim.name
        ]
        points = (
            {victim.name: min(victim_cycle_steps)}
            if victim_cycle_steps
            else None
        )
        self._parked[victim.name] = [
            (owner, txns[owner].steps_taken, txns[owner].attempt)
            for owner in sorted(active - {victim.name})
        ]
        if self._parked[victim.name]:
            self.engine.metrics.detail["parks"] += 1
        if "cycle.detect" in reads:
            self.emit(
                "cycle.detect",
                witness=[str(step) for step in result.cycle or ()],
                victim=victim.name,
                txns=sorted(cycle_names),
            )
        if self._parked[victim.name] and "park" in reads:
            self.emit(
                "park",
                txn=victim.name,
                behind=[entry[0] for entry in self._parked[victim.name]],
            )
        return Decision.abort([victim.name], "closure cycle", points=points)

    def may_commit(self, txn) -> Decision:
        return certify_commit(self, txn)

    def on_commit(self, txn) -> None:
        self.window.mark_committed(txn.name)

    def on_rollback(self, txn, keep_steps: int) -> None:
        self.window.truncate(txn.name, keep_steps)

    def on_abort(self, txn) -> None:
        self._parked.pop(txn.name, None)
        self.window.drop(txn.name)

    def snapshot_state(self) -> dict:
        return {
            "window": self.window.snapshot_state(),
            "parked": {
                name: list(waits) for name, waits in self._parked.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        self.window.restore_state(state["window"])
        self._parked = {
            name: [tuple(w) for w in waits]
            for name, waits in state["parked"].items()
        }
