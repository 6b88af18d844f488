"""Section 6, strategy 2: cycle prevention by waiting for breakpoints.

    "Let b be a step of any transaction t'.  b first gets 'scheduled',
    thereby locking its entity and delaying t'.  b does not actually get
    'performed' until the following is insured. [...] If a is the last
    step of some transaction t which precedes b in the coherent closure
    of <=_e, then a level(t, t') breakpoint immediately follows a in t's
    execution subsequence. [...] If the property above is guaranteed, for
    each b, then the coherent closure of <=_e is consistent with the
    total ordering of steps in e, so it must be a partial order."

Implementation: a request for step ``b`` of ``t'`` first takes the
entity's lock (the paper's "scheduled" state), then asks the closure
window for ``b``'s would-be closure predecessors; if some active
transaction's *last* performed step is among them and that transaction is
not currently at a breakpoint of level ``level(t, t')`` (nor finished),
``b`` waits.  The engine's stall handler plus the waits-for-breakpoint
graph resolve circular waits by rolling back the youngest participant —
the paper's assumed "priority - rollback mechanism for preventing
blocking".

Because performed steps then never precede earlier steps in the closure,
the committed execution is always correctable — experiment E7/E4's
property tests verify exactly that.
"""

from __future__ import annotations

from repro.core.nests import KNest
from repro.engine.closure_window import ClosureWindow
from repro.engine.cycles import WaitGraph
from repro.engine.locks import LockManager, LockMode
from repro.engine.schedulers._certify import certify_commit
from repro.engine.schedulers.base import Decision, Scheduler
from repro.model.steps import StepId, StepKind

__all__ = ["MLAPreventScheduler"]


class MLAPreventScheduler(Scheduler):
    name = "mla-prevent"

    def __init__(
        self,
        nest: KNest,
        prune_interval: int = 16,
        use_locks: bool = False,
        conflicts: str = "all",
    ) -> None:
        # ``use_locks`` reproduces the paper's literal "scheduled, thereby
        # locking its entity" device.  In this engine steps are performed
        # atomically within a tick, so the scheduled-lock protects nothing
        # and only manufactures extra deadlocks; it is off by default and
        # kept as an option for fidelity experiments.
        super().__init__()
        self.nest = nest
        self.conflicts = conflicts
        self.window = ClosureWindow(
            nest, prune_interval=prune_interval, conflicts=conflicts
        )
        self.use_locks = use_locks
        self.locks = LockManager() if use_locks else None
        # waiter -> blocking transaction names (for circular-wait checks)
        self._waiting_on: dict[str, set[str]] = {}

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
            # at breakpoints, dissolving the retroactive edges).
            return {
                owner
                for owner in cycle_owners
                if owner != txn.name
                and owner in self.engine.txns
                and not self.engine.txns[owner].committed
            } or {
                other.name
                for other in self.engine.active_states()
                if other.name != txn.name
            }
        blockers: set[str] = set()
        for other in self.engine.arrived_states():
            if other.name == txn.name or other.committed:
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
        if self.locks is not None:
            mode = (
                LockMode.SHARED
                if access.kind is StepKind.READ
                else LockMode.EXCLUSIVE
            )
            if not self.locks.try_acquire(txn.name, access.entity, mode):
                cycle = self.locks.deadlock_cycle()
                emit = self.emit
                if cycle:
                    states = [self.engine.txns[n] for n in cycle]
                    victim = max(states, key=lambda t: (t.priority, t.name))
                    self.engine.metrics.deadlocks += 1
                    if emit:
                        emit(
                            "deadlock",
                            cycle=list(cycle),
                            victim=victim.name,
                            cause="lock",
                        )
                    return Decision.abort([victim.name], "lock deadlock")
                if emit:
                    emit(
                        "lock.wait",
                        txn=txn.name,
                        entity=access.entity,
                        mode=mode,
                    )
                return Decision.wait(f"scheduled: lock on {access.entity!r}")
        blockers = self._breakpoint_blockers(txn, access)
        emit = self.emit
        if blockers:
            self._waiting_on[txn.name] = blockers
            cycle = self._wait_cycle()
            if cycle:
                states = [self.engine.txns[n] for n in cycle]
                victim = max(states, key=lambda t: (t.priority, t.name))
                self.engine.metrics.deadlocks += 1
                if emit:
                    emit(
                        "deadlock",
                        cycle=list(cycle),
                        victim=victim.name,
                        cause="breakpoint-wait",
                    )
                return Decision.abort([victim.name], "breakpoint-wait cycle")
            self.engine.metrics.detail["breakpoint_waits"] += 1
            if emit:
                emit(
                    "breakpoint.wait",
                    txn=txn.name,
                    blockers=sorted(blockers),
                )
            return Decision.wait(
                f"waiting for breakpoints of {sorted(blockers)}"
            )
        self._waiting_on.pop(txn.name, None)
        return Decision.perform()

    def _wait_cycle(self) -> list[str] | None:
        graph = WaitGraph()
        for waiter, blockers in self._waiting_on.items():
            graph.add_waits(waiter, blockers)
        if self.locks is not None:
            for u, v in self.locks.waits_for_edges():
                graph.add_edge(u, v)
        return graph.find_cycle()

    def after_performed(self, txn, record) -> Decision | None:
        assert self.engine is not None
        if self.locks is not None:
            # The paper's lock covers only the scheduled-but-not-performed
            # window of a single step; holding it to commit would collapse
            # prevention into two-phase locking.
            self.locks.release_all(txn.name)
        result = self.window.observe(
            txn.name, record.step, record.entity, record.kind,
            txn.live.cut_levels,
        )
        self.engine.metrics.closure_edges_added += result.edges_added
        self.window.sync_metrics(self.engine.metrics)
        emit = self.emit
        if emit:
            emit(
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
            if emit:
                emit(
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
        if self.locks is not None:
            self.locks.release_all(txn.name)
        self._waiting_on.pop(txn.name, None)
        self.window.mark_committed(txn.name)

    def on_rollback(self, txn, keep_steps: int) -> None:
        if keep_steps == 0:
            self.on_abort(txn)
        else:
            self.window.truncate(txn.name, keep_steps)

    def on_abort(self, txn) -> None:
        if self.locks is not None:
            self.locks.release_all(txn.name)
        self._waiting_on.pop(txn.name, None)
        self.window.drop(txn.name)

    def snapshot_state(self) -> dict:
        # ``_waiting_on`` insertion order feeds ``_wait_cycle``'s edge
        # order (victim identity); keep it as an ordered list.
        return {
            "window": self.window.snapshot_state(),
            "waiting_on": [
                (waiter, sorted(blockers))
                for waiter, blockers in self._waiting_on.items()
            ],
            "locks": (
                self.locks.snapshot_state() if self.locks is not None else None
            ),
        }

    def restore_state(self, state: dict) -> None:
        self.window.restore_state(state["window"])
        self._waiting_on = {
            waiter: set(blockers)
            for waiter, blockers in state["waiting_on"]
        }
        if self.locks is not None and state["locks"] is not None:
            self.locks.restore_state(state["locks"])
