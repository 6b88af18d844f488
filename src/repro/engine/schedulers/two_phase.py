"""Strict two-phase locking ([EGLT]) — the classical serializability
baseline.

Every access takes its entity's exclusive lock — the paper's dependency
order makes reads conflict too — and every lock is held to commit
(strictness also gives recoverability: no dirty reads, so the
engine's cascade machinery stays idle under this scheduler).  A lock
wait goes into the engine's one waits-for relation, searched from the
waiter; the youngest transaction in the cycle it closes is rolled back.
"""

from __future__ import annotations

from repro.engine.locks import LockManager
from repro.engine.schedulers.base import Decision, Scheduler

__all__ = ["TwoPhaseLockingScheduler"]


class TwoPhaseLockingScheduler(Scheduler):
    name = "2pl"

    def __init__(self) -> None:
        super().__init__()
        self.locks = LockManager()

    def attach(self, engine) -> None:
        super().attach(engine)
        self.locks.waits = engine.waits

    def counters(self, metrics):
        detail = metrics.detail
        return (
            ("repro_lock_acquires_total", "Locks granted.",
             detail["lock_acquires"]),
            ("repro_lock_waits_total", "Lock-conflict waits.",
             detail["lock_waits"]),
            ("repro_scheduler_deadlocks_total",
             "Waits-for cycles broken by the scheduler.",
             detail["lock_deadlocks"]),
        )

    def on_request(self, txn, access) -> Decision:
        reads = self.reads
        if self.locks.try_acquire(txn.name, access.entity):
            self.engine.metrics.detail["lock_acquires"] += 1
            if "lock.acquire" in reads:
                self.emit(
                    "lock.acquire",
                    txn=txn.name,
                    entity=access.entity,
                    mode="X",
                )
            return Decision.perform()
        holder = self.locks.holder(access.entity)
        if holder is not None:
            found = self.engine.waits.wait(txn.name, [holder], "lock")
            if found is not None:
                return self.engine.break_cycle(*found)
        self.engine.metrics.detail["lock_waits"] += 1
        if "lock.wait" in reads:
            self.emit(
                "lock.wait",
                txn=txn.name,
                entity=access.entity,
                mode="X",
                holders=[] if holder is None else [holder],
            )
        return Decision.wait(f"lock conflict on {access.entity!r}")

    def may_commit(self, txn) -> Decision:
        return Decision.perform()

    def _release(self, txn) -> None:
        released = self.locks.release_all(txn.name)
        if released and "lock.release" in self.reads:
            self.emit(
                "lock.release",
                txn=txn.name,
                entities=sorted(set(released)),
            )

    def on_commit(self, txn) -> None:
        self._release(txn)

    def on_abort(self, txn) -> None:
        self._release(txn)

    def snapshot_state(self) -> dict:
        return {"locks": self.locks.snapshot_state()}

    def restore_state(self, state: dict) -> None:
        self.locks.restore_state(state["locks"])
