"""Strict two-phase locking ([EGLT]) — the classical serializability
baseline.

Shared locks for reads, exclusive locks for writes/updates, all held to
commit (strictness also gives recoverability: no dirty reads, so the
engine's cascade machinery stays idle under this scheduler).  Deadlocks
are detected on the waits-for graph; the youngest transaction in the
cycle is rolled back.
"""

from __future__ import annotations

from repro.engine.locks import LockManager, LockMode
from repro.engine.schedulers.base import Decision, Scheduler
from repro.model.steps import StepKind

__all__ = ["TwoPhaseLockingScheduler"]


class TwoPhaseLockingScheduler(Scheduler):
    """``shared_reads`` selects the conflict model the locks realise:

    * ``False`` (default) — every access takes an exclusive lock,
      matching the paper's dependency order in which *all* same-entity
      accesses conflict (reads included);
    * ``True`` — reads take shared locks, sound only under the classical
      read-write conflict model (check results with ``conflicts="rw"``).
    """

    name = "2pl"

    def __init__(self, shared_reads: bool = False) -> None:
        super().__init__()
        self.locks = LockManager()
        self.shared_reads = shared_reads

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
        mode = (
            LockMode.SHARED
            if self.shared_reads and access.kind is StepKind.READ
            else LockMode.EXCLUSIVE
        )
        emit = self.emit
        if self.locks.try_acquire(txn.name, access.entity, mode):
            self.engine.metrics.detail["lock_acquires"] += 1
            if emit:
                emit(
                    "lock.acquire",
                    txn=txn.name,
                    entity=access.entity,
                    mode=mode,
                )
            return Decision.perform()
        cycle = self.locks.deadlock_cycle()
        if cycle:
            assert self.engine is not None
            states = [self.engine.txns[name] for name in cycle]
            victim = max(states, key=lambda t: (t.priority, t.name))
            self.engine.metrics.deadlocks += 1
            self.engine.metrics.detail["lock_deadlocks"] += 1
            if emit:
                emit(
                    "deadlock",
                    cycle=list(cycle),
                    victim=victim.name,
                    cause="lock",
                )
            return Decision.abort([victim.name], "2pl deadlock")
        self.engine.metrics.detail["lock_waits"] += 1
        if emit:
            emit(
                "lock.wait",
                txn=txn.name,
                entity=access.entity,
                mode=mode,
                holders=sorted(self.locks.holders(access.entity)),
            )
        return Decision.wait(f"lock conflict on {access.entity!r}")

    def may_commit(self, txn) -> Decision:
        return Decision.perform()

    def _release(self, txn) -> None:
        released = self.locks.release_all(txn.name)
        if self.emit and released:
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
