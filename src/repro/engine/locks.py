"""An entity-level exclusive lock manager.

Used by the strict two-phase-locking baseline ([EGLT]) and the
sequencer's distributed locking: under the paper's dependency order
every pair of same-entity accesses conflicts, reads included, so every
lock is exclusive.

The manager keeps no graph of its own.  Its ``waits`` is the runtime's
one waits-for relation (:class:`~repro.engine.cycles.WaitsFor`, set
when the scheduler or control is attached), and the manager keeps it
equal to its queues at every holder change: a queued waiter waits on
the lock's holder, and a free lock blocks no one.  A caller refused a
held lock records that wait itself with ``waits.wait(owner, [holder],
"lock")``, which returns the cycle it closes; breaking it is the
runtime's job.  An owner waits in one queue at a time: a refused owner
asks again for the same entity, or releases everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.cycles import WaitsFor

__all__ = ["LockManager"]


@dataclass(slots=True)
class _Lock:
    holder: str | None = None
    waiters: list[str] = field(default_factory=list)  # FIFO owners


class LockManager:
    """Per-entity exclusive locks with FIFO wait queues."""

    def __init__(self) -> None:
        self._locks: dict[str, _Lock] = {}
        # Per owner: entities it holds or waits on (insertion-ordered),
        # so releasing scans only the owner's footprint rather than
        # every lock ever created.
        self._owned: dict[str, dict[str, None]] = {}
        self.waits: WaitsFor | None = None

    # ------------------------------------------------------------------

    def holder(self, entity: str) -> str | None:
        lock = self._locks.get(entity)
        return lock.holder if lock is not None else None

    def try_acquire(self, owner: str, entity: str) -> bool:
        """Acquire the lock if it is free and nobody queued earlier;
        otherwise enqueue the request (once) and return False.

        FIFO fairness: a free lock still goes to the head of its queue,
        so a newcomer waits behind everyone already waiting.
        """
        lock = self._locks.get(entity)
        if lock is None:
            lock = self._locks[entity] = _Lock()
        if lock.holder == owner:
            return True
        waiters = lock.waiters
        if lock.holder is None and (not waiters or waiters[0] == owner):
            lock.holder = owner
            if waiters:
                del waiters[0]
                rows = self.waits.waits
                for waiter in waiters:
                    rows[waiter] = [owner]
            self._owned.setdefault(owner, {})[entity] = None
            return True
        if owner not in waiters:
            waiters.append(owner)
            self._owned.setdefault(owner, {})[entity] = None
        return False

    def release_all(self, owner: str) -> list[str]:
        """Release everything ``owner`` holds or waits for; returns the
        entities whose queues may now make progress (order unspecified,
        possibly with duplicates — callers treat it as a set)."""
        done = self.waits.done
        touched = []
        for entity in self._owned.pop(owner, ()):
            lock = self._locks[entity]
            if lock.holder == owner:
                lock.holder = None
                touched.append(entity)
                for waiter in lock.waiters:
                    done(waiter)
            elif owner in lock.waiters:
                lock.waiters.remove(owner)
                touched.append(entity)
        done(owner)
        return touched

    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Picklable state preserving every iteration order.  The waits
        rows the manager keeps travel with the runtime's relation."""
        return {
            "locks": [
                (entity, lock.holder, list(lock.waiters))
                for entity, lock in self._locks.items()
            ],
            "owned": [
                (owner, list(entities))
                for owner, entities in self._owned.items()
            ],
        }

    def restore_state(self, state: dict) -> None:
        self._locks = {
            entity: _Lock(holder, list(waiters))
            for entity, holder, waiters in state["locks"]
        }
        self._owned = {
            owner: {entity: None for entity in entities}
            for owner, entities in state["owned"]
        }
