"""An entity-level exclusive lock manager.

Used by the strict two-phase-locking baseline ([EGLT]) and the
sequencer's distributed locking: under the paper's dependency order
every pair of same-entity accesses conflicts, reads included, so every
lock is exclusive.  Deadlock handling is the caller's job: the manager
exposes the waits-for edges; the engine detects cycles and picks
victims.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.cycles import WaitGraph

__all__ = ["LockManager"]


@dataclass(slots=True)
class _Lock:
    rank: int  # creation order: waits-for edges are listed in it
    holder: str | None = None
    waiters: list[str] = field(default_factory=list)  # FIFO owners


class LockManager:
    """Per-entity exclusive locks with FIFO wait queues."""

    def __init__(self) -> None:
        self._locks: dict[str, _Lock] = {}
        # Entities whose lock has a non-empty wait queue: only those
        # yield waits-for edges, so detection walks these, not every
        # lock ever created.
        self._waited: set[str] = set()
        # Per owner: entities it holds or waits on (insertion-ordered),
        # so releasing scans only the owner's footprint rather than
        # every lock ever created.
        self._owned: dict[str, dict[str, None]] = {}
        # The last waits-for edge set proven acyclic.  Acyclicity
        # depends only on the edge *set*, so while the set is unchanged
        # (the common case: a blocked transaction re-requesting each
        # tick) detection is a set comparison, not a graph search.
        self._acyclic_sig: frozenset | None = None

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
            lock = self._locks[entity] = _Lock(len(self._locks))
        if lock.holder == owner:
            return True
        waiters = lock.waiters
        if lock.holder is None and (not waiters or waiters[0] == owner):
            lock.holder = owner
            if waiters:
                del waiters[0]
                if not waiters:
                    self._waited.discard(entity)
            self._owned.setdefault(owner, {})[entity] = None
            return True
        if owner not in waiters:
            waiters.append(owner)
            self._waited.add(entity)
            self._owned.setdefault(owner, {})[entity] = None
        return False

    def release_all(self, owner: str) -> list[str]:
        """Release everything ``owner`` holds or waits for; returns the
        entities whose queues may now make progress (order unspecified,
        possibly with duplicates — callers treat it as a set)."""
        touched = []
        for entity in self._owned.pop(owner, ()):
            lock = self._locks.get(entity)
            if lock is None:
                continue
            if lock.holder == owner:
                lock.holder = None
                touched.append(entity)
            if owner in lock.waiters:
                lock.waiters.remove(owner)
                touched.append(entity)
                if not lock.waiters:
                    self._waited.discard(entity)
        return touched

    # ------------------------------------------------------------------

    def waits_for_edges(self) -> list[tuple[str, str]]:
        """Edges ``waiter -> holder`` for deadlock detection, in lock
        creation order (which decides the cycle found, hence the
        victim).  Only a lock with waiters yields an edge, so only the
        contended ones are walked; sorting them by rank keeps the set's
        hash-seed-dependent order out of the edge list."""
        locks = self._locks
        edges = []
        for entity in sorted(self._waited, key=lambda e: locks[e].rank):
            lock = locks[entity]
            if lock.holder is not None:
                edges.extend((waiter, lock.holder) for waiter in lock.waiters)
        return edges

    def deadlock_cycle(self) -> list[str] | None:
        """One waits-for cycle (as a list of owners), or None.

        Results are memoised on the acyclic side only: cycle *identity*
        can depend on edge order, but "no cycle" depends only on the
        edge set, so an unchanged set short-circuits the search.
        """
        edges = self.waits_for_edges()
        sig = frozenset(edges)
        if sig == self._acyclic_sig:
            return None
        cycle = WaitGraph(edges).find_cycle()
        if cycle is None:
            self._acyclic_sig = sig
        return cycle

    def snapshot_state(self) -> dict:
        """Picklable state preserving every iteration order (lock
        creation order feeds waits-for edge order, which decides cycle
        identity and hence victim choice)."""
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
            entity: _Lock(rank, holder, list(waiters))
            for rank, (entity, holder, waiters) in enumerate(state["locks"])
        }
        self._waited = {
            entity for entity, lock in self._locks.items() if lock.waiters
        }
        self._owned = {
            owner: {entity: None for entity in entities}
            for owner, entities in state["owned"]
        }
        # Dropped, not saved: recomputing "no cycle" from the restored
        # edge set gives the identical answer.
        self._acyclic_sig = None
