"""An entity-level lock manager with shared/exclusive modes.

Used by the strict two-phase-locking baseline ([EGLT]) and, in *schedule*
mode, by the Section 6 prevention scheduler ("beta first gets 'scheduled',
thereby locking its entity and delaying t'").  Deadlock handling is the
caller's job: the manager exposes the waits-for edges; the engine detects
cycles and picks victims.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.cycles import WaitGraph
from repro.errors import EngineError

__all__ = ["LockManager", "LockMode"]


class LockMode:
    SHARED = "S"
    EXCLUSIVE = "X"


@dataclass(slots=True)
class _Lock:
    rank: int  # creation order: waits-for edges are listed in it
    holders: dict[str, str] = field(default_factory=dict)  # owner -> mode
    waiters: list[tuple[str, str]] = field(default_factory=list)  # (owner, mode)


class LockManager:
    """Per-entity S/X locks with FIFO wait queues."""

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

    def _lock(self, entity: str) -> _Lock:
        lock = self._locks.get(entity)
        if lock is None:
            lock = self._locks[entity] = _Lock(len(self._locks))
        return lock

    def holders(self, entity: str) -> dict[str, str]:
        return dict(self._lock(entity).holders)

    def _compatible(self, lock: _Lock, owner: str, mode: str) -> bool:
        for holder, held_mode in lock.holders.items():
            if holder == owner:
                continue
            if mode == LockMode.EXCLUSIVE or held_mode == LockMode.EXCLUSIVE:
                return False
        return True

    # ------------------------------------------------------------------

    def try_acquire(self, owner: str, entity: str, mode: str) -> bool:
        """Acquire (or upgrade) if compatible; otherwise enqueue the
        request and return False.

        FIFO fairness: a compatible request still waits behind earlier
        incompatible waiters, except lock *upgrades* (S -> X by a current
        holder), which jump the queue to avoid trivial self-deadlock.
        """
        lock = self._lock(entity)
        held = lock.holders.get(owner)
        if held == LockMode.EXCLUSIVE or (held == mode):
            return True
        upgrading = held is not None
        ahead: list[tuple[str, str]] = []
        for waiter in lock.waiters:
            if waiter[0] == owner:
                break
            ahead.append(waiter)
        if self._compatible(lock, owner, mode) and (upgrading or not ahead):
            lock.holders[owner] = mode
            if lock.waiters:
                lock.waiters = [w for w in lock.waiters if w[0] != owner]
                if not lock.waiters:
                    self._waited.discard(entity)
            self._owned.setdefault(owner, {})[entity] = None
            return True
        if not any(w[0] == owner for w in lock.waiters):
            lock.waiters.append((owner, mode))
            self._waited.add(entity)
            self._owned.setdefault(owner, {})[entity] = None
        else:
            # Keep the strongest requested mode.
            lock.waiters = [
                (o, LockMode.EXCLUSIVE if o == owner and (m == LockMode.EXCLUSIVE or mode == LockMode.EXCLUSIVE) else m)
                for o, m in lock.waiters
            ]
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
            if owner in lock.holders:
                del lock.holders[owner]
                touched.append(entity)
            before = len(lock.waiters)
            lock.waiters = [w for w in lock.waiters if w[0] != owner]
            if len(lock.waiters) != before:
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
            for waiter, mode in lock.waiters:
                for holder, held_mode in lock.holders.items():
                    if holder == waiter:
                        continue
                    if mode == LockMode.EXCLUSIVE or held_mode == LockMode.EXCLUSIVE:
                        edges.append((waiter, holder))
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
                (entity, list(lock.holders.items()), list(lock.waiters))
                for entity, lock in self._locks.items()
            ],
            "owned": [
                (owner, list(entities))
                for owner, entities in self._owned.items()
            ],
        }

    def restore_state(self, state: dict) -> None:
        self._locks = {
            entity: _Lock(rank, dict(holders), [tuple(w) for w in waiters])
            for rank, (entity, holders, waiters) in enumerate(state["locks"])
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

    def assert_consistent(self) -> None:
        for entity, lock in self._locks.items():
            modes = set(lock.holders.values())
            if LockMode.EXCLUSIVE in modes and len(lock.holders) > 1:
                raise EngineError(
                    f"lock on {entity!r} held exclusively and shared at once"
                )
