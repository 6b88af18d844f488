"""Unit tests for the lock manager, and a differential pinning that the
contended-lock index lists exactly the edges a scan of every lock ever
created lists, in the same order."""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import LockManager


class TestAcquire:
    def test_exclusive_then_conflict(self):
        locks = LockManager()
        assert locks.try_acquire("a", "X")
        assert not locks.try_acquire("b", "X")
        assert locks.holder("X") == "a"

    def test_holder_reacquires(self):
        locks = LockManager()
        assert locks.try_acquire("a", "X")
        assert locks.try_acquire("a", "X")
        assert locks.waits_for_edges() == []

    def test_waiter_is_queued_once(self):
        locks = LockManager()
        locks.try_acquire("a", "X")
        assert not locks.try_acquire("b", "X")
        assert not locks.try_acquire("b", "X")
        assert locks.waits_for_edges() == [("b", "a")]


class TestFIFO:
    def test_first_waiter_gets_lock_after_release(self):
        locks = LockManager()
        locks.try_acquire("a", "X")
        assert not locks.try_acquire("b", "X")
        assert not locks.try_acquire("c", "X")
        locks.release_all("a")
        # b is at the head of the queue; c must still wait behind b.
        assert not locks.try_acquire("c", "X")
        assert locks.try_acquire("b", "X")

    def test_release_removes_from_queue(self):
        locks = LockManager()
        locks.try_acquire("a", "X")
        locks.try_acquire("b", "X")
        locks.try_acquire("c", "X")
        locks.release_all("b")
        locks.release_all("a")
        assert locks.try_acquire("c", "X")


class TestDeadlock:
    def test_simple_cycle_detected(self):
        locks = LockManager()
        locks.try_acquire("a", "X")
        locks.try_acquire("b", "Y")
        locks.try_acquire("a", "Y")
        locks.try_acquire("b", "X")
        cycle = locks.deadlock_cycle()
        assert cycle is not None
        assert set(cycle) == {"a", "b"}

    def test_no_cycle_when_waiting_chain(self):
        locks = LockManager()
        locks.try_acquire("a", "X")
        locks.try_acquire("b", "X")
        assert locks.deadlock_cycle() is None

    def test_released_lock_yields_no_edges(self):
        """Waiters of a lock nobody holds wait on nobody until the head
        of the queue re-requests it."""
        locks = LockManager()
        locks.try_acquire("a", "X")
        locks.try_acquire("b", "X")
        locks.try_acquire("c", "X")
        locks.release_all("a")
        assert locks.holder("X") is None
        assert locks.waits_for_edges() == []


def _full_scan_edges(locks: LockManager) -> list[tuple[str, str]]:
    """``waits_for_edges`` as it was before the contended-lock index:
    every lock ever created, in creation order."""
    edges = []
    for lock in locks._locks.values():
        for waiter in lock.waiters:
            if lock.holder is not None and lock.holder != waiter:
                edges.append((waiter, lock.holder))
    return edges


def _round_trip(locks: LockManager) -> LockManager:
    restored = LockManager()
    restored.restore_state(pickle.loads(pickle.dumps(locks.snapshot_state())))
    return restored


_OWNERS = [f"t{index}" for index in range(6)]
# Names whose hash order differs from their creation order.
_ENTITIES = [f"{prefix}{index}" for prefix in "zqa" for index in range(7)]

_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("acquire"),
            st.sampled_from(_OWNERS),
            st.sampled_from(_ENTITIES),
        ),
        st.tuples(st.just("release"), st.sampled_from(_OWNERS)),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(operations=_operations, restore_at=st.integers(0, 80))
def test_contended_index_lists_the_full_scan_edges(operations, restore_at):
    locks = LockManager()
    for position, operation in enumerate(operations):
        if operation[0] == "acquire":
            locks.try_acquire(*operation[1:])
        else:
            locks.release_all(operation[1])
        assert locks._waited == {
            entity for entity, lock in locks._locks.items() if lock.waiters
        }
        expected = _full_scan_edges(locks)
        assert locks.waits_for_edges() == expected
        restored = _round_trip(locks)
        assert restored.waits_for_edges() == expected
        assert restored.deadlock_cycle() == locks.deadlock_cycle()
        if position == restore_at:
            # Carry on from the restored copy: locks created after the
            # restore must rank after the restored ones.
            locks = restored
