"""Unit tests for the lock manager, and a differential pinning that the
contended-lock index lists exactly the edges a scan of every lock ever
created lists, in the same order."""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import LockManager, LockMode


class TestAcquire:
    def test_exclusive_then_conflict(self):
        locks = LockManager()
        assert locks.try_acquire("a", "X", LockMode.EXCLUSIVE)
        assert not locks.try_acquire("b", "X", LockMode.EXCLUSIVE)
        assert not locks.try_acquire("b", "X", LockMode.SHARED)

    def test_shared_locks_coexist(self):
        locks = LockManager()
        assert locks.try_acquire("a", "X", LockMode.SHARED)
        assert locks.try_acquire("b", "X", LockMode.SHARED)
        assert not locks.try_acquire("c", "X", LockMode.EXCLUSIVE)

    def test_reacquire_same_mode(self):
        locks = LockManager()
        assert locks.try_acquire("a", "X", LockMode.SHARED)
        assert locks.try_acquire("a", "X", LockMode.SHARED)

    def test_exclusive_holder_may_read(self):
        locks = LockManager()
        assert locks.try_acquire("a", "X", LockMode.EXCLUSIVE)
        assert locks.try_acquire("a", "X", LockMode.SHARED)

    def test_upgrade_when_sole_holder(self):
        locks = LockManager()
        assert locks.try_acquire("a", "X", LockMode.SHARED)
        assert locks.try_acquire("a", "X", LockMode.EXCLUSIVE)

    def test_upgrade_blocked_by_other_sharer(self):
        locks = LockManager()
        assert locks.try_acquire("a", "X", LockMode.SHARED)
        assert locks.try_acquire("b", "X", LockMode.SHARED)
        assert not locks.try_acquire("a", "X", LockMode.EXCLUSIVE)


class TestFIFO:
    def test_first_waiter_gets_lock_after_release(self):
        locks = LockManager()
        locks.try_acquire("a", "X", LockMode.EXCLUSIVE)
        assert not locks.try_acquire("b", "X", LockMode.EXCLUSIVE)
        assert not locks.try_acquire("c", "X", LockMode.EXCLUSIVE)
        locks.release_all("a")
        # b is at the head of the queue; c must still wait behind b.
        assert not locks.try_acquire("c", "X", LockMode.EXCLUSIVE)
        assert locks.try_acquire("b", "X", LockMode.EXCLUSIVE)

    def test_release_removes_from_queue(self):
        locks = LockManager()
        locks.try_acquire("a", "X", LockMode.EXCLUSIVE)
        locks.try_acquire("b", "X", LockMode.EXCLUSIVE)
        locks.try_acquire("c", "X", LockMode.EXCLUSIVE)
        locks.release_all("b")
        locks.release_all("a")
        assert locks.try_acquire("c", "X", LockMode.EXCLUSIVE)


class TestDeadlock:
    def test_simple_cycle_detected(self):
        locks = LockManager()
        locks.try_acquire("a", "X", LockMode.EXCLUSIVE)
        locks.try_acquire("b", "Y", LockMode.EXCLUSIVE)
        locks.try_acquire("a", "Y", LockMode.EXCLUSIVE)
        locks.try_acquire("b", "X", LockMode.EXCLUSIVE)
        cycle = locks.deadlock_cycle()
        assert cycle is not None
        assert set(cycle) == {"a", "b"}

    def test_no_cycle_when_waiting_chain(self):
        locks = LockManager()
        locks.try_acquire("a", "X", LockMode.EXCLUSIVE)
        locks.try_acquire("b", "X", LockMode.EXCLUSIVE)
        assert locks.deadlock_cycle() is None

    def test_shared_waiters_do_not_conflict_with_sharers(self):
        locks = LockManager()
        locks.try_acquire("a", "X", LockMode.SHARED)
        locks.try_acquire("b", "X", LockMode.EXCLUSIVE)  # waits
        edges = locks.waits_for_edges()
        assert ("b", "a") in edges

    def test_consistency_assertion(self):
        locks = LockManager()
        locks.try_acquire("a", "X", LockMode.SHARED)
        locks.try_acquire("b", "X", LockMode.SHARED)
        locks.assert_consistent()


def _full_scan_edges(locks: LockManager) -> list[tuple[str, str]]:
    """``waits_for_edges`` as it was before the contended-lock index:
    every lock ever created, in creation order."""
    edges = []
    for lock in locks._locks.values():
        for waiter, mode in lock.waiters:
            for holder, held_mode in lock.holders.items():
                if holder == waiter:
                    continue
                if mode == LockMode.EXCLUSIVE or held_mode == LockMode.EXCLUSIVE:
                    edges.append((waiter, holder))
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
            st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]),
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
