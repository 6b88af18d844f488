"""Unit tests for the lock manager, and a differential pinning that the
waits-for rows it keeps list exactly the ``waiter -> holder`` edges a
scan of every lock ever created lists, and that a lock wait closes the
cycle a whole-graph search of those edges finds."""

from __future__ import annotations

import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import LockManager
from repro.engine.cycles import WaitGraph, WaitsFor


def _manager() -> LockManager:
    """A lock manager attached to a waits-for relation of its own, as a
    scheduler or control attaches its runtime's; age is the name."""
    locks = LockManager()
    locks.waits = WaitsFor(lambda name: (), lambda name: False, lambda name: name)
    return locks


def _request(locks: LockManager, owner: str, entity: str):
    """A request as the 2PL scheduler makes it: ``True`` when granted,
    else the ``(cycle, cause)`` its wait on the holder closes, or
    ``None``."""
    if locks.try_acquire(owner, entity):
        return True
    holder = locks.holder(entity)
    if holder is None:
        return None
    return locks.waits.wait(owner, [holder], "lock")


def _rows(locks: LockManager) -> list[tuple[str, str]]:
    return sorted(
        (waiter, blocker)
        for waiter, blocking in locks.waits.waits.items()
        for blocker in blocking
    )


class TestAcquire:
    def test_exclusive_then_conflict(self):
        locks = _manager()
        assert locks.try_acquire("a", "X")
        assert not locks.try_acquire("b", "X")
        assert locks.holder("X") == "a"

    def test_holder_reacquires(self):
        locks = _manager()
        assert locks.try_acquire("a", "X")
        assert locks.try_acquire("a", "X")
        assert locks.waits.waits == {}

    def test_waiter_is_queued_once(self):
        locks = _manager()
        locks.try_acquire("a", "X")
        assert _request(locks, "b", "X") is None
        assert _request(locks, "b", "X") is None
        assert _full_scan_edges(locks) == [("b", "a")]
        assert locks.waits.waits == {"b": ["a"]}


class TestFIFO:
    def test_first_waiter_gets_lock_after_release(self):
        locks = _manager()
        locks.try_acquire("a", "X")
        assert not locks.try_acquire("b", "X")
        assert not locks.try_acquire("c", "X")
        locks.release_all("a")
        # b is at the head of the queue; c must still wait behind b.
        assert not locks.try_acquire("c", "X")
        assert locks.try_acquire("b", "X")

    def test_release_removes_from_queue(self):
        locks = _manager()
        locks.try_acquire("a", "X")
        locks.try_acquire("b", "X")
        locks.try_acquire("c", "X")
        locks.release_all("b")
        locks.release_all("a")
        assert locks.try_acquire("c", "X")

    def test_the_rest_of_the_queue_waits_on_the_new_holder(self):
        """When the head takes the lock, every remaining waiter's row
        names it at once, before any of them asks again."""
        locks = _manager()
        locks.try_acquire("a", "X")
        for owner in "bcd":
            _request(locks, owner, "X")
        locks.release_all("a")
        assert locks.try_acquire("b", "X")
        assert locks.waits.waits == {"c": ["b"], "d": ["b"]}


class TestDeadlock:
    def test_simple_cycle_detected(self):
        """The wait that closes the cycle finds it, from the waiter."""
        locks = _manager()
        locks.try_acquire("a", "X")
        locks.try_acquire("b", "Y")
        assert _request(locks, "a", "Y") is None
        assert _request(locks, "b", "X") == (["b", "a"], "lock")

    def test_no_cycle_when_waiting_chain(self):
        locks = _manager()
        locks.try_acquire("a", "X")
        assert _request(locks, "b", "X") is None
        assert _request(locks, "c", "X") is None

    def test_released_lock_yields_no_edges(self):
        """Waiters of a lock nobody holds wait on nobody until the head
        of the queue re-requests it."""
        locks = _manager()
        locks.try_acquire("a", "X")
        _request(locks, "b", "X")
        _request(locks, "c", "X")
        locks.release_all("a")
        assert locks.holder("X") is None
        assert locks.waits.waits == {}


def _full_scan_edges(locks: LockManager) -> list[tuple[str, str]]:
    """The ``waiter -> holder`` edges of every lock ever created, in
    creation order: the graph the manager used to build per request."""
    edges = []
    for lock in locks._locks.values():
        for waiter in lock.waiters:
            if lock.holder is not None and lock.holder != waiter:
                edges.append((waiter, lock.holder))
    return edges


def _round_trip(locks: LockManager) -> LockManager:
    """The manager's snapshot plus the rows it keeps, as the engine's
    snapshot carries them."""
    restored = _manager()
    state = pickle.loads(pickle.dumps(
        (locks.snapshot_state(), list(locks.waits.waits.items()))
    ))
    restored.restore_state(state[0])
    restored.waits.waits = dict(state[1])
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


def _apply(locks: LockManager, operation: tuple) -> bool:
    """Run one operation as the manager's callers do, check it against
    the full scan and return whether a wait closed a cycle.

    The callers keep one rule: a refused owner asks again for the same
    entity (or releases), and a cycle is broken by releasing its
    victim.  Under it the rows equal the full-scan edges, and a cycle a
    wait returns is the whole graph's, rotated to start at the waiter.
    """
    closed = False
    if operation[0] == "acquire":
        owner, entity = operation[1:]
        entity = next(
            (name for name, lock in locks._locks.items()
             if owner in lock.waiters),
            entity,
        )
        found = _request(locks, owner, entity)
        if found is not True:
            expected = WaitGraph(_full_scan_edges(locks)).find_cycle()
            if expected is None:
                assert found is None
            else:
                start = expected.index(owner)
                assert found == (expected[start:] + expected[:start], "lock")
                locks.release_all(locks.waits.victim(found[0]))
                closed = True
    else:
        locks.release_all(operation[1])
    assert _rows(locks) == sorted(set(_full_scan_edges(locks)))
    assert all(locks.waits.waits.values())
    return closed


@settings(max_examples=200, deadline=None)
@given(operations=_operations, restore_at=st.integers(0, 80))
def test_waits_rows_list_the_full_scan_edges(operations, restore_at):
    locks = _manager()
    for position, operation in enumerate(operations):
        _apply(locks, operation)
        restored = _round_trip(locks)
        assert _rows(restored) == sorted(set(_full_scan_edges(restored)))
        assert _full_scan_edges(restored) == _full_scan_edges(locks)
        if position == restore_at:
            # Carry on from the restored copy.
            locks = restored


def test_lock_waits_close_the_whole_graph_cycle():
    """Hot locks, so that waits close cycles often enough to count."""
    rng = random.Random(46)
    owners, entities = _OWNERS[:4], _ENTITIES[:4]
    cycles = 0
    for _ in range(200):
        locks = _manager()
        for _ in range(40):
            if rng.random() < 0.15:
                operation = ("release", rng.choice(owners))
            else:
                operation = ("acquire", rng.choice(owners), rng.choice(entities))
            cycles += _apply(locks, operation)
    assert cycles > 100
