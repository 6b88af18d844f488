"""Live-state introspection: wait-for snapshots and the closure frontier.

These helpers answer "what is stuck *right now*" on a half-finished
run, so the tests drive engines in ``until_tick`` increments and probe
the snapshots between budgets.
"""

from __future__ import annotations

from repro.engine import (
    MLADetectScheduler,
    MLAPreventScheduler,
    TwoPhaseLockingScheduler,
)
from repro.obs import closure_frontier, wait_for_snapshot


def _snapshots(engine, step=3, limit=400):
    """Run ``engine`` to completion in tick increments, collecting a
    wait-for snapshot at every budget boundary."""
    collected = []
    budget = 0
    result = None
    while budget < limit:
        budget += step
        result = engine.run(until_tick=budget)
        collected.append(wait_for_snapshot(engine))
        if not result.partial:
            break
    assert result is not None and not result.partial, "run did not finish"
    return collected


class TestWaitForSnapshot:
    def test_lock_waits_surface_as_edges(self, bank):
        engine = bank.engine(TwoPhaseLockingScheduler(), seed=3)
        snapshots = _snapshots(engine)
        for snap in snapshots:
            assert set(snap) == {"edges", "waiters", "cycle"}
            for edge in snap["edges"]:
                assert set(edge) == {"waiter", "blocker", "cause"}
        causes = {
            edge["cause"] for snap in snapshots for edge in snap["edges"]
        }
        assert "lock" in causes, "2PL run never showed a lock wait"

    def test_breakpoint_waits_surface(self, bank):
        engine = bank.engine(MLAPreventScheduler(bank.nest), seed=3)
        snapshots = _snapshots(engine)
        causes = {
            edge["cause"] for snap in snapshots for edge in snap["edges"]
        }
        assert "breakpoint" in causes

    def test_waiters_consistent_with_edges(self, bank):
        engine = bank.engine(TwoPhaseLockingScheduler(), seed=3)
        for snap in _snapshots(engine):
            assert snap["waiters"] == sorted(
                {edge["waiter"] for edge in snap["edges"]}
            )

    def test_quiesced_engine_has_no_edges(self, bank):
        engine = bank.engine(TwoPhaseLockingScheduler(), seed=3)
        engine.run()
        snap = wait_for_snapshot(engine)
        assert snap["edges"] == []
        assert snap["cycle"] is None


class TestClosureFrontier:
    def test_mid_run_frontier(self, bank):
        engine = bank.engine(MLADetectScheduler(bank.nest), seed=3)
        engine.run(until_tick=10)
        frontier = closure_frontier(engine.scheduler.window)
        assert set(frontier) == {
            "size", "edges", "shortcuts", "transactions",
        }
        assert frontier["size"] >= 1
        assert frontier["transactions"], "no live prefixes after 10 ticks"
        for info in frontier["transactions"].values():
            assert info["steps"] >= 1
            assert isinstance(info["last"], str)
            assert isinstance(info["committed"], bool)

    def test_frontier_tracks_progress(self, bank):
        engine = bank.engine(MLADetectScheduler(bank.nest), seed=3)
        engine.run(until_tick=5)
        early = closure_frontier(engine.scheduler.window)
        engine.run(until_tick=30)
        later = closure_frontier(engine.scheduler.window)
        early_steps = sum(t["steps"] for t in early["transactions"].values())
        later_steps = sum(t["steps"] for t in later["transactions"].values())
        committed = sum(
            t["committed"] for t in later["transactions"].values()
        )
        # Progress shows up as more performed steps or commits (pruning
        # may shrink the window, so compare the union of both signals).
        assert later_steps > early_steps or committed > 0
