"""Tests for on-line coherent-closure maintenance."""

from __future__ import annotations

import pytest

from repro.core import KNest
from repro.engine import ClosureWindow
from repro.errors import EngineError
from repro.model import StepId, StepKind


@pytest.fixture()
def nest():
    return KNest.from_paths({
        "t": ("transfers",),
        "u": ("transfers",),
        "aud": ("audit:aud",),
    })


def sid(name, i):
    return StepId(name, i)


class TestObserve:
    def test_acyclic_simple_sequence(self, nest):
        window = ClosureWindow(nest)
        r1 = window.observe("t", sid("t", 0), "A", StepKind.UPDATE, {})
        assert r1.is_partial_order
        r2 = window.observe("u", sid("u", 0), "A", StepKind.UPDATE, {})
        assert r2.is_partial_order
        assert window.size == 2

    def test_retroactive_cycle(self, nest):
        """t touches A; aud reads A (after t) and B (before t's write of
        B). t's later write of B retroactively precedes aud's read via
        rule (b) — a cycle, since the audit is level-1 to t."""
        window = ClosureWindow(nest)
        window.observe("t", sid("t", 0), "A", StepKind.UPDATE, {})
        window.observe("aud", sid("aud", 0), "A", StepKind.READ, {})
        window.observe("aud", sid("aud", 1), "B", StepKind.READ, {})
        result = window.observe("t", sid("t", 1), "B", StepKind.UPDATE, {})
        assert not result.is_partial_order

    def test_breakpoint_avoids_cycle(self, nest):
        """Same pattern between two transfers with a level-2 breakpoint
        after t's first step: the audit case's cycle disappears."""
        window = ClosureWindow(nest)
        window.observe("t", sid("t", 0), "A", StepKind.UPDATE, {0: 2})
        window.observe("u", sid("u", 0), "A", StepKind.UPDATE, {})
        window.observe("u", sid("u", 1), "B", StepKind.UPDATE, {})
        result = window.observe("t", sid("t", 1), "B", StepKind.UPDATE, {0: 2})
        assert result.is_partial_order

    def test_no_breakpoint_between_transfers_cycles(self, nest):
        window = ClosureWindow(nest)
        window.observe("t", sid("t", 0), "A", StepKind.UPDATE, {})
        window.observe("u", sid("u", 0), "A", StepKind.UPDATE, {})
        window.observe("u", sid("u", 1), "B", StepKind.UPDATE, {})
        result = window.observe("t", sid("t", 1), "B", StepKind.UPDATE, {})
        assert not result.is_partial_order


class TestHypothetical:
    def test_predecessors_via_entity(self, nest):
        window = ClosureWindow(nest)
        window.observe("t", sid("t", 0), "A", StepKind.UPDATE, {})
        acyclic, predecessors, _ = window.hypothetical(
            "u", sid("u", 0), "A", StepKind.UPDATE
        )
        assert acyclic
        assert sid("t", 0) in predecessors

    def test_hypothetical_does_not_mutate(self, nest):
        window = ClosureWindow(nest)
        window.observe("t", sid("t", 0), "A", StepKind.UPDATE, {})
        before = window.size
        window.hypothetical("u", sid("u", 0), "A", StepKind.UPDATE)
        assert window.size == before
        assert window.steps_of("u") == []

    def test_hypothetical_detects_cycle(self, nest):
        window = ClosureWindow(nest)
        window.observe("t", sid("t", 0), "A", StepKind.UPDATE, {})
        window.observe("aud", sid("aud", 0), "A", StepKind.READ, {})
        window.observe("aud", sid("aud", 1), "B", StepKind.READ, {})
        acyclic, _, cycle_owners = window.hypothetical(
            "t", sid("t", 1), "B", StepKind.UPDATE
        )
        assert not acyclic
        assert "aud" in cycle_owners


class TestLifecycle:
    def test_drop_removes_attempt(self, nest):
        window = ClosureWindow(nest)
        window.observe("t", sid("t", 0), "A", StepKind.UPDATE, {})
        window.observe("u", sid("u", 0), "A", StepKind.UPDATE, {})
        window.drop("t")
        assert window.steps_of("t") == []
        assert window.size == 1
        # The same step id can be re-observed after a restart.
        result = window.observe("t", sid("t", 0), "A", StepKind.UPDATE, {})
        assert result.is_partial_order

    def test_prune_keeps_reachability(self, nest):
        window = ClosureWindow(nest, prune_interval=1)
        window.observe("t", sid("t", 0), "A", StepKind.UPDATE, {})
        window.mark_committed("t")
        # t had no live contemporaries: prunable.
        assert window.size == 0
        result = window.observe("u", sid("u", 0), "A", StepKind.UPDATE, {})
        assert result.is_partial_order

    def test_conflict_model_validated(self, nest):
        with pytest.raises(EngineError):
            ClosureWindow(nest, conflicts="bogus")

    def test_rw_conflicts_ignore_read_read(self, nest):
        window = ClosureWindow(nest, conflicts="rw")
        window.observe("t", sid("t", 0), "A", StepKind.READ, {})
        acyclic, predecessors, _ = window.hypothetical(
            "u", sid("u", 0), "A", StepKind.READ
        )
        assert acyclic
        assert sid("t", 0) not in predecessors

    def test_all_conflicts_order_read_read(self, nest):
        window = ClosureWindow(nest, conflicts="all")
        window.observe("t", sid("t", 0), "A", StepKind.READ, {})
        _, predecessors, _ = window.hypothetical(
            "u", sid("u", 0), "A", StepKind.READ
        )
        assert sid("t", 0) in predecessors


def test_window_cyclic_verdict_cached():
    """Once the window closes a cycle, later observes return the cached
    terminal verdict (still counted as closure calls) until a structural
    edit clears it."""
    nest = KNest.from_paths({"a": ("g",), "b": ("g",)})
    window = ClosureWindow(nest, prune_interval=10**9)
    seqs = [
        ("a", 0, "x"), ("b", 0, "x"),  # a0 -> b0
        ("b", 1, "y"), ("a", 1, "y"),  # b1 -> a1, chains close the loop
    ]
    result = None
    for name, idx, entity in seqs:
        result = window.observe(
            name, StepId(name, idx), entity, StepKind.UPDATE, {}
        )
    assert result is not None and not result.is_partial_order
    cached = window._cycle_result
    assert cached is result
    calls = window.closure_calls
    again = window.observe("a", StepId("a", 2), "z", StepKind.UPDATE, {})
    assert again is cached
    assert window.closure_calls == calls + 1
    # Rollback clears the cache.
    window.drop("b")
    assert window._cycle_result is None
    fresh = window.observe("a", StepId("a", 3), "z", StepKind.UPDATE, {})
    assert fresh.is_partial_order
