"""Tests for budgeted (open-system) runs with arbitrarily long
transactions — the paper's "very long, possibly even infinite
transactions"."""

from __future__ import annotations

import pytest

from repro.core import KNest, check_correctability
from repro.engine import Engine, MLADetectScheduler, Scheduler, TwoPhaseLockingScheduler
from repro.model import TransactionProgram, update
from repro.model.programs import Breakpoint


def forever(name, entities, period=1):
    """An infinite transaction cycling over its entities, exposing a
    level-2 breakpoint after every ``period`` steps (the steps between
    breakpoints form its atomicity segments)."""

    def body():
        i = 0
        while True:
            yield update(entities[i % len(entities)], lambda v: v + 1)
            i += 1
            if i % period == 0:
                yield Breakpoint(2)

    return TransactionProgram(name, body)


@pytest.fixture()
def open_system():
    programs = [
        forever("inf1", ["x", "y"]),
        forever("inf2", ["y", "z"]),
        forever("inf3", ["z", "x"]),
    ]
    nest = KNest.from_paths({p.name: ("workers",) for p in programs})
    return programs, nest


class TestBudgetedRuns:
    def test_partial_result_shape(self, open_system):
        programs, nest = open_system
        engine = Engine(
            programs, {"x": 0, "y": 0, "z": 0},
            MLADetectScheduler(nest), seed=1,
        )
        result = engine.run(until_tick=200)
        assert result.partial
        assert result.metrics.commits == 0
        assert len(result.execution) > 0
        result.execution.validate()

    def test_prefix_is_correctable_under_detection(self, open_system):
        programs, nest = open_system
        for seed in range(4):
            engine = Engine(
                programs, {"x": 0, "y": 0, "z": 0},
                MLADetectScheduler(nest), seed=seed,
            )
            result = engine.run(until_tick=250)
            report = check_correctability(
                result.spec(nest), result.execution.dependency_edges()
            )
            assert report.correctable

    def test_no_control_prefix_eventually_uncorrectable(self):
        # Two-step atomicity segments: uncontrolled interleavings split
        # them and the prefix stops being correctable.
        programs = [
            forever("inf1", ["x", "y"], period=2),
            forever("inf2", ["y", "z"], period=2),
            forever("inf3", ["z", "x"], period=2),
        ]
        nest = KNest.from_paths({p.name: ("workers",) for p in programs})
        bad = 0
        for seed in range(6):
            engine = Engine(
                programs, {"x": 0, "y": 0, "z": 0}, Scheduler(), seed=seed,
            )
            result = engine.run(until_tick=200)
            report = check_correctability(
                result.spec(nest), result.execution.dependency_edges()
            )
            bad += not report.correctable
        assert bad > 0

    def test_infinite_transactions_starve_under_2pl(self, open_system):
        """Strict 2PL never releases an infinite transaction's locks: the
        system degenerates while MLA detection keeps all three running —
        the Introduction's long-transaction argument at its limit."""
        programs, nest = open_system
        locked = Engine(
            programs, {"x": 0, "y": 0, "z": 0},
            TwoPhaseLockingScheduler(), seed=1,
        ).run(until_tick=300)
        free = Engine(
            programs, {"x": 0, "y": 0, "z": 0},
            MLADetectScheduler(nest), seed=1,
        ).run(until_tick=300)
        # Fewer performed steps survive under 2PL (waits + deadlock aborts).
        assert len(free.execution) > len(locked.execution)

    def test_budget_zero_is_empty_partial(self, open_system):
        programs, nest = open_system
        result = Engine(
            programs, {"x": 0, "y": 0, "z": 0},
            MLADetectScheduler(nest), seed=0,
        ).run(until_tick=0)
        assert result.partial
        assert len(result.execution) == 0

    def test_finite_workload_ignores_large_budget(self):
        def short_body():
            yield update("x", lambda v: v + 1)

        program = TransactionProgram("t", short_body)
        engine = Engine([program], {"x": 0}, Scheduler(), seed=0)
        result = engine.run(until_tick=10_000)
        assert not result.partial
        assert result.metrics.commits == 1
