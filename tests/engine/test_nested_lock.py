"""Tests for breakpoint-released (nested-style) locking.

Including the deterministic counterexample showing the per-entity
retention rule is *incomplete* for multilevel atomicity — the empirical
and theoretical answer to Section 7's open efficiency question.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KNest, check_correctability
from repro.engine import Engine, NestedLockScheduler
from repro.model import TransactionProgram, read, update
from repro.model.programs import Breakpoint
from repro.workloads import BankingConfig, BankingWorkload
from tests.engine.conftest import ScriptedRng


def chain_fixture():
    """t1 (family A) reads x inside an open level-2 segment; t2 (same
    family) legally crosses at t1's level-3 breakpoint and hands the
    constraint to t3 (family B) through y; t3 then touches z, which t1's
    still-open segment later touches — a closure cycle no single
    entity-lock check ever sees."""

    def t1_body():
        yield read("x")
        yield Breakpoint(3)
        yield update("z", lambda v: v + 1)

    def t2_body():
        yield read("x")
        yield update("y", lambda v: v + 10)

    def t3_body():
        yield read("y")
        yield update("z", lambda v: v + 100)

    programs = [
        TransactionProgram("t1", t1_body),
        TransactionProgram("t2", t2_body),
        TransactionProgram("t3", t3_body),
    ]
    nest = KNest.from_paths({
        "t1": ("cust", "famA"),
        "t2": ("cust", "famA"),
        "t3": ("cust", "famB"),
    })
    schedule = ["t1", "t2", "t2", "t2", "t3", "t3", "t3", "t1", "t1"]
    return programs, nest, schedule


class TestCounterexample:
    def test_uncertified_admits_uncorrectable_execution(self):
        programs, nest, schedule = chain_fixture()
        scheduler = NestedLockScheduler(nest, certify=False)
        engine = Engine(
            programs, {"x": 0, "y": 0, "z": 0}, scheduler,
            seed=0,
        )
        engine.rng = ScriptedRng(0, schedule)
        result = engine.run()
        assert result.metrics.waits == 0  # every lock check passed
        report = check_correctability(
            result.spec(nest), result.execution.dependency_edges()
        )
        assert not report.correctable  # ...yet the schedule is bad

    def test_certification_catches_and_repairs_it(self):
        programs, nest, schedule = chain_fixture()
        scheduler = NestedLockScheduler(nest, certify=True)
        engine = Engine(
            programs, {"x": 0, "y": 0, "z": 0}, scheduler,
            seed=0,
        )
        engine.rng = ScriptedRng(0, schedule)
        result = engine.run()
        assert scheduler.certification_failures == 1
        report = check_correctability(
            result.spec(nest), result.execution.dependency_edges()
        )
        assert report.correctable


class TestRetentionRule:
    def test_blocks_inside_open_segment(self):
        """A level-2 partner may not reuse an entity while the holder's
        level-2 segment is still open."""

        def holder_body():
            yield update("x", lambda v: v + 1)
            yield Breakpoint(3)   # closes only the level-3 segment
            yield update("w", lambda v: v + 1)

        def rival_body():
            yield update("x", lambda v: v + 10)

        programs = [
            TransactionProgram("holder", holder_body),
            TransactionProgram("rival", rival_body),
        ]
        nest = KNest.from_paths({
            "holder": ("cust", "famA"),
            "rival": ("cust", "famB"),   # level 2
        })
        scheduler = NestedLockScheduler(nest)
        engine = Engine(
            programs, {"x": 0, "w": 0}, scheduler, seed=0,
        )
        engine.rng = ScriptedRng(0, ["holder", "rival", "rival", "holder"])
        result = engine.run()
        assert result.metrics.waits >= 1
        report = check_correctability(
            result.spec(nest), result.execution.dependency_edges()
        )
        assert report.correctable

    def test_admits_after_matching_breakpoint(self):
        def holder_body():
            yield update("x", lambda v: v + 1)
            yield Breakpoint(2)
            yield update("w", lambda v: v + 1)

        def rival_body():
            yield update("x", lambda v: v + 10)

        programs = [
            TransactionProgram("holder", holder_body),
            TransactionProgram("rival", rival_body),
        ]
        nest = KNest.from_paths({
            "holder": ("cust", "famA"),
            "rival": ("cust", "famB"),
        })
        scheduler = NestedLockScheduler(nest)
        engine = Engine(
            programs, {"x": 0, "w": 0}, scheduler, seed=0,
        )
        engine.rng = ScriptedRng(0, ["holder", "rival", "holder"])
        result = engine.run()
        assert result.metrics.waits == 0

    def test_retention_deadlock_broken(self):
        def prog(name, first, second):
            def body():
                yield update(first, lambda v: v + 1)
                yield update(second, lambda v: v + 1)

            return TransactionProgram(name, body)

        programs = [prog("a", "x", "y"), prog("b", "y", "x")]
        nest = KNest.from_paths({"a": ("g",), "b": ("g",)})
        for seed in range(6):
            engine = Engine(
                programs, {"x": 0, "y": 0},
                NestedLockScheduler(nest), seed=seed,
            )
            result = engine.run()
            assert result.metrics.commits == 2


@given(seed=st.integers(0, 2_000))
@settings(max_examples=25, deadline=None)
def test_certified_nested_lock_always_correctable(seed):
    bank = BankingWorkload(BankingConfig(
        families=2, accounts_per_family=2, transfers=6,
        intra_family_ratio=1.0, bank_audits=1, creditor_audits=0, seed=3,
    ))
    scheduler = NestedLockScheduler(bank.nest, certify=True)
    result = bank.engine(scheduler, seed=seed).run()
    report = check_correctability(
        result.spec(bank.nest), result.execution.dependency_edges()
    )
    assert report.correctable
    assert result.results["audit0"] == bank.grand_total
