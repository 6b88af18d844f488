"""Shared fixtures for engine tests: a small banking system and a
scheduler zoo."""

from __future__ import annotations

import pytest

from repro.core import KNest
from repro.engine import (
    MLADetectScheduler,
    MLAPreventScheduler,
    NestedLockScheduler,
    Scheduler,
    SerialScheduler,
    TimestampScheduler,
    TwoPhaseLockingScheduler,
)
from repro.model import TransactionProgram, read, update, write
from repro.model.programs import Breakpoint
from tests.engine.oracle import with_full_window


def transfer(name, src, dst, amount):
    def body():
        balance = yield read(src)
        moved = min(balance, amount)
        yield write(src, balance - moved)
        yield Breakpoint(2)
        yield update(dst, lambda v: v + moved)
        return moved

    return TransactionProgram(name, body)


def audit(name, accounts):
    def body():
        total = 0
        for account in accounts:
            total += yield read(account)
        return total

    return TransactionProgram(name, body)


@pytest.fixture()
def bank_programs():
    accounts = {c: 100 for c in "ABCD"}
    programs = [
        transfer("t0", "A", "B", 10),
        transfer("t1", "B", "C", 20),
        transfer("t2", "C", "D", 30),
        audit("aud", sorted(accounts)),
    ]
    return programs, accounts


@pytest.fixture()
def bank_nest():
    paths = {f"t{i}": ("transfers",) for i in range(3)}
    paths["aud"] = ("audit:aud",)
    return KNest.from_paths(paths)


def scheduler_zoo(nest):
    """Every scheduler under its paper-faithful configuration, with the
    conflict model the results should be checked under."""
    return [
        ("serial", SerialScheduler(), "all"),
        ("2pl", TwoPhaseLockingScheduler(), "all"),
        ("2pl-shared", TwoPhaseLockingScheduler(shared_reads=True), "rw"),
        ("timestamp", TimestampScheduler(), "all"),
        ("mla-detect", MLADetectScheduler(nest), "all"),
        ("mla-detect-full", with_full_window(MLADetectScheduler(nest)), "all"),
        ("mla-prevent", MLAPreventScheduler(nest), "all"),
        ("mla-prevent-locked", MLAPreventScheduler(nest, use_locks=True), "all"),
        ("mla-nested-lock", NestedLockScheduler(nest), "all"),
    ]


@pytest.fixture()
def zoo(bank_nest):
    return scheduler_zoo(bank_nest)
