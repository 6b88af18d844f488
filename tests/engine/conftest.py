"""Shared fixtures for engine tests: a small banking system and a
scheduler zoo."""

from __future__ import annotations

import random

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


class ScriptedRng:
    """An engine rng whose attention picks follow ``script``: each pick
    takes the next scripted name on offer, skipping those that are not
    (committed or asleep).  Once the script is spent, and for every
    other draw, it is ``random.Random(seed)``."""

    def __init__(self, seed, script) -> None:
        self.rng = random.Random(seed)
        self.script = list(script)

    def choice(self, seq):
        while self.script:
            name = self.script.pop(0)
            for item in seq:
                if item.name == name:
                    return item
        return self.rng.choice(seq)

    def randint(self, lo, hi):
        return self.rng.randint(lo, hi)


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
    """Every scheduler, labelled (plus mla-detect on the batch-recompute
    oracle window)."""
    return [
        ("serial", SerialScheduler()),
        ("2pl", TwoPhaseLockingScheduler()),
        ("timestamp", TimestampScheduler()),
        ("mla-detect", MLADetectScheduler(nest)),
        ("mla-detect-full", with_full_window(MLADetectScheduler(nest))),
        ("mla-prevent", MLAPreventScheduler(nest)),
        ("mla-nested-lock", NestedLockScheduler(nest)),
    ]


@pytest.fixture()
def zoo(bank_nest):
    return scheduler_zoo(bank_nest)
