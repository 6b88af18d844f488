"""E5: the audit is exactly as atomic as the criterion demands.

Claims tested (Sections 1-2): a bank audit running concurrently with
transfers must never count money in transit — under any multilevel-
atomicity-respecting control every audit reads exactly the grand total,
and transfers still interleave with each other.  Without control the
invariant visibly breaks.  Creditor audits of families likewise hold
under intra-family configurations.

Expected shape: zero invariant violations for every controlled
scheduler across all seeds; strictly positive violations for no-control.
"""

from __future__ import annotations

import pytest

from _harness import record_table
from repro.analysis import mean
from repro.engine import (
    MLADetectScheduler,
    MLAPreventScheduler,
    Scheduler,
    SerialScheduler,
    TimestampScheduler,
    TwoPhaseLockingScheduler,
)
from repro.workloads import BankingConfig, BankingWorkload

SEEDS = range(10)


def workload() -> BankingWorkload:
    return BankingWorkload(BankingConfig(
        families=3,
        accounts_per_family=2,
        transfers=6,
        intra_family_ratio=1.0,
        bank_audits=1,
        creditor_audits=2,
        seed=8,
    ))


def test_e5_audit_run_benchmark(benchmark):
    bank = workload()
    benchmark(
        lambda: bank.engine(MLADetectScheduler(bank.nest), seed=0).run()
    )


def test_e5_invariant_table():
    bank = workload()
    schedulers = [
        ("serial", lambda: SerialScheduler()),
        ("2pl", lambda: TwoPhaseLockingScheduler()),
        ("timestamp", lambda: TimestampScheduler()),
        ("mla-detect", lambda: MLADetectScheduler(bank.nest)),
        ("mla-prevent", lambda: MLAPreventScheduler(bank.nest)),
        ("no-control", lambda: Scheduler()),
    ]
    rows = []
    for label, factory in schedulers:
        violations = 0
        audit_latencies = []
        for seed in SEEDS:
            engine = bank.engine(factory(), seed=seed)
            result = engine.run()
            violations += len(bank.invariant_violations(result))
            audit_latencies.append(engine.commit_of("audit0").latency)
        if label != "no-control":
            assert violations == 0, f"{label} must preserve the invariants"
        rows.append([
            label,
            violations,
            f"{mean(audit_latencies):.0f}",
        ])
    assert rows[-1][1] > 0, "no-control must break the invariant"
    record_table(
        "e5_audit_invariant",
        "E5: audit invariant violations over 10 seeds",
        ["scheduler", "violations", "audit latency (ticks)"],
        rows,
        notes=(
            "Bank audit must read the grand total; creditor audits must "
            "read their family totals (all transfers intra-family).  Every "
            "controlled scheduler: zero violations.  No control: audits "
            "observe money in transit."
        ),
    )
