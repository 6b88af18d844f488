"""E14: the distributed runtime survives an adversarial network.

The Section 6 migrating-transaction argument silently assumes a perfect
substrate: exactly-once delivery, FIFO links, immortal processors.  E14
removes the assumption.  A seeded :class:`FaultPlan` drops, duplicates
and reorders messages per link and crashes a data node mid-run; the
runtime's at-least-once protocol (sequence-numbered performed-reports,
idempotent handlers, ack+retransmit with capped exponential backoff, and
crash recovery that replays the node's durable log tail through the
cascade rule) must mask all of it.

Claims tested: (a) every faulty run terminates with all transactions
committed and the checker accepts the committed execution; (b) on
workloads whose results are serialization-order-invariant, the committed
results are **bitwise identical** to the zero-fault run with the same
engine seed — faults may change timing and abort counts, never outcomes.

Expected shape: abort and retransmit overhead grows with the fault rate;
correctness is flat at 100%.
"""

from __future__ import annotations

import pytest

from _harness import record_table
from repro.analysis import mean
from repro.api import SCHEDULER_FACTORIES, make_scheduler
from repro.core import check_correctability
from repro.core.nests import KNest
from repro.distributed import (
    CrashEvent,
    DistributedRuntime,
    FaultPlan,
    LinkFaults,
)
from repro.workloads import BankingConfig, BankingWorkload
from repro.workloads.banking import transfer_program

NODES = 3
ENGINE_SEED = 2
RATES = [0.0, 0.05, 0.1, 0.2]
FAULT_SEEDS = range(3)
CRASH = CrashEvent("node1", at=25.0, duration=30.0)


def contended_workload() -> BankingWorkload:
    """Conflicting transfers plus audits whose committed results are
    serialization-order-invariant: balances start high enough that the
    transfer scan never clamps (every result equals its amount), and
    intra-family-only money movement keeps every audit total constant."""
    return BankingWorkload(BankingConfig(
        families=3,
        accounts_per_family=2,
        transfers=4,
        intra_family_ratio=1.0,
        bank_audits=1,
        creditor_audits=1,
        amount_range=(10, 60),
        initial_balance=1000,
        seed=21,
    ))


def disjoint_workload():
    """Entity-disjoint transfers (one per family): with no conflicts any
    interleaving is serial, so even uncontrolled runs are correct and
    order-invariant — what lets E14 put the control itself aside and
    test the fault layer under zero admission control."""
    programs = [
        transfer_program(f"t{i}", [f"F{i}.A0"], [f"F{i}.A1"], 25, 3)
        for i in range(4)
    ]
    accounts = {f"F{i}.A{j}": 1000 for i in range(4) for j in range(2)}
    nest = KNest.from_paths(
        {f"t{i}": ("customers", f"family:{i}") for i in range(4)}
    )
    return programs, accounts, nest


def fault_plan(rate: float, seed: int) -> FaultPlan:
    return FaultPlan(
        default=LinkFaults(drop=rate, duplicate=rate, reorder=rate),
        crashes=(CRASH,),
        seed=seed,
    )


def run_once(programs, accounts, scheduler, faults=None):
    return DistributedRuntime(
        programs, accounts, scheduler, nodes=NODES, seed=ENGINE_SEED,
        faults=faults,
    ).run()


def cases():
    """One case per scheduler name: ``none`` on the disjoint workload,
    every admission control on the contended banking mix."""
    bank = contended_workload()
    programs, accounts, nest = disjoint_workload()
    return [
        (
            (label, programs, accounts, nest, None) if label == "none"
            else (label, bank.programs, bank.accounts, bank.nest, bank)
        )
        for label in SCHEDULER_FACTORIES
    ]


def test_e14_faulty_prevention_benchmark(benchmark):
    bank = contended_workload()
    benchmark(
        run_once, bank.programs, bank.accounts,
        make_scheduler("mla-prevent", bank.nest), fault_plan(0.1, 0),
    )


def test_e14_inactive_plan_is_bit_identical():
    """A fault plan with every rate zero and no crashes must leave the
    runtime on its exactly-once fast path: identical results, makespan
    and message traffic to running with no plan at all."""
    for label, programs, accounts, nest, _bank in cases():
        base = run_once(programs, accounts, make_scheduler(label, nest))
        dressed = run_once(
            programs, accounts, make_scheduler(label, nest),
            faults=FaultPlan(),
        )
        assert dressed.results == base.results, label
        assert dressed.makespan == base.makespan, label
        assert dressed.messages == base.messages, label
        assert dressed.messages_by_kind == base.messages_by_kind, label
        assert dressed.timers == base.timers, label


def test_e14_fault_sweep_table():
    rows = []
    for label, programs, accounts, nest, bank in cases():
        base = run_once(programs, accounts, make_scheduler(label, nest))
        for rate in RATES:
            aborts, recoveries, dropped, messages, identical = [], [], [], [], 0
            for fseed in FAULT_SEEDS:
                result = run_once(
                    programs, accounts, make_scheduler(label, nest),
                    faults=fault_plan(rate, fseed),
                )
                assert result.commits == len(programs), (label, rate, fseed)
                assert result.recoveries >= 1, (label, rate, fseed)
                report = check_correctability(
                    result.spec(nest), result.execution.dependency_edges()
                )
                assert report.correctable, (label, rate, fseed)
                if bank is not None:
                    assert not bank.invariant_violations(result), (
                        label, rate, fseed,
                    )
                assert result.results == base.results, (label, rate, fseed)
                identical += 1
                aborts.append(result.aborts)
                recoveries.append(result.recoveries)
                dropped.append(result.faults["dropped"])
                messages.append(result.messages)
            rows.append([
                label,
                f"{rate:.0%}",
                f"{mean(messages):.0f}",
                f"{mean(dropped):.0f}",
                f"{mean(aborts):.1f}",
                f"{mean(recoveries):.1f}",
                f"{identical}/{len(list(FAULT_SEEDS))}",
            ])
    record_table(
        "e14_fault_sweep",
        "E14: fault sweep over the distributed runtime",
        ["scheduler", "drop/dup/reorder", "messages", "dropped", "aborts",
         "recoveries", "results == fault-free"],
        rows,
        notes=(
            "Every row also injects one node crash (node1 down for 30 "
            "time units).  Means over "
            f"{len(list(FAULT_SEEDS))} fault seeds; the checker accepts "
            "every committed execution and committed results are bitwise "
            "identical to the zero-fault run at the same engine seed.  "
            "The sequencer hosts each engine scheduler.  `none` runs on "
            "an entity-disjoint workload (no admission control to mask "
            "protocol bugs); the admission controls run on a contended "
            "intra-family banking mix."
        ),
    )
