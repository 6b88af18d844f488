"""E7: the migrating-transaction model realises multilevel atomicity.

Claims tested (Section 6): the [RSL] migrating-transaction substrate
with the sequencer hosting any of the engine's schedulers — both Section
6 strategies among them — produces only correctable executions under
every admission control; the price is per-step request/grant messaging,
measured across cluster sizes.

Expected shape: every admission control is correctable on every run and
preserves the audit invariant; no control is not; message counts grow
with admission control and stay roughly flat in node count (the
sequencer is the hub), while makespan varies with placement locality.
"""

from __future__ import annotations

import pytest

from _harness import record_table
from repro.analysis import mean
from repro.api import SCHEDULER_FACTORIES, make_scheduler
from repro.core import check_correctability
from repro.distributed import DistributedRuntime
from repro.workloads import BankingConfig, BankingWorkload

NODES = [2, 4, 8]
SEEDS = range(4)


def workload() -> BankingWorkload:
    return BankingWorkload(BankingConfig(
        families=3,
        accounts_per_family=2,
        transfers=5,
        intra_family_ratio=1.0,
        bank_audits=1,
        creditor_audits=0,
        seed=21,
    ))


def run_once(bank, scheduler, nodes, seed):
    runtime = DistributedRuntime(
        bank.programs, bank.accounts, make_scheduler(scheduler, bank.nest),
        nodes=nodes, seed=seed,
    )
    return runtime.run()


def test_e7_prevention_benchmark(benchmark):
    bank = workload()
    benchmark(run_once, bank, "mla-prevent", 4, 0)


def test_e7_cluster_table():
    bank = workload()
    rows = []
    for nodes in NODES:
        for label in SCHEDULER_FACTORIES:
            makespans, messages, aborts, correct = [], [], [], 0
            for seed in SEEDS:
                result = run_once(bank, label, nodes, seed)
                makespans.append(result.makespan)
                messages.append(result.messages)
                aborts.append(result.aborts)
                report = check_correctability(
                    result.spec(bank.nest),
                    result.execution.dependency_edges(),
                )
                good = report.correctable and not bank.invariant_violations(
                    result
                )
                correct += good
                if label != "none":
                    assert good, (label, nodes, seed)
            rows.append([
                nodes,
                label,
                f"{mean(makespans):.0f}",
                f"{mean(messages):.0f}",
                f"{mean(aborts):.1f}",
                f"{correct}/{len(list(SEEDS))}",
            ])
    record_table(
        "e7_distributed",
        "E7: migrating transactions across cluster sizes",
        ["nodes", "scheduler", "makespan", "messages", "aborts", "correct"],
        rows,
        notes=(
            "5 same-family transfers + 1 bank audit; means over "
            f"{len(list(SEEDS))} seeds.  The sequencer hosts each engine "
            "scheduler.  Every admission control is correct on every "
            "run; only `none` ever admits an uncorrectable execution."
        ),
    )
