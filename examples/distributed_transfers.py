"""Migrating transactions across a simulated cluster.

Places the banking entities on data nodes, lets transfers migrate from
entity to entity as messages ([RSL], the model Section 6 assumes), and
runs every engine scheduler at the sequencer — no control, the
serializability baselines, and both of the paper's Section 6 strategies.
Reports makespan, message counts (the price of admission control),
rollbacks and offline correctness.

Run: ``python examples/distributed_transfers.py``
"""

from repro.analysis import format_table
from repro.api import SCHEDULER_FACTORIES, make_scheduler
from repro.core import check_correctability
from repro.distributed import DistributedRuntime
from repro.workloads import BankingConfig, BankingWorkload


def main() -> None:
    bank = BankingWorkload(BankingConfig(
        families=3, accounts_per_family=2, transfers=6,
        bank_audits=1, creditor_audits=1, seed=21,
    ))
    nodes = 4
    print(
        f"cluster: {nodes} data nodes + 1 sequencer, "
        f"{len(bank.accounts)} entities, {len(bank.programs)} transactions"
    )
    print()

    rows = []
    for name in SCHEDULER_FACTORIES:
        # Average over a few seeds for stable numbers.
        makespans, messages, aborts, correct = [], [], [], 0
        seeds = range(5)
        for seed in seeds:
            runtime = DistributedRuntime(
                bank.programs, bank.accounts, make_scheduler(name, bank.nest),
                nodes=nodes, seed=seed,
            )
            result = runtime.run()
            makespans.append(result.makespan)
            messages.append(result.messages)
            aborts.append(result.aborts)
            report = check_correctability(
                result.spec(bank.nest), result.execution.dependency_edges()
            )
            correct += report.correctable and not bank.invariant_violations(result)
        rows.append([
            name,
            f"{sum(makespans) / len(makespans):.0f}",
            f"{sum(messages) / len(messages):.0f}",
            f"{sum(aborts) / len(aborts):.1f}",
            f"{correct}/{len(seeds)}",
        ])

    print(format_table(
        ["scheduler", "makespan", "messages", "aborts", "correct runs"],
        rows,
    ))
    print()
    print("Only no control commits uncorrectable executions.  Every other")
    print("scheduler pays request/grant messages per step, plus the")
    print("rollbacks its strategy costs under this contention.")


if __name__ == "__main__":
    main()
