"""Tests for the fault-injection layer and the at-least-once protocol.

Three groups: the fault-plan surface itself (validation, per-link
lookup, timer/traffic accounting), the zero-fault differential (an
inactive plan must be bit-identical to no plan at all), and faulty
end-to-end runs (drop/duplicate/reorder up to 20%, node crashes,
partitions) whose committed results must equal the fault-free run.
"""

from __future__ import annotations

import pytest

from repro.api import SCHEDULER_FACTORIES, make_scheduler
from repro.core import check_correctability
from repro.core.nests import KNest
from repro.distributed import (
    CrashEvent,
    DistributedRuntime,
    FaultPlan,
    LinkFaults,
    Message,
    Network,
    Partition,
)
from repro.engine import MLAPreventScheduler, Scheduler, TwoPhaseLockingScheduler
from repro.errors import NetworkError
from repro.workloads import BankingConfig, BankingWorkload
from repro.workloads.banking import transfer_program


@pytest.fixture(scope="module")
def bank():
    """Order-invariant contended workload: balances never clamp the
    transfer scan and money only moves within families, so committed
    results are independent of the serialization order."""
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


def run_bank(bank, scheduler, faults=None, seed=2, nodes=3):
    return DistributedRuntime(
        bank.programs, bank.accounts, scheduler, nodes=nodes, seed=seed,
        faults=faults,
    ).run()


#: Every scheduler but ``none``.
ADMISSION = [name for name in SCHEDULER_FACTORIES if name != "none"]


class TestFaultPlanSurface:
    def test_rates_validated(self):
        with pytest.raises(NetworkError, match="drop rate"):
            LinkFaults(drop=1.5)
        with pytest.raises(NetworkError, match="reorder rate"):
            LinkFaults(reorder=-0.1)
        with pytest.raises(NetworkError, match="jitter"):
            LinkFaults(reorder_jitter=-1.0)

    def test_crash_window_validated(self):
        with pytest.raises(NetworkError, match="crash window"):
            CrashEvent("node0", at=-1.0, duration=5.0)
        with pytest.raises(NetworkError, match="crash window"):
            CrashEvent("node0", at=3.0, duration=0.0)

    def test_inactive_plan(self):
        assert not FaultPlan().active
        assert FaultPlan(default=LinkFaults(drop=0.1)).active
        assert FaultPlan(crashes=(CrashEvent("n", 1.0, 1.0),)).active
        assert FaultPlan(partitions=(Partition("a", "b", 1.0, 1.0),)).active

    def test_per_link_lookup_specificity(self):
        special = LinkFaults(drop=0.5)
        wild = LinkFaults(duplicate=0.5)
        plan = FaultPlan(links={
            ("a", "b"): special,
            ("a", "*"): wild,
        })
        assert plan.link("a", "b") is special
        assert plan.link("a", "c") is wild
        assert plan.link("x", "y") is plan.default

    def test_partition_severs_both_directions_in_window(self):
        p = Partition("a", "b", at=10.0, duration=5.0)
        assert p.severs("a", "b", 12.0)
        assert p.severs("b", "a", 12.0)
        assert not p.severs("a", "b", 9.9)
        assert not p.severs("a", "b", 15.0)
        assert not p.severs("a", "c", 12.0)

    def test_crash_for_unknown_node_rejected(self, bank):
        plan = FaultPlan(crashes=(CrashEvent("sequencer", 5.0, 5.0),))
        with pytest.raises(NetworkError, match="uncrashable"):
            DistributedRuntime(
                bank.programs, bank.accounts, Scheduler(), nodes=2,
                faults=plan,
            )


class TestTimerAccounting:
    def test_timers_counted_separately_from_traffic(self):
        """Regression: local timers (retry ticks, commit-check polls)
        used to inflate the wire-traffic counters experiment E7 reads."""
        network = Network()
        network.register("sink", lambda m: None)
        network.send("sink", Message("data"))
        network.send("sink", Message("tick"), delay=1.0, timer=True)
        network.send("sink", Message("tick"), delay=2.0, timer=True)
        assert network.messages_sent == 1
        assert network.messages_by_kind == {"data": 1}
        assert network.timers_set == 2
        assert network.timers_by_kind == {"tick": 2}

    def test_timers_still_delivered(self):
        seen = []
        network = Network()
        network.register("sink", lambda m: seen.append(m.kind))
        network.send("sink", Message("tick"), delay=5.0, timer=True)
        network.send("sink", Message("data"))
        network.run()
        assert seen == ["data", "tick"]

    def test_distributed_run_reports_timer_split(self, bank):
        result = run_bank(bank, TwoPhaseLockingScheduler())
        assert result.timers == sum(result.timers_by_kind.values())
        # Wire kinds and timer kinds are disjoint vocabularies.
        assert not set(result.timers_by_kind) & set(result.messages_by_kind)


class TestZeroFaultDifferential:
    def test_inactive_plan_bit_identical(self, bank):
        """faults=FaultPlan() (all rates zero, no crashes) must leave
        behavior and message counts identical to faults=None."""
        for name in SCHEDULER_FACTORIES:
            base = run_bank(bank, make_scheduler(name, bank.nest))
            dressed = run_bank(
                bank, make_scheduler(name, bank.nest), faults=FaultPlan()
            )
            assert dressed.results == base.results
            assert dressed.makespan == base.makespan
            assert dressed.messages == base.messages
            assert dressed.messages_by_kind == base.messages_by_kind
            assert dressed.timers == base.timers
            assert dressed.timers_by_kind == base.timers_by_kind
            assert dressed.aborts == base.aborts

    def test_inactive_plan_reports_no_faults(self, bank):
        result = run_bank(bank, Scheduler(), faults=FaultPlan())
        assert all(v == 0 for v in result.faults.values())
        assert result.recoveries == 0


class TestFaultyRuns:
    def test_link_faults_masked(self, bank):
        base = run_bank(bank, TwoPhaseLockingScheduler())
        plan = FaultPlan(
            default=LinkFaults(drop=0.15, duplicate=0.15, reorder=0.15),
            seed=5,
        )
        result = run_bank(bank, TwoPhaseLockingScheduler(), faults=plan)
        assert result.commits == len(bank.programs)
        assert result.results == base.results
        assert result.faults["dropped"] > 0
        assert result.faults["duplicated"] > 0

    def test_crash_recovery_masked(self, bank):
        base = run_bank(bank, MLAPreventScheduler(bank.nest))
        plan = FaultPlan(crashes=(CrashEvent("node1", 25.0, 30.0),), seed=3)
        result = run_bank(
            bank, MLAPreventScheduler(bank.nest), faults=plan
        )
        assert result.commits == len(bank.programs)
        assert result.recoveries == 1
        assert result.faults["crashes"] == 1
        assert result.results == base.results
        report = check_correctability(
            result.spec(bank.nest), result.execution.dependency_edges()
        )
        assert report.correctable
        assert not bank.invariant_violations(result)

    def test_partition_masked(self, bank):
        base = run_bank(bank, TwoPhaseLockingScheduler())
        plan = FaultPlan(
            partitions=(Partition("node0", "sequencer", 10.0, 20.0),),
            seed=0,
        )
        result = run_bank(bank, TwoPhaseLockingScheduler(), faults=plan)
        assert result.commits == len(bank.programs)
        assert result.faults["severed"] > 0
        assert result.results == base.results

    @pytest.mark.parametrize("rate", [0.1, 0.2])
    @pytest.mark.parametrize("fseed", range(3))
    def test_sweep_all_controls_identical_results(self, bank, rate, fseed):
        """The E14 acceptance bar: under every admission control the
        run terminates, the checker accepts every committed execution,
        and committed results equal the zero-fault run — at
        drop/dup/reorder up to 20% plus a node crash on every run."""
        plan = FaultPlan(
            default=LinkFaults(drop=rate, duplicate=rate, reorder=rate),
            crashes=(CrashEvent("node1", 25.0, 30.0),),
            seed=fseed,
        )
        for name in ADMISSION:
            base = run_bank(bank, make_scheduler(name, bank.nest))
            result = run_bank(
                bank, make_scheduler(name, bank.nest), faults=plan
            )
            assert result.commits == len(bank.programs)
            assert result.results == base.results
            report = check_correctability(
                result.spec(bank.nest), result.execution.dependency_edges()
            )
            assert report.correctable
            assert not bank.invariant_violations(result)

    def test_no_control_on_disjoint_workload(self):
        """Zero admission control, so only the fault protocol stands
        between the adversary and the store: entity-disjoint transfers
        make every interleaving serial, hence any wrong result is a
        protocol bug, not a concurrency artifact."""
        programs = [
            transfer_program(f"t{i}", [f"F{i}.A0"], [f"F{i}.A1"], 25, 3)
            for i in range(4)
        ]
        accounts = {f"F{i}.A{j}": 1000 for i in range(4) for j in range(2)}
        nest = KNest.from_paths(
            {f"t{i}": ("customers", f"family:{i}") for i in range(4)}
        )
        plan = FaultPlan(
            default=LinkFaults(drop=0.2, duplicate=0.2, reorder=0.2),
            crashes=(CrashEvent("node1", 25.0, 30.0),),
            seed=1,
        )
        result = DistributedRuntime(
            programs, accounts, Scheduler(), nodes=3, seed=2, faults=plan
        ).run()
        assert result.results == {f"t{i}": 25 for i in range(4)}
        report = check_correctability(
            result.spec(nest), result.execution.dependency_edges()
        )
        assert report.correctable


class TestWaitOnFinishedOwner:
    """A request that waits on a finished transaction which
    commit-depends on the requester is a deadlock across the two halves
    of the sequencer's waits-for relation: the grant wait ``t5 ->
    creditor0`` and the commit dependency ``creditor0 -> t5``.  Each
    half alone is acyclic, so a sequencer that checked them apart denied
    ``t5`` forever and the run hit the network's event cap with one
    commit."""

    CONFIG = BankingConfig(
        families=3, accounts_per_family=2, transfers=6, bank_audits=1,
        creditor_audits=1, seed=1,
    )
    PLAN = FaultPlan(
        default=LinkFaults(drop=0.05, duplicate=0.05),
        crashes=(CrashEvent("node1", at=12.0, duration=10.0),),
        seed=6,
    )

    @pytest.mark.parametrize("control", ["mla-prevent", "2pl"])
    def test_every_transaction_commits(self, control):
        workload = BankingWorkload(self.CONFIG)
        runtime = DistributedRuntime(
            workload.programs, workload.accounts,
            make_scheduler(control, workload.nest),
            nodes=3, seed=1, faults=self.PLAN,
        )
        runtime.network.max_events = 20_000
        result = runtime.run()
        assert result.commits == len(workload.programs) == 8
        report = check_correctability(
            result.spec(workload.nest), result.execution.dependency_edges()
        )
        assert report.correctable
        assert workload.invariant_violations(result) == []


class TestHostedSchedulerUnderFaults:
    """Runs that went wrong once the sequencer hosted every scheduler."""

    def test_an_entity_performs_its_grants_in_issue_order(self, bank):
        """``timestamp`` marks an entity when it grants a step.  Under
        this plan a grant is lost and a younger transaction's grant on
        the same entity performs first, and the checker rejected the
        history until each grant named the one it must perform behind."""
        plan = FaultPlan(
            default=LinkFaults(drop=0.2, duplicate=0.2, reorder=0.2),
            crashes=(CrashEvent("node1", 25.0, 30.0),),
            seed=9,
        )
        base = run_bank(bank, make_scheduler("timestamp", bank.nest), seed=0)
        result = run_bank(
            bank, make_scheduler("timestamp", bank.nest), faults=plan, seed=0
        )
        assert result.results == base.results
        report = check_correctability(
            result.spec(bank.nest), result.execution.dependency_edges()
        )
        assert report.correctable
        assert not bank.invariant_violations(result)

    def test_prevention_waits_only_on_transactions_with_steps(self, bank):
        """A requester whose hypothetical step closes a cycle with no
        uncommitted owner once waited for every active transaction, one
        that had just restarted included; that one then waited for the
        requester, lost the cycle as the younger, and restarted again,
        forever."""
        plan = FaultPlan(
            default=LinkFaults(drop=0.35, duplicate=0.35, reorder=0.35),
            crashes=(CrashEvent("node1", 25.0, 30.0),),
            seed=10,
        )
        runtime = DistributedRuntime(
            bank.programs, bank.accounts, MLAPreventScheduler(bank.nest),
            nodes=3, seed=1, faults=plan,
        )
        runtime.network.max_events = 20_000
        result = runtime.run()
        assert result.commits == len(bank.programs)
        report = check_correctability(
            result.spec(bank.nest), result.execution.dependency_edges()
        )
        assert report.correctable
