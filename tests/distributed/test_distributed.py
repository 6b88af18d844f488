"""Tests for the migrating-transaction distributed substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SCHEDULER_FACTORIES, make_scheduler
from repro.core import check_correctability
from repro.distributed import DistributedRuntime, Message, Network
from repro.engine import MLAPreventScheduler, Scheduler, TwoPhaseLockingScheduler
from repro.errors import NetworkError
from repro.workloads import BankingConfig, BankingWorkload


@pytest.fixture(scope="module")
def bank():
    return BankingWorkload(BankingConfig(families=3, transfers=4, seed=7))


class TestNetwork:
    def test_fifo_per_target(self):
        received = []
        network = Network(latency=(1.0, 50.0), seed=1)
        network.register("sink", lambda m: received.append(m.payload["i"]))
        for i in range(20):
            network.send("sink", Message("tick", {"i": i}))
        network.run()
        assert received == list(range(20))

    def test_unregistered_target(self):
        network = Network()
        with pytest.raises(NetworkError, match="no handler"):
            network.send("ghost", Message("x"))

    def test_duplicate_registration(self):
        network = Network()
        network.register("a", lambda m: None)
        with pytest.raises(NetworkError, match="already"):
            network.register("a", lambda m: None)

    def test_handlers_can_send(self):
        network = Network(seed=0)
        log = []

        def ping(message):
            log.append("ping")
            if len(log) < 4:
                network.send("pong", Message("m"))

        def pong(message):
            log.append("pong")
            network.send("ping", Message("m"))

        network.register("ping", ping)
        network.register("pong", pong)
        network.send("ping", Message("m"))
        makespan = network.run()
        assert log[:4] == ["ping", "pong", "ping", "pong"]
        assert makespan > 0

    def test_message_counters(self):
        network = Network()
        network.register("sink", lambda m: None)
        network.send("sink", Message("a"))
        network.send("sink", Message("a"))
        network.send("sink", Message("b"))
        assert network.messages_sent == 3
        assert network.messages_by_kind == {"a": 2, "b": 1}

    def test_bad_latency(self):
        with pytest.raises(NetworkError):
            Network(latency=(5.0, 1.0))


class TestRuntime:
    def test_all_controls_commit_everything(self, bank):
        for name in SCHEDULER_FACTORIES:
            runtime = DistributedRuntime(
                bank.programs, bank.accounts,
                make_scheduler(name, bank.nest), nodes=3, seed=2,
            )
            result = runtime.run()
            assert result.commits == len(bank.programs)
            result.execution.validate()

    def test_prevention_always_correctable(self, bank):
        for seed in range(5):
            runtime = DistributedRuntime(
                bank.programs,
                bank.accounts,
                MLAPreventScheduler(bank.nest),
                nodes=4,
                seed=seed,
            )
            result = runtime.run()
            report = check_correctability(
                result.spec(bank.nest), result.execution.dependency_edges()
            )
            assert report.correctable
            assert not bank.invariant_violations(result)

    def test_locking_always_correctable(self, bank):
        for seed in range(5):
            runtime = DistributedRuntime(
                bank.programs,
                bank.accounts,
                TwoPhaseLockingScheduler(),
                nodes=4,
                seed=seed,
            )
            result = runtime.run()
            report = check_correctability(
                result.spec(bank.nest), result.execution.dependency_edges()
            )
            assert report.correctable

    def test_no_control_breaks_invariants_sometimes(self, bank):
        broken = 0
        for seed in range(8):
            runtime = DistributedRuntime(
                bank.programs, bank.accounts, Scheduler(), nodes=4, seed=seed
            )
            result = runtime.run()
            report = check_correctability(
                result.spec(bank.nest), result.execution.dependency_edges()
            )
            if not report.correctable or bank.invariant_violations(result):
                broken += 1
        assert broken > 0

    def test_single_node_cluster(self, bank):
        runtime = DistributedRuntime(
            bank.programs,
            bank.accounts,
            MLAPreventScheduler(bank.nest),
            nodes=1,
            seed=0,
        )
        result = runtime.run()
        assert result.commits == len(bank.programs)

    def test_entity_placement_spreads(self, bank):
        runtime = DistributedRuntime(
            bank.programs, bank.accounts, Scheduler(), nodes=3, seed=0
        )
        sizes = [len(node.store.entities) for node in runtime.nodes]
        assert all(size > 0 for size in sizes)
        assert sum(sizes) == len(bank.accounts)

    def test_admission_protocol_message_shape(self, bank):
        """Every performed step costs a request and a grant; waiting shows
        up as deny/retry pairs (abort thrash can make the *total* counts
        of different controls incomparable, so we check the protocol
        shape, not a cross-control inequality)."""
        result = DistributedRuntime(
            bank.programs,
            bank.accounts,
            MLAPreventScheduler(bank.nest),
            nodes=3,
            seed=3,
        ).run()
        kinds = result.messages_by_kind
        assert kinds["grant"] >= len(result.execution)
        assert kinds["request"] >= kinds["grant"]
        assert kinds["performed"] >= kinds["grant"]

    def test_node_count_in_result(self, bank):
        result = DistributedRuntime(
            bank.programs, bank.accounts, Scheduler(), nodes=5, seed=0
        ).run()
        assert result.node_count == 5
        assert result.summary()["nodes"] == 5


@given(seed=st.integers(0, 500), nodes=st.integers(1, 6))
@settings(max_examples=15, deadline=None)
def test_prevention_correctable_across_seeds(seed, nodes):
    bank = BankingWorkload(BankingConfig(families=2, transfers=3, seed=11))
    runtime = DistributedRuntime(
        bank.programs,
        bank.accounts,
        MLAPreventScheduler(bank.nest),
        nodes=nodes,
        seed=seed,
    )
    result = runtime.run()
    report = check_correctability(
        result.spec(bank.nest), result.execution.dependency_edges()
    )
    assert report.correctable
    assert not bank.invariant_violations(result)


_HASH_SEED_RUNS = {
    # The prevent control built its wait-for graph by iterating a raw
    # set of transaction names; under hash seed 6 the run livelocked.
    "prevent-waits": (
        "from repro.distributed import DistributedRuntime\n"
        "from repro.engine import MLAPreventScheduler\n"
        "w = BankingWorkload(BankingConfig(families=2, transfers=4, "
        "bank_audits=1, creditor_audits=1, seed=0))\n"
        "r = DistributedRuntime(w.programs, w.accounts, "
        "MLAPreventScheduler(w.nest), nodes=3, seed=0).run()\n"
        "print(json.dumps([r.makespan, r.commits, r.aborts, r.messages]))\n",
        ("1", "6"),
    ),
    # The sequencer's commit-dependency graph iterated a set of
    # ``(name, attempt)`` pairs (makespan 331.76 vs 511.01).
    "sequencer-deps": (
        "from repro.distributed import DistributedRuntime\n"
        "from repro.engine import Scheduler\n"
        "w = BankingWorkload(BankingConfig(families=3, accounts_per_family=2, "
        "transfers=12, bank_audits=1, creditor_audits=1, seed=4))\n"
        "r = DistributedRuntime(w.programs, w.accounts, Scheduler(), "
        "nodes=3, seed=4).run()\n"
        "print(json.dumps([r.makespan, r.commits, r.aborts, r.messages]))\n",
        ("0", "3"),
    ),
    # The nested-lock scheduler added its blocker sets to the wait graph
    # unsorted (15 vs 14 deadlocks).
    "nested-lock-waits": (
        "from repro.engine import Engine, NestedLockScheduler\n"
        "w = BankingWorkload(BankingConfig(families=2, accounts_per_family=2, "
        "transfers=8, bank_audits=1, creditor_audits=1, seed=2))\n"
        "r = Engine(w.programs, w.accounts, NestedLockScheduler(w.nest), "
        "seed=2).run()\n"
        "m = r.metrics\n"
        "print(json.dumps([m.ticks, m.commits, m.aborts, m.deadlocks, "
        "m.waits]))\n",
        ("0", "1"),
    ),
    # The lock manager keeps its contended entities in a set; waits-for
    # edges must still come out in lock-creation order, or the cycle
    # found — its members' order, and so the victim — follows the hash
    # seed (30 deadlocks; walking the set unsorted prints t0/t5 reversed).
    "2pl-waits": (
        "from repro.engine import Engine, TwoPhaseLockingScheduler\n"
        "from repro.obs import RingTracer\n"
        "w = BankingWorkload(BankingConfig(families=2, accounts_per_family=2, "
        "transfers=12, bank_audits=1, creditor_audits=1, seed=0))\n"
        "t = RingTracer(None)\n"
        "r = Engine(w.programs, w.accounts, TwoPhaseLockingScheduler(), "
        "seed=0, tracer=t).run()\n"
        "m = r.metrics\n"
        "assert m.deadlocks > 0\n"
        "cycles = [e.data['cycle'] for e in t.events() "
        "if e.kind == 'deadlock']\n"
        "print(json.dumps([m.ticks, m.commits, m.aborts, m.deadlocks, "
        "m.waits, cycles]))\n",
        ("0", "1"),
    ),
}


@pytest.mark.parametrize("case", sorted(_HASH_SEED_RUNS))
def test_run_invariant_under_hash_seed(case):
    """Regression: a wait graph built by iterating a raw set made which
    cycle ``find_cycle`` surfaced — and hence the victim, and the whole
    trajectory — depend on ``PYTHONHASHSEED``.  Two fresh interpreters
    with hash seeds that used to disagree must now agree exactly."""
    import json
    import os
    import subprocess
    import sys

    body, hash_seeds = _HASH_SEED_RUNS[case]
    script = (
        "import json\n"
        "from repro.workloads import BankingConfig, BankingWorkload\n"
        + body
    )
    results = []
    for hash_seed in hash_seeds:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout))
    assert results[0] == results[1]
