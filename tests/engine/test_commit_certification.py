"""Regression tests for commit-time closure certification.

Discovered during the reproduction: a step can close *two* cycles at
once; per-step detection rolls back one cycle's victim and the other
cycle's participants — already finished — could commit a non-correctable
history, permanently poisoning the window (every later transaction then
trips over the stale committed cycle and is rolled back forever).

The adversarial configuration below (conditional same-family transfers
plus an audit, seed 17/9) reproduced exactly that livelock before the
fix; it must now complete quickly and correctably under every MLA
scheduler.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KNest, check_correctability
from repro.engine import (
    MLADetectScheduler,
    MLAPreventScheduler,
    NestedLockScheduler,
)
from repro.engine.closure_window import ClosureWindow
from repro.engine.schedulers._certify import certify_victim
from repro.errors import EngineError
from repro.model.steps import StepId, StepKind
from repro.service import ServiceConfig
from repro.service.server import TransactionService
from repro.workloads import BankingConfig, BankingWorkload
from repro.workloads.traffic import TrafficConfig, traffic_submissions


def adversarial_bank() -> BankingWorkload:
    return BankingWorkload(BankingConfig(
        families=3, accounts_per_family=2, transfers=6,
        intra_family_ratio=0.7, bank_audits=1, creditor_audits=1,
        conditional_ratio=0.3, seed=17,
    ))


SCHEDULERS = [
    ("mla-detect", MLADetectScheduler),
    ("mla-prevent", MLAPreventScheduler),
    ("mla-nested-lock", NestedLockScheduler),
]


@pytest.mark.parametrize("label,scheduler_cls", SCHEDULERS)
def test_double_cycle_regression(label, scheduler_cls):
    """The exact workload/seed that livelocked (2M ticks) before the
    commit-certification fix must finish fast and correctably."""
    bank = adversarial_bank()
    engine = bank.engine(
        scheduler_cls(bank.nest), seed=9, max_ticks=100_000
    )
    result = engine.run()
    assert result.metrics.ticks < 10_000
    report = check_correctability(
        result.spec(bank.nest), result.execution.dependency_edges()
    )
    assert report.correctable
    assert bank.invariant_violations(result) == []


@given(seed=st.integers(0, 1_000))
@settings(max_examples=15, deadline=None)
def test_adversarial_workload_always_terminates_correctably(seed):
    bank = adversarial_bank()
    engine = bank.engine(
        MLADetectScheduler(bank.nest), seed=seed, max_ticks=150_000
    )
    result = engine.run()
    report = check_correctability(
        result.spec(bank.nest), result.execution.dependency_edges()
    )
    assert report.correctable
    assert result.results["audit0"] == bank.grand_total


def test_certification_counts_cycles():
    """Commit-time certification events are visible in the metrics (the
    cycles_detected counter includes them)."""
    bank = adversarial_bank()
    totals = 0
    for seed in range(6):
        result = bank.engine(
            MLADetectScheduler(bank.nest), seed=seed, max_ticks=150_000
        ).run()
        totals += result.metrics.cycles_detected
    assert totals > 0


# ---------------------------------------------------------------------------
# the victim of a cycle among committed steps
# ---------------------------------------------------------------------------


def _window_with_cycles(*pairs):
    """A flat-nest window in which each pair of transactions closes a
    cycle: ``a`` then ``b`` write ``x<i>``, ``b`` then ``a`` write
    ``y<i>``."""
    names = [name for pair in pairs for name in pair]
    window = ClosureWindow(KNest.flat(names + ["bystander"]))
    for i, (a, b) in enumerate(pairs):
        for name, entity, pos in (
            (a, f"x{i}", 0), (b, f"x{i}", 0), (b, f"y{i}", 1),
            (a, f"y{i}", 1),
        ):
            window.observe(
                name, StepId(name, pos), entity, StepKind.WRITE, {}
            )
    window.observe(
        "bystander", StepId("bystander", 0), "z", StepKind.WRITE, {}
    )
    return window


def test_probe_leaves_the_window_as_it_was():
    window = _window_with_cycles(("t1", "t2"))
    before = window.snapshot_state()
    assert window.acyclic_without("t1")
    assert not window.acyclic_without("bystander")
    assert window.snapshot_state() == before
    assert not window.closure().is_partial_order


def test_victim_is_the_youngest_whose_removal_breaks_the_cycle():
    """The youngest candidate (``bystander``) justifies nothing; rolling
    it back would leave the cycle, so the next one is the victim."""
    window = _window_with_cycles(("t1", "t2"))
    cycle = window.closure().cycle
    victim = certify_victim(
        window, cycle, set(), ["t1", "t2", "bystander"], lambda n: n
    )
    assert victim == "t2"
    # An owner on the witness is taken without probing.
    assert certify_victim(
        window, cycle, {"t1"}, ["bystander"], lambda n: n
    ) == "t1"


def test_a_cycle_no_removal_breaks_is_an_error():
    window = _window_with_cycles(("t1", "t2"), ("t3", "t4"))
    cycle = window.closure().cycle
    with pytest.raises(EngineError, match="no active transaction"):
        certify_victim(
            window, cycle, set(), ["t1", "t2", "t3", "t4"], lambda n: n
        )


def test_service_stream_that_wedged_certification_commits_everything():
    """The first 43 batches of the stream E18 runs as lane 0 of seed 6
    at contention 0.15, one batch awaited at a time.  Certification
    used to roll back the youngest active transaction whenever a witness
    cycle held only committed steps; here that transaction never
    justified the cycle, so the service aborted forever at commit 1 362.
    The run takes well under a second; the bound only turns a relapse
    into a failure instead of a hang."""
    submissions = traffic_submissions(TrafficConfig(
        transactions=1376, seed="6/0", contention=0.15, families=32,
        entities_per_family=8, shared_entities=4, name_prefix="a",
    ))

    async def run():
        service = TransactionService(ServiceConfig(scheduler="mla-detect"))
        for start in range(0, len(submissions), 32):
            await asyncio.gather(*(
                service.submit(submission)
                for submission in submissions[start:start + 32]
            ))
        return service

    service = asyncio.run(asyncio.wait_for(run(), timeout=60))
    assert len(service.engine.commit_order) == len(submissions)
