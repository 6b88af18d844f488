"""Cross-module integration tests: workload -> engine/distributed ->
analysis -> nested, end to end.

Each test drives a realistic pipeline the way a downstream user would,
asserting the pieces compose: generated workloads execute under real
concurrency controls, committed executions classify correctly against
every criterion, correctable runs yield replayable witnesses, and atomic
runs encode into verified action trees.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import classify_execution
from repro.core import equivalent_atomic_order, is_multilevel_atomic
from repro.distributed import DistributedRuntime
from repro.engine import (
    Engine,
    MLADetectScheduler,
    MLAPreventScheduler,
    NestedLockScheduler,
    SerialScheduler,
)
from repro.errors import NotCoherentError
from repro.model import spec_for_execution
from repro.nested import encode_action_tree, verify_action_tree
from repro.workloads import (
    BankingConfig,
    BankingWorkload,
    CADConfig,
    CADWorkload,
    FGLConfig,
    FGLWorkload,
)
from tests.engine.conftest import ScriptedRng


@pytest.fixture(scope="module")
def bank():
    return BankingWorkload(BankingConfig(
        families=3, accounts_per_family=2, transfers=6,
        intra_family_ratio=0.7, bank_audits=1, creditor_audits=1,
        conditional_ratio=0.3, seed=17,
    ))


class TestEnginePipeline:
    def test_full_pipeline_banking(self, bank):
        """Engine -> classification -> witness -> replay -> action tree."""
        result = bank.engine(MLADetectScheduler(bank.nest), seed=4).run()
        report = classify_execution(
            result.execution, bank.nest, result.cut_levels
        )
        assert report.multilevel_correctable
        spec = result.spec(bank.nest)
        witness_order = equivalent_atomic_order(
            spec, result.execution.dependency_edges()
        )
        witness = result.execution.reorder(witness_order)
        assert witness.equivalent(result.execution)
        assert is_multilevel_atomic(spec, witness.steps)
        tree = encode_action_tree(spec, witness.steps)
        verify_action_tree(tree, spec, witness.steps)

    def test_serial_baseline_encodes_directly(self, bank):
        result = bank.engine(SerialScheduler(), seed=0).run()
        spec = result.spec(bank.nest)
        tree = encode_action_tree(spec, result.execution.steps)
        assert tree.steps() == result.execution.steps

    def test_non_atomic_committed_execution_does_not_encode(self, bank):
        """A correctable-but-not-atomic committed execution must be
        rejected by the encoder until reordered into its witness."""
        for seed in range(10):
            result = bank.engine(MLADetectScheduler(bank.nest), seed=seed).run()
            spec = result.spec(bank.nest)
            if is_multilevel_atomic(spec, result.execution.steps):
                continue
            with pytest.raises(NotCoherentError):
                encode_action_tree(spec, result.execution.steps)
            return
        pytest.skip("every sampled run happened to be atomic")

    def test_every_mla_scheduler_agrees_on_results(self, bank):
        """Money totals are scheduler-independent: any correct control
        produces a final state equal to some serial outcome's totals."""
        grand = bank.grand_total
        for scheduler in (
            MLADetectScheduler(bank.nest),
            MLAPreventScheduler(bank.nest),
            NestedLockScheduler(bank.nest),
        ):
            engine = bank.engine(scheduler, seed=9)
            result = engine.run()
            total = sum(
                engine.store.value(account)
                for account in bank.accounts
                if account != "BANK.INTEREST"
            )
            assert total == grand
            assert result.results["audit0"] == grand


class TestDistributedPipeline:
    def test_distributed_to_action_tree(self, bank):
        runtime = DistributedRuntime(
            bank.programs, bank.accounts,
            MLAPreventScheduler(bank.nest), nodes=3, seed=5,
        )
        result = runtime.run()
        spec = result.spec(bank.nest)
        witness_order = equivalent_atomic_order(
            spec, result.execution.dependency_edges()
        )
        witness = result.execution.reorder(witness_order)
        tree = encode_action_tree(spec, witness.steps)
        verify_action_tree(tree, spec, witness.steps)

    def test_distributed_and_single_site_agree_on_totals(self, bank):
        single = bank.engine(MLAPreventScheduler(bank.nest), seed=2)
        single.run()
        distributed = DistributedRuntime(
            bank.programs, bank.accounts,
            MLAPreventScheduler(bank.nest), nodes=4, seed=2,
        )
        distributed.run()
        single_total = sum(
            single.store.value(a) for a in bank.accounts
            if a != "BANK.INTEREST"
        )
        distributed_total = sum(
            node.store.value(entity)
            for node in distributed.nodes
            for entity in node.store.entities
            if entity != "BANK.INTEREST"
        )
        assert single_total == distributed_total == bank.grand_total


class TestOtherWorkloads:
    def test_cad_pipeline(self):
        cad = CADWorkload(CADConfig(seed=6, modifications=5, snapshots=1))
        result = cad.engine(MLADetectScheduler(cad.nest), seed=1).run()
        report = classify_execution(
            result.execution, cad.nest, result.cut_levels
        )
        assert report.multilevel_correctable
        assert cad.invariant_violations(result) == []

    def test_fgl_pipeline(self):
        fgl = FGLWorkload(FGLConfig(seed=6, transfers=5))
        result = fgl.engine(NestedLockScheduler(fgl.nest), seed=1).run()
        report = classify_execution(
            result.execution, fgl.nest, result.cut_levels
        )
        assert report.multilevel_correctable
        assert fgl.invariant_violations(result) == []

    def test_model_and_engine_agree_on_serial_semantics(self, bank):
        """The model-layer serial run and the engine's serial scheduler
        produce identical entity outcomes for the same order."""
        db = bank.application_database()
        order = sorted(bank.transfer_meta) + bank.audit_names + list(
            bank.creditor_meta
        )
        model_run = db.serial_run(order)
        engine = Engine(
            bank.programs, bank.accounts, SerialScheduler(),
            seed=0,
        )
        engine.rng = ScriptedRng(0, [name for name in order for _ in range(40)])
        engine_result = engine.run()
        model_values = {
            entity: values[-1]
            for entity, values in
            model_run.execution.entity_value_sequences().items()
        }
        for entity, value in model_values.items():
            assert engine.store.value(entity) == value
