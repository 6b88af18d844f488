"""Tests for executions, dependency orders, equivalence and replay."""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError
from repro.model import Execution, StepId, StepKind, StepRecord
from repro.model.execution import EntityFold


def record(txn, index, entity, before, after, kind=StepKind.UPDATE):
    return StepRecord(StepId(txn, index), entity, kind, before, after)


@pytest.fixture()
def simple():
    """t writes X then Y; u reads X between t's steps."""
    return Execution(
        [
            record("t", 0, "X", 0, 1),
            record("u", 0, "X", 1, 1, StepKind.READ),
            record("t", 1, "Y", 0, 2),
        ],
        {"X": 0, "Y": 0},
    )


class TestDependency:
    def test_dependency_edges(self, simple):
        edges = set(simple.dependency_edges())
        assert (StepId("t", 0), StepId("u", 0)) in edges  # same entity X
        assert (StepId("t", 0), StepId("t", 1)) in edges  # same transaction
        assert (StepId("u", 0), StepId("t", 1)) not in edges

    def test_dependency_pairs_transitive(self):
        execution = Execution(
            [
                record("t", 0, "X", 0, 1),
                record("u", 0, "X", 1, 2),
                record("v", 0, "X", 2, 3),
            ]
        )
        pairs = execution.dependency_pairs()
        assert (StepId("t", 0), StepId("v", 0)) in pairs

    def test_duplicate_step_rejected(self):
        with pytest.raises(ExecutionError, match="twice"):
            Execution([record("t", 0, "X", 0, 1), record("t", 0, "X", 1, 2)])


class TestConflictModels:
    """The paper's ``"all"`` model orders every same-entity pair; the
    classical ``"rw"`` model, kept for auditing outside histories, lets
    two reads commute."""

    def test_rw_conflicts_ignore_read_read(self):
        t0, u0 = StepId("t", 0), StepId("u", 0)
        fold = EntityFold("rw")
        assert fold.feed(t0, "A", StepKind.READ) == []
        assert fold.feed(u0, "A", StepKind.READ) == []
        fold = EntityFold("all")
        assert fold.feed(t0, "A", StepKind.READ) == []
        assert fold.feed(u0, "A", StepKind.READ) == [(t0, u0)]

    def test_write_after_reads_depends_on_every_read(self):
        execution = Execution(
            [
                record("t", 0, "X", 0, 1),
                record("u", 0, "X", 1, 1, StepKind.READ),
                record("v", 0, "X", 1, 1, StepKind.READ),
                record("w", 0, "X", 1, 2, StepKind.WRITE),
            ],
            {"X": 0},
        )
        t0, u0, v0, w0 = (StepId(n, 0) for n in "tuvw")
        assert set(execution.dependency_edges("rw")) == {
            (t0, u0), (t0, v0), (t0, w0), (u0, w0), (v0, w0),
        }
        assert set(execution.dependency_edges("all")) == {
            (t0, u0), (u0, v0), (v0, w0),
        }

    def test_unknown_conflict_model_rejected(self, simple):
        with pytest.raises(ExecutionError):
            simple.dependency_edges("bogus")


class TestEquivalence:
    def test_reordering_unrelated_steps_is_equivalent(self):
        a = Execution(
            [record("t", 0, "X", 0, 1), record("u", 0, "Y", 0, 1)],
            {"X": 0, "Y": 0},
        )
        b = Execution(
            [record("u", 0, "Y", 0, 1), record("t", 0, "X", 0, 1)],
            {"X": 0, "Y": 0},
        )
        assert a.equivalent(b)

    def test_reordering_conflicting_steps_not_equivalent(self):
        a = Execution(
            [record("t", 0, "X", 0, 1), record("u", 0, "X", 1, 2)],
        )
        b = Execution(
            [record("u", 0, "X", 0, 2), record("t", 0, "X", 2, 1)],
        )
        assert not a.equivalent(b)

    def test_different_step_sets_not_equivalent(self, simple):
        other = Execution([record("t", 0, "X", 0, 1)])
        assert not simple.equivalent(other)


class TestValidation:
    def test_valid_execution(self, simple):
        simple.validate()
        assert simple.is_valid()

    def test_stale_value_detected(self):
        bad = Execution(
            [record("t", 0, "X", 0, 1), record("u", 0, "X", 0, 2)],
            {"X": 0},
        )
        with pytest.raises(ExecutionError, match="previous access left"):
            bad.validate()

    def test_wrong_initial_value_detected(self):
        bad = Execution([record("t", 0, "X", 5, 6)], {"X": 0})
        assert not bad.is_valid()

    def test_out_of_order_transaction_steps_detected(self):
        bad = Execution(
            [record("t", 1, "X", 0, 1), record("t", 0, "Y", 0, 1)],
            {"X": 0, "Y": 0},
        )
        with pytest.raises(ExecutionError, match="expected index"):
            bad.validate()


class TestReorder:
    def test_reorder_consistent_with_dependencies(self, simple):
        new = simple.reorder(
            [StepId("t", 0), StepId("t", 1), StepId("u", 0)]
        )
        assert new.is_valid()
        assert new.equivalent(simple)
        assert new.entity_value_sequences() == simple.entity_value_sequences()

    def test_reorder_violating_dependencies_raises(self, simple):
        with pytest.raises(ExecutionError):
            simple.reorder([StepId("u", 0), StepId("t", 0), StepId("t", 1)])

    def test_reorder_must_permute_steps(self, simple):
        with pytest.raises(ExecutionError, match="permute"):
            simple.reorder([StepId("t", 0)])


class TestQueries:
    def test_steps_of(self, simple):
        assert simple.steps_of("t") == [StepId("t", 0), StepId("t", 1)]

    def test_transactions_in_first_appearance_order(self, simple):
        assert simple.transactions == ["t", "u"]

    def test_restrict(self, simple):
        sub = simple.restrict(["t"])
        assert sub.steps == [StepId("t", 0), StepId("t", 1)]

    def test_record_of(self, simple):
        assert simple.record_of(StepId("u", 0)).kind is StepKind.READ
        with pytest.raises(ExecutionError):
            simple.record_of(StepId("zz", 0))
