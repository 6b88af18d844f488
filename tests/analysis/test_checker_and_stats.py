"""Tests for the offline checkers, graph exports and statistics."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    Summary,
    ascii_schedule,
    classify_execution,
    condensed_transaction_order,
    confidence_half_width,
    dependency_dot,
    format_table,
    is_conflict_serializable,
    mean,
    serialization_graph,
    stddev,
    summarize,
    to_dot,
)
from repro.engine.cycles import WaitGraph
from repro.model import Execution, StepId, StepKind, StepRecord, spec_for_run
from repro.workloads import BankingConfig, BankingWorkload


def record(txn, index, entity, before, after, kind=StepKind.UPDATE):
    return StepRecord(StepId(txn, index), entity, kind, before, after)


@pytest.fixture(scope="module")
def bank():
    return BankingWorkload(
        BankingConfig(families=2, transfers=3, bank_audits=1,
                      creditor_audits=0, seed=6)
    )


class TestSerializationGraph:
    def test_simple_conflict_edge(self):
        execution = Execution(
            [record("t", 0, "X", 0, 1), record("u", 0, "X", 1, 2)]
        )
        graph = serialization_graph(execution)
        assert list(graph.successors("t")) == ["u"]
        assert is_conflict_serializable(execution)

    def test_cycle_detected(self):
        execution = Execution(
            [
                record("t", 0, "X", 0, 1),
                record("u", 0, "X", 1, 2),
                record("u", 1, "Y", 0, 1),
                record("t", 1, "Y", 1, 2),
            ]
        )
        assert not is_conflict_serializable(execution)

    def test_rw_model_ignores_read_read(self):
        execution = Execution(
            [
                record("t", 0, "X", 0, 0, StepKind.READ),
                record("u", 0, "X", 0, 0, StepKind.READ),
            ]
        )
        rw = serialization_graph(execution, "rw")
        assert not any(rw.successors(name) for name in rw.nodes)
        assert "u" in serialization_graph(execution, "all").successors("t")


class TestClassify:
    def test_hierarchy_on_random_runs(self, bank):
        """serial => atomic => correctable, and serializable =>
        correctable, over random interleavings — plus the built-in
        cross-validation of the k=2 case."""
        db = bank.application_database()
        for seed in range(12):
            run = db.run(rng=random.Random(seed))
            report = classify_execution(
                run.execution, bank.nest, run.cut_levels
            )
            if report.serial:
                assert report.multilevel_atomic
            if report.multilevel_atomic:
                assert report.multilevel_correctable
            if report.conflict_serializable:
                assert report.multilevel_correctable
            row = report.as_row()
            assert set(row) == {
                "serial", "serializable", "mla-atomic", "mla-correctable"
            }

    def test_serial_run_classifies_fully(self, bank):
        db = bank.application_database()
        run = db.serial_run()
        report = classify_execution(run.execution, bank.nest, run.cut_levels)
        assert report.serial
        assert report.conflict_serializable
        assert report.multilevel_atomic
        assert report.multilevel_correctable


class TestGraphExports:
    def test_to_dot(self):
        dot = to_dot(WaitGraph([("a", "b")]))
        assert '"a" -> "b";' in dot

    def test_dependency_dot(self, bank):
        run = bank.application_database().serial_run()
        dot = dependency_dot(run.execution)
        assert dot.startswith("digraph dependency")

    def test_condensed_order_serial(self, bank):
        run = bank.application_database().serial_run()
        blocks = condensed_transaction_order(run.execution)
        assert all(len(block) == 1 for block in blocks)

    def test_ascii_schedule(self, bank):
        run = bank.application_database().serial_run()
        art = ascii_schedule(run.execution)
        assert "t0" in art
        lines = art.splitlines()
        assert len(lines) == len(run.execution.transactions)


class TestStats:
    def test_mean_and_stddev(self):
        assert mean([1, 2, 3]) == 2
        assert stddev([2, 2, 2]) == 0
        assert stddev([]) == 0
        assert mean([]) == 0

    def test_confidence(self):
        assert confidence_half_width([5]) == 0
        assert confidence_half_width([1, 2, 3]) > 0

    def test_summary_format(self):
        s = summarize([1.0, 2.0, 3.0])
        assert "±" in f"{s:.2f}"
        assert isinstance(s, Summary)

    def test_format_table(self):
        table = format_table(["a", "b"], [[1, 2], [30, 40]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].count("|") == 3

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30))
    @settings(max_examples=50)
    def test_mean_within_bounds(self, values):
        assert min(values) - 1e-9 <= mean(values) <= max(values) + 1e-9
