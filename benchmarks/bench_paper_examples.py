"""X1-X8: the paper's worked examples, timed and re-verified.

The paper has no empirical tables; its 'results' are the worked examples
of Sections 4.2-5.2.  This bench re-derives each and times the core
operations on them (coherence check, coherent closure, Lemma 1
extension, Theorem 2 decision), so any behavioural regression in the
formal layer shows up here.
"""

from __future__ import annotations

import pytest

from _harness import record_table
from repro.core import (
    check_correctability,
    coherent_closure,
    coherent_closure_pairs,
    extend_to_coherent_total_order,
    is_coherent,
    is_multilevel_atomic,
)
from repro.workloads.paper import (
    abstract_example,
    abstract_example_extensions,
    banking_atomic_sequence,
    banking_executions,
    banking_spec,
)


@pytest.fixture(scope="module")
def abstract():
    return abstract_example()


@pytest.fixture(scope="module")
def banking():
    return banking_executions()


def test_x1_r1_coherence(benchmark, abstract):
    result = benchmark(
        is_coherent, abstract["spec"], abstract["R1_generators"]
    )
    assert result


def test_x2_closure_of_r2(benchmark, abstract):
    pairs, acyclic = benchmark(
        coherent_closure_pairs, abstract["spec"], abstract["R2"]
    )
    assert acyclic
    assert pairs == abstract["R1"] | abstract["closure_extras"]


def test_x3_closure_of_r3_cycles(benchmark, abstract):
    pairs, acyclic = benchmark(
        coherent_closure_pairs, abstract["spec"], abstract["R3"]
    )
    assert not acyclic


def test_x4_lemma1_extension(benchmark, abstract):
    total = benchmark(
        extend_to_coherent_total_order, abstract["spec"], abstract["R1"]
    )
    assert tuple(total) in {tuple(s) for s in abstract_example_extensions()}


def test_x5_banking_atomic_check(benchmark):
    data = banking_spec()
    sequence = banking_atomic_sequence()
    assert benchmark(is_multilevel_atomic, data["spec"], sequence)


def test_x6_theorem2_correctable(benchmark, banking):
    deps = banking["dependency"](banking["correctable"])
    report = benchmark(check_correctability, banking["spec"], deps)
    assert report.correctable


def test_x7_theorem2_uncorrectable(benchmark, banking):
    deps = banking["dependency"](banking["uncorrectable"])
    report = benchmark(check_correctability, banking["spec"], deps)
    assert not report.correctable


def test_x8_summary_table(banking, abstract):
    rows = []
    for name, seed in (("R1", "R1"), ("R2", "R2"), ("R3", "R3")):
        result = coherent_closure(abstract["spec"], abstract[seed])
        rows.append([
            f"Sec 4.2 {name}",
            "partial order" if result.is_partial_order else "CYCLE",
            result.index.edges,
        ])
    for label, sequence in (
        ("Sec 5.2 correctable", banking["correctable"]),
        ("Sec 5.2 uncorrectable", banking["uncorrectable"]),
    ):
        report = check_correctability(
            banking["spec"], banking["dependency"](sequence)
        )
        rows.append([
            label,
            "correctable" if report.correctable else "NOT correctable",
            report.closure.index.edges,
        ])
    record_table(
        "x_paper_examples",
        "X1-X8: paper worked examples",
        ["example", "verdict", "closure edges"],
        rows,
        notes=(
            "Verdicts match the paper exactly (R1 modulo the transitive-"
            "closure erratum documented in repro.workloads.paper)."
        ),
    )
