"""Offline schedule checkers.

One-stop classification of a recorded execution against the hierarchy of
criteria the paper relates:

* serial (trivially atomic),
* conflict-serializable (the classical [EGLT] cycle test on the
  serialization graph over transactions),
* multilevel atomic (coherent total order, Section 4.3),
* multilevel correctable (Theorem 2).

Serializability is checked both classically (serialization graph) and as
the k = 2 instance of Theorem 2 — :func:`classify_execution` asserts the
two agree, so every experiment run doubles as a cross-validation of the
generalisation claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.core.atomicity import check_correctability, is_multilevel_atomic
from repro.core.interleaving import InterleavingSpec
from repro.core.nests import KNest
from repro.core.serializability import is_serial, serializability_spec
from repro.engine.cycles import WaitGraph
from repro.errors import ReproError
from repro.model.breakpoints import spec_for_execution
from repro.model.execution import Execution

__all__ = [
    "ScheduleReport",
    "serialization_graph",
    "is_conflict_serializable",
    "classify_execution",
]


@dataclass
class ScheduleReport:
    """Where one execution sits in the criterion hierarchy."""

    serial: bool
    conflict_serializable: bool
    multilevel_atomic: bool
    multilevel_correctable: bool
    cycle: list | None = None

    def as_row(self) -> dict[str, bool]:
        return {
            "serial": self.serial,
            "serializable": self.conflict_serializable,
            "mla-atomic": self.multilevel_atomic,
            "mla-correctable": self.multilevel_correctable,
        }


def serialization_graph(
    execution: Execution, conflicts: str = "all"
) -> nx.DiGraph:
    """The [EGLT]-style serialization graph: nodes are transactions, with
    an edge ``t -> u`` when some step of ``t`` precedes a conflicting
    step of ``u``."""
    graph: nx.DiGraph = nx.DiGraph()
    graph.add_nodes_from(execution.transactions)
    for a, b in execution.dependency_edges(conflicts):
        if a.transaction != b.transaction:
            graph.add_edge(a.transaction, b.transaction)
    return graph


def is_conflict_serializable(
    execution: Execution, conflicts: str = "all"
) -> bool:
    """Classical serializability: the serialization graph is acyclic.

    Searches the transaction-level edges with the wait-graph cycle
    finder (no networkx graph); :func:`serialization_graph` remains
    available for plotting and inspection."""
    graph = WaitGraph(
        (a.transaction, b.transaction)
        for a, b in execution.dependency_edges(conflicts)
        if a.transaction != b.transaction
    )
    return graph.find_cycle() is None


def classify_execution(
    execution: Execution,
    nest: KNest,
    cut_levels: dict[str, dict[int, int]],
    conflicts: str = "all",
    spec: InterleavingSpec | None = None,
) -> ScheduleReport:
    """Classify an execution against every criterion at once.

    Cross-validates the paper's generalisation claim on each call: the
    classical serialization-graph test must agree with Theorem 2 applied
    to the flat 2-nest.
    """
    spec = spec or spec_for_execution(execution, nest, cut_levels)
    step_orders = {t: execution.steps_of(t) for t in execution.transactions}
    deps = execution.dependency_edges(conflicts)

    serial = is_serial(step_orders, execution.steps)
    classical = is_conflict_serializable(execution, conflicts)
    via_theorem2 = check_correctability(
        serializability_spec(step_orders), deps
    ).correctable
    if classical != via_theorem2:
        raise ReproError(
            "serialization-graph test and k=2 Theorem 2 disagree: "
            f"classical={classical}, theorem2={via_theorem2}"
        )

    atomic = is_multilevel_atomic(spec, execution.steps)
    report = check_correctability(spec, deps)
    return ScheduleReport(
        serial=serial,
        conflict_serializable=classical,
        multilevel_atomic=atomic,
        multilevel_correctable=report.correctable,
        cycle=report.closure.cycle,
    )
