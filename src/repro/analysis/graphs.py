"""Graph exports for inspection and debugging.

Renders dependency graphs, coherent-closure graphs and nested action
trees into plain-text / DOT forms so experiment artefacts can be eyeballed
without plotting dependencies.
"""

from __future__ import annotations

from repro.engine.cycles import WaitGraph
from repro.model.execution import Execution

__all__ = ["to_dot", "dependency_dot", "condensed_transaction_order", "ascii_schedule"]


def to_dot(graph: WaitGraph, name: str = "G") -> str:
    """A minimal GraphViz DOT rendering of a digraph (anything with
    ``nodes`` and ``successors(node)``)."""
    lines = [f"digraph {name} {{"]
    for node in sorted(graph.nodes, key=repr):
        lines.append(f'  "{node}";')
    edges = [(u, v) for u in graph.nodes for v in graph.successors(u)]
    for u, v in sorted(edges, key=repr):
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines)


def dependency_dot(execution: Execution, conflicts: str = "all") -> str:
    graph = WaitGraph(execution.dependency_edges(conflicts), execution.steps)
    return to_dot(graph, "dependency")


def condensed_transaction_order(
    execution: Execution, conflicts: str = "all"
) -> list[list[str]]:
    """Strongly connected components of the serialization graph in
    topological order — the transaction-level shape of a schedule (a
    single-component list means a serialization cycle)."""
    from repro.analysis.checker import serialization_graph

    components = serialization_graph(execution, conflicts).components()
    # A component comes out after every component it reaches.
    return [sorted(members) for members in reversed(components)]


def ascii_schedule(execution: Execution, width: int = 100) -> str:
    """A one-line-per-transaction timeline of the execution.

    Each column is a performed step; a letter marks which transaction
    performed it (R for reads, W for writes/updates of that row's
    transaction)."""
    txns = execution.transactions
    rows = {t: [] for t in txns}
    for record in execution.records[:width]:
        for t in txns:
            if record.step.transaction == t:
                rows[t].append("R" if record.is_read_only else "W")
            else:
                rows[t].append(".")
    label_width = max((len(t) for t in txns), default=0)
    return "\n".join(
        f"{t:<{label_width}} {''.join(cells)}" for t, cells in rows.items()
    )
