"""Black-box classification of imported histories.

Given a portable :class:`~repro.audit.history.History` — ours or an
external system's — place every transaction against three criteria:

* **serializable** — classical conflict serializability over the
  transaction graph of the dependency edges, under the classical
  ``"rw"`` conflict model by default (two reads commute; updates
  conflict as writes).
* **multilevel** — Theorem 2 correctability under the history's
  declared k-nest and breakpoint levels.  Under the flat 2-nest (the
  history declares none, or depth 0) it is serializability, verdicts
  and witnesses alike.  Mixed-level external histories are exactly what
  k-nests model: the nest says which interleavings were *specified*,
  and the closure says whether the observed dependency order respects
  them.
* **snapshot_isolation** — a value-based black-box check: every read
  must see the transaction's start-snapshot (own writes aside), and two
  concurrent transactions must not both write one entity (first
  committer wins).  Update steps participate as writes; their read half
  follows the single-version value chain by construction and is not
  held to the snapshot rule.

The two cycle axes share one derivation of the dependency edges.  A
transaction is serializable iff no cycle of the transaction graph
passes through it.  Under a deeper nest the multilevel axis blames by
iterated witness-cycle removal: the transactions on a witness cycle are
marked violating and removed, and the remainder is re-checked until it
is clean.  Every witness cycle is kept, rendered as human-readable lines
for the ``repro audit`` CLI.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any

from repro.audit.history import History
from repro.core.atomicity import check_correctability
from repro.engine.cycles import WaitGraph
from repro.errors import SpecificationError
from repro.model.breakpoints import spec_for_execution
from repro.model.execution import Execution
from repro.model.steps import StepKind

__all__ = ["AuditReport", "CRITERIA", "audit_history"]

#: The criteria a history can be required to meet (CLI ``--require``).
CRITERIA = ("multilevel", "serializable", "snapshot_isolation")

_MISSING = object()


@dataclass
class AuditReport:
    """Per-transaction verdicts plus the witnesses behind every ``False``."""

    transactions: tuple[str, ...]
    verdicts: dict[str, dict[str, bool]]
    witnesses: dict[str, list[str]] = field(default_factory=dict)
    conflicts: str = "rw"

    def passes(self, criterion: str) -> bool:
        if criterion not in CRITERIA:
            raise SpecificationError(
                f"unknown criterion {criterion!r}; choose from {CRITERIA}"
            )
        return all(v[criterion] for v in self.verdicts.values())

    @property
    def ok(self) -> dict[str, bool]:
        return {criterion: self.passes(criterion) for criterion in CRITERIA}

    def violating(self, criterion: str) -> list[str]:
        return sorted(
            t for t, v in self.verdicts.items() if not v[criterion]
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "transactions": list(self.transactions),
            "conflicts": self.conflicts,
            "ok": self.ok,
            "verdicts": {
                t: dict(v) for t, v in sorted(self.verdicts.items())
            },
            "witnesses": {
                axis: list(lines)
                for axis, lines in sorted(self.witnesses.items())
            },
        }


# ----------------------------------------------------------------------
# witness formatting
# ----------------------------------------------------------------------


def _format_step_cycle(cycle: list) -> str:
    steps = [repr(s) for s in cycle]
    if steps and steps[0] != steps[-1]:
        steps.append(steps[0])
    return " -> ".join(steps)


# ----------------------------------------------------------------------
# the three axes
# ----------------------------------------------------------------------


def _serializability_axis(execution: Execution, edges: list):
    """Blame each member of a strongly connected component of the
    transaction graph with more than one member.  Witnesses are shortest
    cycles, each from the first blamed transaction no line covers yet."""
    txns = execution.transactions
    graph = WaitGraph(
        ((a.transaction, b.transaction) for a, b in edges
         if a.transaction != b.transaction),
        txns,
    )
    blamed = [c for c in graph.components() if len(c) > 1]
    component_of = {name: c for c in blamed for name in c}
    witnesses: list[str] = []
    covered: set[str] = set()
    for start in txns:
        if start in component_of and start not in covered:
            cycle = _shortest_cycle(graph, component_of[start], start)
            covered.update(cycle)
            witnesses.append(" -> ".join(cycle + [start]))
    return {t: t not in covered for t in txns}, witnesses


def _shortest_cycle(graph: WaitGraph, component: set, start: str) -> list:
    """The shortest cycle through ``start`` inside its strongly connected
    ``component``: breadth first, successors in sorted order."""
    parent = {start: None}
    order = [start]
    for node in order:
        for head in sorted(graph.successors(node)):
            if head == start:
                cycle = []
                while node is not None:
                    cycle.append(node)
                    node = parent[node]
                return cycle[::-1]
            if head in component and head not in parent:
                parent[head] = node
                order.append(head)


def _multilevel_axis(
    history: History, execution: Execution, edges: list, conflicts: str,
    serializable: tuple,
):
    nest = history.nest()
    if nest.k == 2:
        # The flat 2-nest admits no breakpoint two transactions can share
        # (Section 4.3), so multilevel atomicity is serializability: the
        # blame is that axis's, and no closure is built.
        verdicts, witnesses = serializable
        return dict(verdicts), list(witnesses)
    verdicts = {t: True for t in execution.transactions}
    witnesses: list[str] = []
    current = execution
    while current.records:
        spec = spec_for_execution(current, nest, history.cut_levels)
        if check_correctability(spec, edges).correctable:
            break
        # The verdict is seed-independent, the witness is not: blame is
        # worded from the cycle over the transitive pair set.
        pairs = current.dependency_pairs(conflicts)
        cycle = check_correctability(spec, pairs).closure.cycle or []
        guilty = {step.transaction for step in cycle}
        if not guilty:
            break
        for name in guilty:
            verdicts[name] = False
        witnesses.append(_format_step_cycle(cycle))
        keep = [t for t in current.transactions if t not in guilty]
        if not keep:
            break
        current = current.restrict(keep)
        edges = current.dependency_edges(conflicts)
    return verdicts, witnesses


def _snapshot_axis(history: History, execution: Execution):
    records = execution.records
    txns = execution.transactions
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    #: per entity: record positions of its writes, ascending.
    writes_at: dict[str, list[int]] = {}
    #: per writing transaction: the entities it writes.
    writes: dict[str, set[str]] = {}
    for position, record in enumerate(records):
        name = record.step.transaction
        first.setdefault(name, position)
        last[name] = position
        if record.kind is not StepKind.READ:
            writes_at.setdefault(record.entity, []).append(position)
            writes.setdefault(name, set()).add(record.entity)
    verdicts = {t: True for t in txns}
    witnesses: list[str] = []

    def snapshot_value(entity: str, start: int):
        """The entity value a transaction starting at record ``start``
        snapshots: the latest write by a transaction wholly committed
        before the start, else the initial value."""
        positions = writes_at.get(entity, ())
        i = bisect_left(positions, start)
        while i:
            i -= 1
            record = records[positions[i]]
            if last[record.step.transaction] < start:
                return record.value_after
        return history.initial.get(entity, _MISSING)

    # Snapshot reads: each READ sees start-snapshot or an own write.
    for name in txns:
        own: dict[str, Any] = {}
        for record in execution.records_of(name):
            if record.kind is StepKind.READ:
                if record.entity in own:
                    expected = own[record.entity]
                else:
                    expected = snapshot_value(record.entity, first[name])
                if expected is not _MISSING and record.value_before != expected:
                    if verdicts[name]:
                        verdicts[name] = False
                    witnesses.append(
                        f"{record.step} read {record.entity}="
                        f"{record.value_before!r} but {name}'s snapshot "
                        f"holds {expected!r}"
                    )
            else:
                own[record.entity] = record.value_after
    # First committer wins: concurrent transactions must write disjoint
    # entity sets.  The later committer (greater last record) is the one
    # an SI system would have refused.  ``txns`` is in order of first
    # record, so one sweep keeps the writers still running when each
    # starts; the pairs are then reported in (rank, rank) order.
    running: list[int] = []  # ranks of the writers not yet finished
    concurrent: list[tuple[int, int, set[str]]] = []
    for j, b in enumerate(txns):
        if b not in writes:
            continue
        running = [i for i in running if last[txns[i]] > first[b]]
        for i in running:
            shared = writes[txns[i]] & writes[b]
            if shared:
                concurrent.append((i, j, shared))
        running.append(j)
    concurrent.sort(key=lambda pair: pair[:2])
    for i, j, shared in concurrent:
        a, b = txns[i], txns[j]
        loser = a if last[a] > last[b] else b
        verdicts[loser] = False
        witnesses.append(
            f"{a} and {b} both wrote {sorted(shared)} while "
            f"concurrent; first committer wins rejects {loser}"
        )
    return verdicts, witnesses


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def audit_history(history: History, conflicts: str = "rw") -> AuditReport:
    """Classify every transaction of ``history`` against the three
    criteria; raises :class:`SpecificationError` on a malformed history
    or conflict model (never anything else)."""
    if conflicts not in ("all", "rw"):
        raise SpecificationError(
            f"unknown conflict model {conflicts!r}; choose 'all' or 'rw'"
        )
    execution = history.validate()
    edges = execution.dependency_edges(conflicts)
    serializable = _serializability_axis(execution, edges)
    axes = {
        "serializable": serializable,
        "multilevel": _multilevel_axis(
            history, execution, edges, conflicts, serializable
        ),
        "snapshot_isolation": _snapshot_axis(history, execution),
    }
    txns = tuple(execution.transactions)
    return AuditReport(
        transactions=txns,
        verdicts={
            name: {axis: axes[axis][0][name] for axis in axes}
            for name in txns
        },
        witnesses={axis: lines for axis, (_, lines) in axes.items() if lines},
        conflicts=conflicts,
    )
