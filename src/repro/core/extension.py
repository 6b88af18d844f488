"""Extending a coherent partial order to a coherent total order.

This module implements Lemma 1 of the paper *constructively*, following
the staged algorithm of its Appendix:

    Stage ``i`` (for ``i = 2 .. k``) partitions the steps into the
    ``B_t(i-1)``-segments of all transactions, builds the directed graph
    whose nodes are segments with an edge ``S1 -> S2`` whenever some step
    of ``S1`` precedes (in the current order) some step of ``S2``,
    condenses it to strongly connected components, totally orders the
    components topologically, and adds every cross-component step pair to
    the order.

The paper proves (Lemmas 3-5) that each stage preserves coherence and
acyclicity and that after stage ``i`` every pair of steps whose
transactions are related at level ``< i`` is comparable; after stage ``k``
the order is total.

This procedure is the *witness generator* behind Theorem 2: applied to the
coherent closure of a correctable execution's dependency order it produces
an equivalent multilevel-atomic execution.

Internally the growing order is kept as a generating digraph: instead of
materialising all cross-component pairs of a stage we thread a chain of
virtual *rank* nodes between consecutive components, so reachability over
the graph equals the constructed order while the graph stays linear-size
per stage.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from collections.abc import Hashable, Iterable, Iterator
from typing import TypeVar

from repro.core.coherence import is_coherent_total_order
from repro.core.interleaving import InterleavingSpec
from repro.engine.cycles import WaitGraph
from repro.errors import NotAPartialOrderError

S = TypeVar("S", bound=Hashable)

__all__ = [
    "extend_to_coherent_total_order",
    "enumerate_coherent_extensions",
]


class _Rank:
    """Virtual node threading the component order of one stage."""

    __slots__ = ("stage", "index")

    def __init__(self, stage: int, index: int) -> None:
        self.stage = stage
        self.index = index

    def __repr__(self) -> str:
        return f"_Rank({self.stage}, {self.index})"


def _indegrees(graph: WaitGraph) -> dict:
    indegree = dict.fromkeys(graph.nodes, 0)
    for node in indegree:
        for succ in graph.successors(node):
            indegree[succ] += 1
    return indegree


def _lexicographic_topological_sort(graph: WaitGraph) -> list:
    """Deterministic topological sort (smallest ``repr`` first)."""
    indegree = _indegrees(graph)
    heap = [(repr(node), node) for node, deg in indegree.items() if deg == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        _, node = heapq.heappop(heap)
        out.append(node)
        for succ in graph.successors(node):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(heap, (repr(succ), succ))
    if len(out) != len(indegree):
        raise NotAPartialOrderError("relation contains a cycle")
    return out


def extend_to_coherent_total_order(
    spec: InterleavingSpec,
    order: Iterable[tuple[S, S]],
    verify: bool = True,
) -> list[S]:
    """Extend a coherent partial order to a coherent total order (Lemma 1).

    Parameters
    ----------
    spec:
        The k-nest and breakpoint descriptions.
    order:
        The coherent partial order, as an edge iterable whose
        *reachability* is the order (e.g. a coherent closure's
        ``index.iter_edges()``).  It must already be coherent;
        per-transaction chain edges are added automatically.
    verify:
        When true (default), the resulting sequence is checked to be a
        coherent total order; a failure means ``order`` was not coherent.

    Returns
    -------
    list:
        All steps of the specification in a coherent total order — the
        equivalent multilevel-atomic schedule.
    """
    steps = sorted(spec.steps, key=repr)
    graph = WaitGraph(itertools.chain(spec.chain_pairs(), order), steps)
    bit_of = {step: i for i, step in enumerate(steps)}

    for stage in range(2, spec.k + 1):
        # Partition all steps into B_t(stage - 1)-segments.
        segment_of: dict[S, int] = {}
        segment_members: list[tuple[S, ...]] = []
        for txn in sorted(spec.transactions, key=repr):
            for segment in spec.description(txn).segments(stage - 1):
                sid = len(segment_members)
                segment_members.append(segment)
                for step in segment:
                    segment_of[step] = sid

        # Step-level reachability masks over the current graph (virtual
        # rank nodes participate in propagation but carry no bit).
        topo = _lexicographic_topological_sort(graph)
        reach: dict = {}
        for node in reversed(topo):
            mask = 1 << bit_of[node] if node in bit_of else 0
            for succ in graph.successors(node):
                mask |= reach[succ]
            reach[node] = mask

        # Segment graph: S1 -> S2 iff some step of S1 reaches some step of
        # a different segment S2.
        seg_graph = WaitGraph(nodes=range(len(segment_members)))
        for sid, members in enumerate(segment_members):
            union = 0
            for step in members:
                union |= reach[step]
            while union:
                low = union & -union
                target = steps[low.bit_length() - 1]
                tid = segment_of[target]
                if tid != sid:
                    seg_graph.add_edge(sid, tid)
                union ^= low

        # Condense to SCCs and order the components.  Components are
        # numbered as networkx numbered them, and the sort compares
        # their ``repr`` (``"10" < "2"``), so the numbering is part of
        # the witness.
        components = seg_graph.components()
        component_of = {
            sid: number
            for number, members in enumerate(components)
            for sid in members
        }
        condensation = WaitGraph(
            (
                (component_of[sid], component_of[tid])
                for sid in seg_graph.nodes
                for tid in seg_graph.successors(sid)
                if component_of[sid] != component_of[tid]
            ),
            range(len(components)),
        )
        component_order = _lexicographic_topological_sort(condensation)

        # Thread rank nodes: every step of component m precedes the rank
        # node of m, which precedes every step of component m + 1 (and the
        # next rank node), realising exactly the cross-component pairs.
        previous_rank = None
        for index, comp in enumerate(component_order):
            rank = _Rank(stage, index)
            graph.add_node(rank)
            for sid in components[comp]:
                for step in segment_members[sid]:
                    graph.add_edge(step, rank)
                    if previous_rank is not None:
                        graph.add_edge(previous_rank, step)
            if previous_rank is not None:
                graph.add_edge(previous_rank, rank)
            previous_rank = rank

    total = [n for n in _lexicographic_topological_sort(graph) if n in bit_of]
    if verify and not is_coherent_total_order(spec, total):
        raise NotAPartialOrderError(
            "input order was not coherent: the staged extension produced a "
            "non-coherent total order"
        )
    return total


def enumerate_coherent_extensions(
    spec: InterleavingSpec,
    order: Iterable[tuple[S, S]],
    limit: int | None = None,
) -> Iterator[tuple[S, ...]]:
    """Enumerate *all* coherent total orders containing ``order``.

    Brute force over topological linearisations; intended for the paper's
    small worked examples (Section 5.1's example has exactly two).  ``limit``
    caps the number of linearisations inspected.
    """
    graph = WaitGraph(itertools.chain(spec.chain_pairs(), order), spec.steps)
    if graph.find_cycle() is not None:
        return  # a cyclic seed has no extensions at all
    inspected = 0
    for linearisation in _all_topological_sorts(graph):
        inspected += 1
        if limit is not None and inspected > limit:
            raise NotAPartialOrderError(
                f"more than {limit} linearisations; refusing brute force"
            )
        if is_coherent_total_order(spec, linearisation):
            yield tuple(linearisation)


def _all_topological_sorts(graph: WaitGraph) -> Iterator[list]:
    """Every linearisation of an acyclic graph, in the order
    ``nx.all_topological_sorts`` yields them (Knuth & Szwarcfiter's
    structured program: ``ready`` holds the minimal nodes, and each
    position cycles through them by rotating the deque)."""
    count = _indegrees(graph)
    ready = deque(node for node, deg in count.items() if deg == 0)
    bases: list = []
    current: list = []
    while True:
        if len(current) == len(count):
            yield list(current)
            # Backtrack to the deepest position with an untried choice.
            while current:
                node = current.pop()
                for succ in graph.successors(node):
                    count[succ] += 1
                while ready and count[ready[-1]] > 0:
                    ready.pop()
                ready.appendleft(node)
                if ready[-1] == bases[-1]:
                    bases.pop()  # every choice at this position was tried
                else:
                    break
        else:
            node = ready.pop()
            for succ in graph.successors(node):
                count[succ] -= 1
                if count[succ] == 0:
                    ready.append(succ)
            current.append(node)
            if len(bases) < len(current):
                bases.append(node)
        if not bases:
            return
