"""Unit and property tests for Lemma 1's staged extension algorithm."""

from __future__ import annotations

import heapq
import itertools

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.core import (
    check_correctability,
    coherent_closure,
    coherent_closure_pairs,
    enumerate_coherent_extensions,
    equivalent_atomic_order,
    extend_to_coherent_total_order,
    is_coherent_total_order,
    is_correctable,
)
from repro.errors import NotAPartialOrderError, NotCorrectableError

from tests.core.strategies import specs_with_seeds
from tests.core.test_coherence import two_transaction_spec


# ---------------------------------------------------------------------------
# the networkx oracle: Lemma 1 as it was built on networkx graphs
# ---------------------------------------------------------------------------


def _nx_lexicographic_topological_sort(graph: nx.DiGraph) -> list:
    indegree = {node: graph.in_degree(node) for node in graph.nodes}
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
    assert len(out) == graph.number_of_nodes()
    return out


class _Rank:
    """A rank node; its ``repr`` orders it among the steps."""

    def __init__(self, stage: int, index: int) -> None:
        self.stage, self.index = stage, index

    def __repr__(self) -> str:
        return f"_Rank({self.stage}, {self.index})"


def _nx_extend(spec, order) -> list:
    """The staged extension of :mod:`repro.core.extension` over networkx
    (condensation, rank threading), without the final coherence check."""
    graph = nx.DiGraph()
    steps = sorted(spec.steps, key=repr)
    graph.add_nodes_from(steps)
    graph.add_edges_from(spec.chain_pairs())
    graph.add_edges_from(order)
    bit_of = {step: i for i, step in enumerate(steps)}
    for stage in range(2, spec.k + 1):
        segment_of = {}
        segment_members = []
        for txn in sorted(spec.transactions, key=repr):
            for segment in spec.description(txn).segments(stage - 1):
                segment_of.update((step, len(segment_members)) for step in segment)
                segment_members.append(segment)
        reach = {}
        for node in reversed(_nx_lexicographic_topological_sort(graph)):
            mask = 1 << bit_of[node] if node in bit_of else 0
            for succ in graph.successors(node):
                mask |= reach[succ]
            reach[node] = mask
        seg_graph = nx.DiGraph()
        seg_graph.add_nodes_from(range(len(segment_members)))
        for sid, members in enumerate(segment_members):
            union = 0
            for step in members:
                union |= reach[step]
            for bit in range(len(steps)):
                if union >> bit & 1 and segment_of[steps[bit]] != sid:
                    seg_graph.add_edge(sid, segment_of[steps[bit]])
        condensation = nx.condensation(seg_graph)
        previous = None
        for index, comp in enumerate(
            _nx_lexicographic_topological_sort(condensation)
        ):
            rank = _Rank(stage, index)
            for sid in condensation.nodes[comp]["members"]:
                for step in segment_members[sid]:
                    graph.add_edge(step, rank)
                    if previous is not None:
                        graph.add_edge(previous, step)
            if previous is not None:
                graph.add_edge(previous, rank)
            previous = rank
    return [
        n for n in _nx_lexicographic_topological_sort(graph) if n in bit_of
    ]


def _nx_extensions(spec, order):
    graph = nx.DiGraph()
    graph.add_nodes_from(spec.steps)
    graph.add_edges_from(spec.chain_pairs())
    graph.add_edges_from(order)
    if not nx.is_directed_acyclic_graph(graph):
        return
    for linearisation in nx.all_topological_sorts(graph):
        if is_coherent_total_order(spec, linearisation):
            yield tuple(linearisation)


class TestExtension:
    def test_empty_order_extends_to_some_serial_order(self):
        spec = two_transaction_spec()
        total = extend_to_coherent_total_order(spec, [])
        assert is_coherent_total_order(spec, total)

    def test_extension_contains_input(self):
        spec = two_transaction_spec(k=3, cut_levels_a={0: 2})
        pairs, _ = coherent_closure_pairs(spec, {("a1", "b1")})
        total = extend_to_coherent_total_order(spec, pairs)
        position = {s: i for i, s in enumerate(total)}
        for a, b in pairs:
            assert position[a] < position[b]

    def test_cyclic_input_raises(self):
        spec = two_transaction_spec()
        with pytest.raises(NotAPartialOrderError):
            extend_to_coherent_total_order(
                spec, [("a1", "b1"), ("b1", "a1")]
            )

    def test_graph_input_accepted(self):
        spec = two_transaction_spec()
        result = coherent_closure(spec, {("a3", "b1")})
        total = extend_to_coherent_total_order(spec, result.index.iter_edges())
        assert is_coherent_total_order(spec, total)
        assert total.index("a3") < total.index("b1")


class TestTheorem2RoundTrip:
    def test_equivalent_atomic_order_raises_when_uncorrectable(self):
        spec = two_transaction_spec()
        with pytest.raises(NotCorrectableError):
            equivalent_atomic_order(spec, {("a1", "b1"), ("b2", "a3")})

    def test_report_witness(self):
        spec = two_transaction_spec(k=3, cut_levels_a={0: 2})
        report = check_correctability(
            spec, {("a1", "b1"), ("b2", "a2")}, witness=True
        )
        assert report.correctable
        assert is_coherent_total_order(spec, report.witness)


@given(specs_with_seeds())
@settings(max_examples=80, deadline=None)
def test_witness_and_extensions_match_the_networkx_oracle(spec_and_seed):
    """Lemma 1's witness, and the brute-force extensions in their order,
    are what the networkx-built versions produced."""
    spec, seed = spec_and_seed
    report = check_correctability(spec, seed, witness=True)
    if report.correctable:
        edges = list(report.closure.index.iter_edges())
        assert report.witness == _nx_extend(spec, edges)
    if len(spec.steps) <= 7:
        assert list(
            itertools.islice(enumerate_coherent_extensions(spec, seed), 40)
        ) == list(itertools.islice(_nx_extensions(spec, seed), 40))


# ---------------------------------------------------------------------------
# property tests: both directions of Theorem 2 on small instances
# ---------------------------------------------------------------------------


@given(specs_with_seeds(max_transactions=3, max_steps=3))
@settings(max_examples=60, deadline=None)
def test_acyclic_closure_yields_coherent_extension(spec_and_seed):
    """Completeness half of Theorem 2 via Lemma 1: whenever the closure is
    acyclic, the staged algorithm produces a coherent total order that
    contains the seed."""
    spec, seed = spec_and_seed
    report = check_correctability(spec, seed, witness=True)
    if not report.correctable:
        return
    total = report.witness
    assert is_coherent_total_order(spec, total)
    position = {s: i for i, s in enumerate(total)}
    for a, b in seed:
        assert position[a] < position[b]


@given(specs_with_seeds(max_transactions=3, max_steps=3, max_pairs=3))
@settings(max_examples=40, deadline=None)
def test_theorem2_matches_brute_force(spec_and_seed):
    """Theorem 2 equals brute force on small instances: the closure is
    acyclic exactly when some coherent total order contains the seed."""
    spec, seed = spec_and_seed
    if len(spec.steps) > 8:
        return
    # Brute force only works when the seed itself is acyclic as a graph.
    decided = is_correctable(spec, seed)
    try:
        any_extension = next(
            iter(enumerate_coherent_extensions(spec, seed, limit=50_000)),
            None,
        )
    except NotAPartialOrderError:
        return  # too many linearisations; skip
    assert decided == (any_extension is not None)


@given(specs_with_seeds(max_transactions=3, max_steps=3))
@settings(max_examples=40, deadline=None)
def test_witness_preserves_dependency(spec_and_seed):
    spec, seed = spec_and_seed
    report = check_correctability(spec, seed, witness=True)
    if not report.correctable:
        return
    # Every pair of the closure (not only the seed) is preserved.
    pairs, _ = coherent_closure_pairs(spec, seed)
    position = {s: i for i, s in enumerate(report.witness)}
    for a, b in pairs:
        assert position[a] < position[b]


@given(specs_with_seeds(max_transactions=3, max_steps=3, max_pairs=2))
@settings(max_examples=30, deadline=None)
def test_every_coherent_extension_contains_the_closure(spec_and_seed):
    """The closure is sound: it only ever adds pairs that *every* coherent
    total order containing the seed must satisfy."""
    spec, seed = spec_and_seed
    if len(spec.steps) > 7:
        return
    pairs, acyclic = coherent_closure_pairs(spec, seed)
    if not acyclic:
        return
    try:
        extensions = list(
            enumerate_coherent_extensions(spec, seed, limit=50_000)
        )
    except NotAPartialOrderError:
        return
    for sequence in extensions:
        position = {s: i for i, s in enumerate(sequence)}
        for a, b in pairs:
            assert position[a] < position[b]
