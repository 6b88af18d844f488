"""Unit and property tests for the incremental reachability core.

The bitset index has three maintenance paths — online insertion
(:meth:`add_edge`), batch rebuild (:meth:`recompute`) and batch delta
repair (:meth:`refresh`) — that must all agree with each other and with
a networkx oracle, including on cycle verdicts and witness validity.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reach import (
    ReachabilityIndex,
    iter_bits,
    reachable_sets,
    transitive_pairs,
)


def build_online(n, edges):
    """Intern ``range(n)`` and insert edges online; returns the index and
    whether it stayed acyclic."""
    index = ReachabilityIndex()
    for node in range(n):
        index.add_node(node)
    for u, v in edges:
        ok, _ = index.add_edge(u, v)
        if not ok:
            return index, False
    return index, True


def oracle(n, edges):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return graph


def oracle_pairs(graph):
    return {
        (u, v) for u in graph.nodes for v in nx.descendants(graph, u)
    }


def assert_closed_walk(index, cycle_ids):
    """A witness must be a closed walk along inserted adjacency edges."""
    assert cycle_ids is not None and len(cycle_ids) > 1
    assert cycle_ids[0] == cycle_ids[-1]
    for iu, iv in zip(cycle_ids, cycle_ids[1:]):
        assert index.has_edge(index.node_of(iu), index.node_of(iv))


@st.composite
def digraphs(draw, max_nodes=12, max_edges=28):
    n = draw(st.integers(2, max_nodes))
    m = draw(st.integers(0, max_edges))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        for _ in range(m)
    ]
    return n, [(u, v) for u, v in edges if u != v]


class TestNodesAndEdges:
    def test_interning_is_idempotent(self):
        index = ReachabilityIndex()
        assert index.add_node("a") == index.add_node("a") == 0
        assert index.add_node("b") == 1
        assert len(index) == 2
        assert "a" in index and "c" not in index
        assert index.nodes == ["a", "b"]
        assert index.node_of(index.id_of("b")) == "b"

    def test_reaches_is_reflexive_and_transitive(self):
        index, ok = build_online(3, [(0, 1), (1, 2)])
        assert ok
        assert index.reaches(0, 0)
        assert index.reaches(0, 2)
        assert not index.reaches(2, 0)
        assert index.has_edge(0, 1)
        assert not index.has_edge(0, 2)

    def test_duplicate_edge_is_a_noop(self):
        index, _ = build_online(2, [(0, 1)])
        before = index.edges
        assert index.add_edge(0, 1) == (True, [])
        assert index.edges == before

    def test_affected_lists_changed_ancestors(self):
        index, _ = build_online(4, [(0, 1), (2, 3)])
        ok, affected = index.add_edge(1, 2)
        assert ok
        # 1 gains {2, 3} and 0 gains them transitively.
        assert set(affected) == {index.id_of(1), index.id_of(0)}
        assert affected[0] == index.id_of(1)

    def test_masks(self):
        index, _ = build_online(3, [(0, 1), (1, 2)])
        assert set(iter_bits(index.descendants_mask(0))) == {1, 2}
        assert set(iter_bits(index.ancestors_mask(2))) == {0, 1}

    def test_pairs_and_iter_edges(self):
        index, _ = build_online(3, [(0, 1), (1, 2)])
        assert set(index.iter_edges()) == {(0, 1), (1, 2)}
        assert index.pairs() == {(0, 1), (0, 2), (1, 2)}


class TestCycleWitnesses:
    def test_online_cycle_witness(self):
        index, ok = build_online(3, [(0, 1), (1, 2), (2, 0)])
        assert not ok and index.cyclic
        assert_closed_walk(index, index.cycle_ids)

    def test_self_loop(self):
        index, ok = build_online(2, [(0, 0)])
        assert not ok
        assert index.cycle_ids == [0, 0]

    def test_recompute_cycle_witness(self):
        index = ReachabilityIndex()
        for node in range(4):
            index.add_node(node)
        for u, v in [(0, 1), (1, 2), (2, 1), (2, 3)]:
            index.add_edge_silent_ids(u, v)
        assert not index.recompute()
        assert_closed_walk(index, index.cycle_ids)

    def test_refresh_cycle_witness(self):
        index, ok = build_online(3, [(0, 1), (1, 2)])
        assert ok and index.recompute()
        index.add_edge_silent_ids(2, 0)
        assert index.refresh([(2, 0)]) is None
        assert_closed_walk(index, index.cycle_ids)


class TestBatchMaintenance:
    def test_silent_then_recompute_matches_online(self):
        edges = [(0, 2), (2, 4), (1, 2), (3, 4)]
        online, ok = build_online(5, edges)
        assert ok
        batch = ReachabilityIndex()
        for node in range(5):
            batch.add_node(node)
        for u, v in edges:
            batch.add_edge_silent_ids(u, v)
        assert batch.recompute()
        assert batch.pairs() == online.pairs()

    def test_recompute_tracks_changed_nodes(self):
        index, _ = build_online(4, [(0, 1)])
        assert index.recompute()
        index.add_edge_silent_ids(2, 3)
        assert index.recompute()
        # Only node 2 gained a descendant.
        assert index.last_changed == 1 << index.id_of(2)

    def test_refresh_resolves_backward_cascade(self):
        """Chain edges inserted against the reverse of the saved
        topological order need several sweeps — the delta must still
        cascade all the way."""
        index = ReachabilityIndex()
        for node in range(4):
            index.add_node(node)
        assert index.recompute()
        chain = [(0, 1), (1, 2), (2, 3)]
        for u, v in chain:
            index.add_edge_silent_ids(u, v)
        changed = index.refresh(chain)
        assert changed is not None
        assert index.pairs() == {
            (u, v) for u in range(4) for v in range(u + 1, 4)
        }
        assert set(iter_bits(changed)) == {0, 1, 2}

    def test_refresh_without_saved_topo_falls_back(self):
        index = ReachabilityIndex()
        for node in range(3):
            index.add_node(node)
        index.add_edge_silent_ids(0, 1)
        assert index.refresh([(0, 1)]) is not None
        assert index.reaches(0, 1)


class TestClone:
    def test_clone_is_independent(self):
        index, _ = build_online(3, [(0, 1)])
        other = index.clone()
        other.add_edge(1, 2)
        assert other.reaches(0, 2)
        assert not index.reaches(0, 2)
        assert index.edges == 1 and other.edges == 2


class TestModuleHelpers:
    def test_reachable_sets_rejects_backward_edges(self):
        with pytest.raises(ValueError):
            reachable_sets(["a", "b"], [("b", "a")])

    def test_transitive_pairs(self):
        order = ["a", "b", "c"]
        assert transitive_pairs(order, [("a", "b"), ("b", "c")]) == {
            ("a", "b"),
            ("a", "c"),
            ("b", "c"),
        }


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@given(digraphs())
@settings(max_examples=120, deadline=None)
def test_online_insertion_matches_oracle(graph):
    n, edges = graph
    index, ok = build_online(n, edges)
    if ok:
        full = oracle(n, edges)
        assert nx.is_directed_acyclic_graph(full)
        assert index.pairs() == oracle_pairs(full)
    else:
        assert_closed_walk(index, index.cycle_ids)


@given(digraphs())
@settings(max_examples=120, deadline=None)
def test_recompute_matches_oracle(graph):
    n, edges = graph
    index = ReachabilityIndex()
    for node in range(n):
        index.add_node(node)
    for u, v in edges:
        index.add_edge_silent_ids(u, v)
    full = oracle(n, edges)
    if index.recompute():
        assert nx.is_directed_acyclic_graph(full)
        assert index.pairs() == oracle_pairs(full)
    else:
        assert not nx.is_directed_acyclic_graph(full)
        assert_closed_walk(index, index.cycle_ids)


@given(digraphs(), st.integers(0, 28))
@settings(max_examples=150, deadline=None)
def test_refresh_matches_recompute(graph, split_at):
    """Silently inserting a suffix of the edges and delta-repairing must
    land in exactly the state a from-scratch rebuild produces, with an
    exact changed-node mask."""
    n, edges = graph
    split_at = min(split_at, len(edges))
    base, rest = edges[:split_at], edges[split_at:]
    index = ReachabilityIndex()
    for node in range(n):
        index.add_node(node)
    for u, v in base:
        index.add_edge_silent_ids(u, v)
    if not index.recompute():
        return  # base already cyclic: nothing to refresh
    before = {node: index.descendants_mask(node) for node in range(n)}
    ids = [(index.id_of(u), index.id_of(v)) for u, v in rest]
    for iu, iv in ids:
        index.add_edge_silent_ids(iu, iv)
    changed = index.refresh(ids)
    full = oracle(n, edges)
    if changed is None:
        assert not nx.is_directed_acyclic_graph(full)
        assert_closed_walk(index, index.cycle_ids)
        return
    assert nx.is_directed_acyclic_graph(full)
    assert index.pairs() == oracle_pairs(full)
    expected = 0
    for node in range(n):
        if index.descendants_mask(node) != before[node]:
            expected |= 1 << index.id_of(node)
    assert changed == expected
