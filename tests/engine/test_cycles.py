"""WaitGraph.find_cycle must surface exactly the cycle nx.find_cycle does.

*Which* cycle is surfaced decides rollback victims, so the differentials
here assert identical node lists, not merely "both found some cycle":
against networkx (the oracle the wait graph was built to match) and
against the transaction-graph DFS the audit classifier used before it
shared this finder (nodes registered first, edges sorted).  The same
holds for strongly connected components, whose numbering Lemma 1's
witness depends on.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.engine.cycles import WaitGraph


def nx_cycle(edges, source=None):
    graph = nx.DiGraph()
    graph.add_edges_from(edges)
    try:
        found = nx.find_cycle(graph, **(
            {"source": source} if source is not None else {}
        ))
    except (nx.NetworkXNoCycle, nx.NetworkXError):
        return None
    return [u for u, _ in found]


def wait_cycle(edges, source=None):
    return WaitGraph(edges).find_cycle(source=source)


def random_edges(rng, nodes):
    return [
        (rng.choice(nodes), rng.choice(nodes))
        for _ in range(rng.randint(0, 2 * len(nodes)))
    ]


CASES = [
    [],
    [("a", "b")],
    [("a", "a")],
    [("a", "b"), ("b", "a")],
    [("a", "b"), ("b", "c"), ("c", "a")],
    [("a", "b"), ("b", "c"), ("c", "b")],
    [("x", "a"), ("a", "b"), ("b", "c"), ("c", "a")],
    [("a", "b"), ("a", "c"), ("c", "d"), ("d", "a"), ("b", "e")],
    [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b"), ("d", "a")],
]


@pytest.mark.parametrize("edges", CASES)
def test_known_cases_match_networkx(edges):
    assert wait_cycle(edges) == nx_cycle(edges)


@pytest.mark.parametrize("edges", CASES)
def test_source_variants_match_networkx(edges):
    nodes = sorted({n for e in edges for n in e}) + ["missing"]
    for source in nodes:
        assert wait_cycle(edges, source) == nx_cycle(edges, source), (
            f"diverged for source={source!r} on {edges}"
        )


def test_random_digraphs_match_networkx():
    rng = random.Random(0)
    for trial in range(2000):
        nodes = [f"t{i}" for i in range(rng.randint(2, 9))]
        edges = random_edges(rng, nodes)  # self-loops and duplicates too
        assert wait_cycle(edges) == nx_cycle(edges), (
            f"trial {trial}: diverged on {edges}"
        )
        source = rng.choice(nodes)
        assert wait_cycle(edges, source) == nx_cycle(edges, source), (
            f"trial {trial}: diverged for source={source!r} on {edges}"
        )


def test_components_match_networkx_in_members_and_order():
    """Lemma 1 numbers strongly connected components as networkx does,
    so ``components`` must yield the same sets in the same order."""
    rng = random.Random(1)
    for trial in range(2000):
        nodes = [f"t{i}" for i in range(rng.randint(1, 12))]
        graph = WaitGraph()
        oracle = nx.DiGraph()
        for node in rng.sample(nodes, rng.randint(0, len(nodes))):
            graph.add_node(node)
            oracle.add_node(node)
        for u, v in random_edges(rng, nodes):
            graph.add_edge(u, v)
            oracle.add_edge(u, v)
        assert graph.nodes == list(oracle.nodes)
        assert graph.components() == list(
            nx.strongly_connected_components(oracle)
        ), f"trial {trial}: diverged on {list(oracle.edges)}"


def test_is_acyclic_cases():
    assert WaitGraph([("a", "b"), ("b", "c")]).find_cycle() is None
    assert WaitGraph([("a", "b"), ("b", "a")]).find_cycle() == ["a", "b"]
    assert WaitGraph([("a", "a")]).find_cycle() == ["a"]


def test_add_waits_inserts_blockers_sorted():
    graph = WaitGraph()
    graph.add_waits("w", {"c", "a", "b"})
    graph.add_waits("a", {"w"})
    graph.add_waits("b", {"w"})
    # ``a`` is the first successor of ``w`` whatever the set's order.
    assert graph.find_cycle() == ["w", "a"]


def test_registered_nodes_are_roots_in_order():
    graph = WaitGraph()
    for node in ("z", "a"):
        graph.add_node(node)
    graph.add_edge("a", "b")
    graph.add_edge("b", "a")
    graph.add_edge("z", "y")
    assert graph.find_cycle() == ["a", "b"]
    assert graph.find_cycle(source="z") is None


def classify_dfs(nodes, edges):
    """The audit classifier's transaction-graph DFS, kept verbatim as
    an oracle for the serializability witnesses it used to produce."""
    adjacency = {n: [] for n in nodes}
    for a, b in sorted(edges):
        adjacency[a].append(b)
    colour = {n: 0 for n in nodes}  # 0 white, 1 on stack, 2 done
    parent = {}
    for root in nodes:
        if colour[root]:
            continue
        stack = [(root, iter(adjacency[root]))]
        colour[root] = 1
        while stack:
            node, successors = stack[-1]
            advanced = False
            for nxt in successors:
                if colour[nxt] == 0:
                    colour[nxt] = 1
                    parent[nxt] = node
                    stack.append((nxt, iter(adjacency[nxt])))
                    advanced = True
                    break
                if colour[nxt] == 1:
                    cycle = [node]
                    while cycle[-1] != nxt:
                        cycle.append(parent[cycle[-1]])
                    cycle.reverse()
                    return cycle
            if not advanced:
                colour[node] = 2
                stack.pop()
    return None


def test_random_transaction_graphs_match_classify_dfs():
    rng = random.Random(1)
    cyclic = 0
    for trial in range(2000):
        nodes = [f"t{i}" for i in range(rng.randint(1, 9))]
        rng.shuffle(nodes)
        edges = {(a, b) for a, b in random_edges(rng, nodes) if a != b}
        graph = WaitGraph()
        for node in nodes:
            graph.add_node(node)
        for a, b in sorted(edges):
            graph.add_edge(a, b)
        found = graph.find_cycle()
        assert found == classify_dfs(nodes, edges), (
            f"trial {trial}: diverged on {nodes} / {sorted(edges)}"
        )
        cyclic += found is not None
    assert 0 < cyclic < 2000
