"""WaitGraph.find_cycle must surface exactly the cycle nx.find_cycle does.

*Which* cycle is surfaced decides rollback victims, so the differentials
here assert identical node lists, not merely "both found some cycle":
against networkx (the oracle the wait graph was built to match) and
against the transaction-graph DFS the audit classifier used before it
shared this finder (nodes registered first, edges sorted).  The same
holds for strongly connected components, whose numbering Lemma 1's
witness depends on.

``WaitsFor``, the runtimes' one waits-for relation, is tested last: its
grant relation surfaces the cycle and victim a plain ``WaitGraph`` of
the recorded waits does, a wait on a finished owner closes a cycle
through commit dependencies when its waiter asks, and the same shape
with a live owner does not.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.engine.cycles import WaitGraph, WaitsFor


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


# ---------------------------------------------------------------------------
# WaitsFor
# ---------------------------------------------------------------------------


def waits_for(deps=None, finished=()):
    """A relation over commit dependencies ``deps`` (name -> names) whose
    ``finished`` owners are given; age is the name, so the victim is the
    largest name."""
    deps = deps or {}
    finished = set(finished)
    relation = WaitsFor(
        lambda name: deps.get(name, ()), finished.__contains__,
        lambda name: name,
    )
    return relation, finished


def test_grant_cycles_match_a_wait_graph_of_the_recorded_waits():
    """With every owner live, each ``wait`` finds the cycle (and so the
    victim) that a ``WaitGraph`` of all recorded waits, in recording
    order, finds — the whole-graph search the relation once ran —
    rotated to start at the waiter: every cycle is broken when found,
    so the one a wait closes passes through its waiter."""
    rng = random.Random(43)
    nodes = [f"t{i}" for i in range(6)]
    cycles = 0
    for _ in range(300):
        relation, _ = waits_for()
        recorded: dict[str, set] = {}
        for _ in range(rng.randint(1, 8)):
            waiter = rng.choice(nodes)
            blockers = set(rng.sample(nodes, rng.randint(1, 3))) - {waiter}
            if not blockers:
                continue
            recorded[waiter] = blockers
            graph = WaitGraph()
            for name, blocking in recorded.items():
                graph.add_waits(name, blocking)
            expected = graph.find_cycle()
            found = relation.wait(waiter, blockers, "breakpoint-wait")
            if expected is None:
                assert found is None
                continue
            start = expected.index(waiter)
            rotated = expected[start:] + expected[:start]
            assert found == (rotated, "breakpoint-wait")
            assert relation.victim(found[0]) == max(expected)
            cycles += 1
            break
    assert cycles > 50


def test_wait_on_a_finished_owner_closes_a_dependency_cycle():
    """``t5`` waits on the finished ``creditor0``, which commit-depends
    on ``t5``: a deadlock, found when ``t5`` asks."""
    relation, _ = waits_for(
        deps={"creditor0": {"t5"}}, finished={"creditor0"}
    )
    found = relation.wait("t5", {"creditor0"}, "breakpoint-wait")
    assert found == (["t5", "creditor0"], "commit-dependency")
    assert relation.victim(found[0]) == "t5"


def test_longer_dependency_cycles_through_a_finished_owner():
    """The golden ``mla-prevent:segment`` shape: ``t0`` waits on the
    finished ``t4`` and ``t4 -> t3 -> t6 -> t0`` are commit
    dependencies; the youngest member is the victim."""
    relation, _ = waits_for(
        deps={"t4": {"t3"}, "t3": {"t6"}, "t6": {"t0"}}, finished={"t4"},
    )
    found = relation.wait("t0", {"t4"}, "breakpoint-wait")
    assert found == (["t0", "t4", "t3", "t6"], "commit-dependency")
    assert relation.victim(found[0]) == "t6"



def test_dependency_cycles_match_a_wait_graph_of_every_dependency():
    """The in-place search from ``source`` finds the cycle (and so the
    victim) that a ``WaitGraph`` of every name's dependencies, then
    ``source``'s wait on the ``finished`` owners, finds from ``source``
    — the graph the relation once built on every commit wait."""
    rng = random.Random(47)
    nodes = [f"t{i}" for i in range(7)]
    cycles = 0
    for _ in range(2000):
        deps = {
            name: set(rng.sample(nodes, rng.randint(0, 3))) - {name}
            for name in rng.sample(nodes, rng.randint(0, len(nodes)))
        }
        source = rng.choice(nodes)
        finished = rng.sample(nodes, rng.randint(0, 3))
        relation, _ = waits_for(deps=deps)
        graph = WaitGraph()
        for name, blocking in deps.items():
            graph.add_waits(name, blocking)
        graph.add_waits(source, finished)
        expected = graph.find_cycle(source=source)
        assert relation.dependency_cycle(source, finished) == expected
        cycles += expected is not None
    assert 200 < cycles < 1800

def test_the_same_shape_with_a_live_owner_is_no_cycle():
    """A live owner can step to a breakpoint and release its waiter, and
    its own commit dependency does not stop it stepping: the union of
    waits and dependencies has a cycle here, the relation has none."""
    deps = {"creditor0": {"t5"}}
    relation, _ = waits_for(deps=deps)
    assert relation.wait("t5", {"creditor0"}, "breakpoint-wait") is None
    assert relation.dependency_cycle("t5") is None
    assert relation.dependency_cycle("creditor0") is None
    union = WaitGraph([("t5", "creditor0"), ("creditor0", "t5")])
    assert union.find_cycle() is not None


def test_a_wait_joins_the_dependency_relation_while_its_waiter_asks():
    """A wait recorded on a live owner is stale once the owner moves
    on, and a commit searches the commit dependencies alone; the cycle
    is found when the waiter is next attended and asks again."""
    relation, finished = waits_for(deps={"c": {"t"}})
    assert relation.wait("t", {"c"}, "retention") is None
    finished.add("c")
    assert relation.dependency_cycle("c") is None
    assert relation.wait("t", {"c"}, "retention") == (
        ["t", "c"], "commit-dependency",
    )


def test_waits_are_recorded_sorted_in_recording_order():
    """The rows an engine snapshot carries: blockers sorted, waiters in
    the order they first waited."""
    relation, _ = waits_for(finished={"b"})
    relation.wait("x", {"b", "a"}, "breakpoint-wait")
    relation.wait("a", {"c"}, "breakpoint-wait")
    relation.wait("x", {"c"}, "breakpoint-wait")
    assert list(relation.waits.items()) == [
        ("x", ["c"]), ("a", ["c"]),
    ]
    relation.done("x")
    relation.done("nobody")
    assert list(relation.waits) == ["a"]
