"""The one cycle finder: wait-for graphs and serialization graphs.

Every §6 scheduler decides who waits and who rolls back by finding a
cycle, and the offline checkers decide serializability the same way.
The graphs are nearly always tiny (a handful of live transactions) but
are rebuilt and searched on *every* blocked request, so this is a plain
insertion-ordered successor dict searched by an iterative colour DFS —
``nx.find_cycle`` spent most of its time in dispatch and views.

Exactness matters: *which* cycle is surfaced decides which victim is
rolled back, and the service/library bit-identical differentials pin
that choice.  The DFS returns exactly the cycle ``nx.find_cycle``
returns on an identically built ``nx.DiGraph`` (roots in node order,
successors in edge insertion order; a differential test drives both
over random digraphs).  Node order is first appearance (``add_node`` or
an edge endpoint), successor order is edge insertion order, duplicate
edges are ignored.  ``components`` numbers strongly connected components
in the order ``nx.strongly_connected_components`` yields them on the
same graph, which is what keeps Lemma 1's witnesses (built on it in
:mod:`repro.core.extension`) what they were when networkx built them.

One edge-order rule: a set of blockers enters through ``add_waits``,
which inserts it sorted.  Set iteration order varies with the process
hash seed, so a set inserted as iterated makes the surfaced cycle — and
the victim, and the whole trajectory — depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable

__all__ = ["WaitGraph", "WaitsFor"]


class WaitGraph:
    """A minimal insertion-ordered digraph: cycle search and strongly
    connected components."""

    __slots__ = ("_succ",)

    def __init__(
        self,
        edges: Iterable[tuple[Hashable, Hashable]] = (),
        nodes: Iterable[Hashable] = (),
    ) -> None:
        """``nodes`` are added first, in order, then ``edges``."""
        self._succ: dict[Hashable, dict[Hashable, None]] = {}
        for node in nodes:
            self.add_node(node)
        for u, v in edges:
            self.add_edge(u, v)

    def add_node(self, node: Hashable) -> None:
        self._succ.setdefault(node, {})

    def add_edge(self, u: Hashable, v: Hashable) -> None:
        succ = self._succ
        out = succ.get(u)
        if out is None:
            out = succ[u] = {}
        if v not in succ:
            succ[v] = {}
        out[v] = None

    @property
    def nodes(self) -> list:
        """Every node, in first-appearance order."""
        return list(self._succ)

    def successors(self, node: Hashable):
        """``node``'s successors, in edge insertion order."""
        return self._succ[node].keys()

    def add_waits(self, waiter: Hashable, blockers: Iterable[Hashable]) -> None:
        """``waiter -> blocker`` for every blocker, in sorted order (see
        the module docstring: the victim must not depend on set order)."""
        for blocker in sorted(blockers):
            self.add_edge(waiter, blocker)

    def find_cycle(self, source: Hashable | None = None) -> list | None:
        """One directed cycle as its node list, or ``None``.

        With ``source`` the search starts (only) there; a source absent
        from the graph finds nothing.  Same cycle as ``nx.find_cycle``
        (whose edges are the consecutive pairs of this list, closed).
        """
        succ = self._succ
        if source is None:
            roots: Iterable[Hashable] = succ
        elif source in succ:
            roots = (source,)
        else:
            return None
        done: set[Hashable] = set()
        for root in roots:
            if root in done:
                continue
            path = [root]
            on_path = {root}
            successors = [iter(succ[root])]
            while successors:
                for head in successors[-1]:
                    if head in on_path:
                        return path[path.index(head):]
                    if head not in done:
                        path.append(head)
                        on_path.add(head)
                        successors.append(iter(succ[head]))
                        break
                else:
                    node = path.pop()
                    on_path.remove(node)
                    done.add(node)
                    successors.pop()
        return None

    def components(self) -> list[set]:
        """The strongly connected components, each a set of nodes.

        Iterative Tarjan with Nuutila's modification, as networkx runs
        it: roots in node order, successors in edge insertion order, and
        a component comes out only after every component it reaches (so
        the list reversed is a topological order of the condensation).
        """
        succ = self._succ
        preorder: dict[Hashable, int] = {}
        lowlink: dict[Hashable, int] = {}
        found: set[Hashable] = set()
        pending: list[Hashable] = []
        unvisited = {node: iter(heads) for node, heads in succ.items()}
        out: list[set] = []
        for root in succ:
            if root in found:
                continue
            path = [root]
            while path:
                node = path[-1]
                rank = preorder.setdefault(node, len(preorder) + 1)
                for head in unvisited[node]:
                    if head not in preorder:
                        path.append(head)
                        break
                else:
                    low = rank
                    for head in succ[node]:
                        if head not in found:
                            seen = preorder[head]
                            low = min(low, lowlink[head] if seen > rank else seen)
                    lowlink[node] = low
                    path.pop()
                    if low == rank:
                        component = {node}
                        while pending and preorder[pending[-1]] > rank:
                            component.add(pending.pop())
                        found |= component
                        out.append(component)
                    else:
                        pending.append(node)
        return out


class WaitsFor:
    """Who cannot proceed until whom, and the one victim rule: the
    waits-for relation of a runtime (DESIGN.md §4b item 8).

    The *grant relation* is every wait recorded by :meth:`wait`.  The
    *dependency relation* is the owner's commit dependencies
    (``dependencies()`` yields each name with the names it must see
    commit first), plus — while a waiter asks — its wait on owners that
    have ``finished``, which can only commit or abort.  A cycle's victim
    is its youngest member: the largest ``priority`` key.
    """

    __slots__ = ("waits", "_dependencies", "_finished", "_priority")

    def __init__(self, dependencies: Callable[[], Iterable],
                 finished: Callable, priority: Callable) -> None:
        # waiter -> its blockers, sorted, in recording order: that order
        # decides the cycle found, hence the victim.
        self.waits: dict[Hashable, list] = {}
        self._dependencies = dependencies
        self._finished = finished
        self._priority = priority

    def wait(
        self, waiter: Hashable, blockers: Iterable, cause: str
    ) -> tuple[list, str] | None:
        """Record that ``waiter`` cannot proceed until ``blockers`` have,
        and return the cycle this closes with its cause, or ``None``.
        The grant relation is searched whole (a cycle there is
        ``cause``'s); only if it is acyclic and a blocker has finished,
        the dependency relation from ``waiter``."""
        blockers = self.waits[waiter] = sorted(blockers)
        cycle = WaitGraph(
            (name, blocker)
            for name, blocking in self.waits.items()
            for blocker in blocking
        ).find_cycle()
        if cycle is not None:
            return cycle, cause
        finished = [name for name in blockers if self._finished(name)]
        if finished and (cycle := self.dependency_cycle(waiter, finished)):
            return cycle, "commit-dependency"
        return None

    def done(self, name: Hashable) -> None:
        """``name`` stepped, committed or restarted: it waits no more."""
        self.waits.pop(name, None)

    def dependency_cycle(self, source: Hashable, finished=()) -> list | None:
        """A cycle through ``source`` of the commit dependencies, with
        ``source`` also waiting on the ``finished`` owners given."""
        graph = WaitGraph()
        for name, blocking in self._dependencies():
            graph.add_waits(name, blocking)
        graph.add_waits(source, finished)
        return graph.find_cycle(source=source)

    def victim(self, cycle: Iterable[Hashable]) -> Hashable:
        """The youngest member of ``cycle``."""
        return max(cycle, key=self._priority)
