"""The one cycle finder: wait-for graphs and serialization graphs.

Every §6 scheduler decides who waits and who rolls back by finding a
cycle, and the offline checkers decide serializability the same way.
One iterative colour DFS over a successor map serves both:
``WaitGraph.find_cycle`` runs it over an insertion-ordered graph built
for one question (``nx.find_cycle`` spent most of its time in dispatch
and views), and ``WaitsFor`` runs it in place over the runtime's
relations, from the waiter alone — no graph is built per blocked
request or per commit that waits on a dependency.

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


def _find_cycle(succ: Callable, roots: Iterable[Hashable]) -> list | None:
    """The one cycle search: an iterative colour DFS over ``succ`` (node
    -> its successors, in order; asked once per node reached) from each
    of ``roots`` in turn.  Returns the first cycle closed, from the node
    the back edge reaches, or ``None``."""
    done: set[Hashable] = set()
    for root in roots:
        if root in done:
            continue
        path = [root]
        on_path = {root}
        successors = [iter(succ(root))]
        while successors:
            for head in successors[-1]:
                if head in on_path:
                    return path[path.index(head):]
                if head not in done:
                    path.append(head)
                    on_path.add(head)
                    successors.append(iter(succ(head)))
                    break
            else:
                node = path.pop()
                on_path.remove(node)
                done.add(node)
                successors.pop()
    return None


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
            return _find_cycle(succ.__getitem__, succ)
        if source not in succ:
            return None
        return _find_cycle(succ.__getitem__, (source,))

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

    The *grant relation* is every wait recorded by :meth:`wait`, plus
    the rows a :class:`~repro.engine.locks.LockManager` attached to this
    relation keeps equal to its queues.  The
    *dependency relation* is the owner's commit dependencies
    (``dependencies(name)`` is the set of names ``name`` must see commit
    first), plus — while a waiter asks — its wait on owners that have
    ``finished``, which can only commit or abort.  A cycle's victim is
    its youngest member: the largest ``priority`` key.
    """

    __slots__ = ("waits", "_dependencies", "_finished", "_priority")

    def __init__(self, dependencies: Callable[[], Iterable],
                 finished: Callable, priority: Callable) -> None:
        # waiter -> its blockers, sorted: their order decides the cycle
        # found from a waiter, hence the victim.
        self.waits: dict[Hashable, list] = {}
        self._dependencies = dependencies
        self._finished = finished
        self._priority = priority

    def wait(
        self, waiter: Hashable, blockers: Iterable, cause: str
    ) -> tuple[list, str] | None:
        """Record that ``waiter`` cannot proceed until ``blockers`` have,
        and return the cycle this closes with its cause, or ``None``.
        Every cycle is broken when found, so the grant relation was
        acyclic before this wait and a new cycle passes through
        ``waiter``: it is searched from there, in place, and reported
        from ``waiter`` on (a cycle there is ``cause``'s).  Only if
        there is none and a blocker has finished, the dependency
        relation from ``waiter``."""
        waits = self.waits
        blockers = waits[waiter] = sorted(blockers)
        cycle = _find_cycle(lambda name: waits.get(name, ()), (waiter,))
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
        ``source`` also waiting on the ``finished`` owners given.

        Searched in place from ``source``, asking only the names it
        reaches: each one's dependencies sorted, then, for ``source``,
        the ``finished`` owners sorted, a repeated name dropped — the
        successors, in order, of a ``WaitGraph`` built with
        ``add_waits`` from every name's dependencies and then
        ``add_waits(source, finished)``, so the cycle is the one that
        graph's ``find_cycle(source)`` returns."""
        dependencies = self._dependencies
        finished = sorted(finished)

        def successors(name: Hashable) -> Iterable:
            heads = sorted(dependencies(name))
            if name == source and finished:
                return dict.fromkeys(heads + finished)
            return heads

        return _find_cycle(successors, (source,))

    def victim(self, cycle: Iterable[Hashable]) -> Hashable:
        """The youngest member of ``cycle``."""
        return max(cycle, key=self._priority)
