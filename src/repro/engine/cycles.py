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
edges are ignored.

One edge-order rule: a set of blockers enters through ``add_waits``,
which inserts it sorted.  Set iteration order varies with the process
hash seed, so a set inserted as iterated makes the surfaced cycle — and
the victim, and the whole trajectory — depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

__all__ = ["WaitGraph"]


class WaitGraph:
    """A minimal insertion-ordered digraph supporting ``find_cycle``."""

    __slots__ = ("_succ",)

    def __init__(
        self, edges: Iterable[tuple[Hashable, Hashable]] = ()
    ) -> None:
        self._succ: dict[Hashable, dict[Hashable, None]] = {}
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
