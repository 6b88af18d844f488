"""Incremental bitset reachability over growing directed graphs.

This is the performance core behind the Theorem-2 coherent-closure
machinery (:mod:`repro.core.coherence`) and the on-line closure window
(:mod:`repro.engine.closure_window`).  Nodes are interned to dense
integer ids; adjacency and the full descendant relation are kept as
Python ``int`` bitsets, so set algebra runs at machine-word speed and a
reachability query is a single ``&``.

The central operation is *online edge insertion* in the style of
Italiano's incremental DAG-reachability algorithm: ``add_edge(u, v)``
unions ``reach[v] | {v}`` into ``u`` and then walks *up* the predecessor
graph, updating exactly the ancestors whose descendant set actually
changes.  The cost is proportional to the affected region, not the whole
graph — the property the closure engine exploits to avoid re-running
reachability from scratch after every performed step.

Cycle detection is a by-product: inserting ``u -> v`` when ``u`` is
already reachable from ``v`` closes a cycle, and a witness path is
extracted from the adjacency bitsets on the spot.  After a cycle the
index is *terminal*: descendant sets are no longer maintained (a cyclic
closure is already a final verdict for every caller here).

Two convenience module functions cover the common batch shape — an
acyclic edge list, e.g. an execution's dependency order:
:func:`reachable_sets` (one reverse-topological sweep) and
:func:`transitive_pairs`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Sequence
from typing import TypeVar

N = TypeVar("N", bound=Hashable)

__all__ = [
    "ReachabilityIndex",
    "iter_bits",
    "reachable_sets",
    "transitive_pairs",
]


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` (lowest first)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ReachabilityIndex:
    """Dense-id digraph with incrementally maintained descendant bitsets.

    ``reach[i]`` is the bitset of every node reachable from node ``i``,
    *including* ``i`` itself (the reflexive-transitive closure), kept
    exact after every :meth:`add_edge` while the graph stays acyclic.

    ``edges`` counts the distinct edges inserted.
    """

    __slots__ = (
        "_id_of",
        "_nodes",
        "_adj",
        "_radj",
        "_reach",
        "_topo",
        "cycle_ids",
        "edges",
        "last_changed",
    )

    def __init__(self) -> None:
        self._id_of: dict[N, int] = {}
        self._nodes: list[N] = []
        self._adj: list[int] = []
        self._radj: list[int] = []
        self._reach: list[int] = []
        self._topo: list[int] | None = None
        self.cycle_ids: list[int] | None = None
        self.edges = 0
        self.last_changed = 0

    # ------------------------------------------------------------------
    # nodes
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: object) -> bool:
        return node in self._id_of

    @property
    def nodes(self) -> list[N]:
        return list(self._nodes)

    @property
    def cyclic(self) -> bool:
        return self.cycle_ids is not None

    def id_of(self, node: N) -> int:
        return self._id_of[node]

    def node_of(self, nid: int) -> N:
        return self._nodes[nid]

    def add_node(self, node: N) -> int:
        """Intern ``node`` (idempotent) and return its dense id."""
        nid = self._id_of.get(node)
        if nid is not None:
            return nid
        nid = len(self._nodes)
        self._id_of[node] = nid
        self._nodes.append(node)
        self._adj.append(0)
        self._radj.append(0)
        self._reach.append(1 << nid)
        return nid

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------

    def has_edge(self, u: N, v: N) -> bool:
        return bool(self._adj[self._id_of[u]] & (1 << self._id_of[v]))

    def reaches(self, u: N, v: N) -> bool:
        """Whether ``v`` is reachable from ``u`` (reflexively)."""
        return bool(self._reach[self._id_of[u]] & (1 << self._id_of[v]))

    def descendants_mask(self, node: N) -> int:
        """Bitset of the strict descendants of ``node``."""
        nid = self._id_of[node]
        return self._reach[nid] & ~(1 << nid)

    def ancestors_mask(self, node: N) -> int:
        """Bitset of the strict ancestors of ``node`` (linear scan over
        the descendant bitsets; no reverse index is maintained)."""
        bit = 1 << self._id_of[node]
        out = 0
        for nid, mask in enumerate(self._reach):
            if mask & bit:
                out |= 1 << nid
        return out & ~bit

    def add_edge(self, u: N, v: N) -> tuple[bool, list[int]]:
        """Insert edge ``u -> v`` and propagate reachability.

        Returns ``(acyclic, affected)`` where ``affected`` lists the ids
        whose descendant bitsets changed (``u`` first when it changed).
        When the edge closes a cycle the index records a witness in
        :attr:`cycle_ids` (a closed id path) and returns ``(False, [])``;
        descendant bitsets are then no longer maintained.
        """
        return self.add_edge_ids(self._id_of[u], self._id_of[v])

    def add_edge_ids(self, iu: int, iv: int) -> tuple[bool, list[int]]:
        bit_v = 1 << iv
        if self._adj[iu] & bit_v:
            return True, []
        self._adj[iu] |= bit_v
        self._radj[iv] |= 1 << iu
        self.edges += 1
        if iu == iv or self._reach[iv] & (1 << iu):
            self.cycle_ids = self._extract_cycle(iu, iv)
            return False, []
        reach = self._reach
        delta = reach[iv] & ~reach[iu]
        if not delta:
            return True, []
        reach[iu] |= delta
        affected = [iu]
        stack = [(iu, delta)]
        radj = self._radj
        while stack:
            nid, delta = stack.pop()
            preds = radj[nid]
            while preds:
                low = preds & -preds
                pid = low.bit_length() - 1
                preds ^= low
                fresh = delta & ~reach[pid]
                if fresh:
                    reach[pid] |= fresh
                    affected.append(pid)
                    stack.append((pid, fresh))
        return True, affected

    def add_edge_silent_ids(self, iu: int, iv: int) -> None:
        """Insert edge ``iu -> iv`` into the adjacency only, leaving the
        descendant bitsets stale.  Batch loading: insert everything
        silently, then call :meth:`recompute` once — O(n + m) sweeps
        instead of per-edge ancestor propagation (which is quadratic when
        seeding a large graph edge by edge)."""
        bit_v = 1 << iv
        if self._adj[iu] & bit_v:
            return
        self._adj[iu] |= bit_v
        self._radj[iv] |= 1 << iu
        self.edges += 1

    def recompute(self) -> bool:
        """Rebuild every descendant bitset from the adjacency in one
        reverse-topological sweep (Kahn's algorithm over predecessor
        popcounts).  Returns ``False`` — recording a witness in
        :attr:`cycle_ids` — when the graph is cyclic.  On success
        :attr:`last_changed` holds the bitmask of nodes whose descendant
        set actually changed."""
        n = len(self._nodes)
        adj = self._adj
        radj = self._radj
        indegree = [mask.bit_count() for mask in radj]
        ready = [i for i in range(n) if not indegree[i]]
        order: list[int] = []
        while ready:
            nid = ready.pop()
            order.append(nid)
            succs = adj[nid]
            while succs:
                low = succs & -succs
                sid = low.bit_length() - 1
                succs ^= low
                indegree[sid] -= 1
                if not indegree[sid]:
                    ready.append(sid)
        if len(order) < n:
            self.cycle_ids = self._cycle_among(
                [i for i in range(n) if indegree[i]]
            )
            return False
        reach = self._reach
        changed = 0
        for nid in reversed(order):
            mask = 1 << nid
            succs = adj[nid]
            while succs:
                low = succs & -succs
                mask |= reach[low.bit_length() - 1]
                succs ^= low
            if mask != reach[nid]:
                reach[nid] = mask
                changed |= 1 << nid
        self._topo = order
        self.last_changed = changed
        return True

    def refresh(
        self, new_edges: Sequence[tuple[int, int]]
    ) -> int | None:
        """Repair descendant bitsets after a *batch* of silent edge
        insertions ``new_edges`` (id pairs).

        Seeds each new edge's target bitset as a *delta* on its source,
        then walks the topological order saved by the last
        :meth:`recompute` in reverse, merging accumulated deltas into
        flagged nodes and pushing only the genuinely *fresh* bits up to
        predecessors — every bit crosses every edge at most once, unlike
        a full successor re-derivation per touched node.  One sweep
        resolves every cascade that runs forward along the saved order;
        edges pointing backward along it defer their predecessors to the
        next sweep.  Cost is proportional to the new information moved,
        plus one O(n) flag scan per sweep.

        Returns the bitmask of changed nodes, or ``None`` when the new
        edges closed a cycle (witness in :attr:`cycle_ids`): a new cycle
        necessarily contains a new edge ``u -> v``, and at the (always
        reached — the sweeps are monotone and bounded) fixpoint ``v``
        then reaches ``u``, so testing the new edges afterwards detects
        it.
        """
        topo = self._topo
        n = len(self._nodes)
        if topo is None or len(topo) != n:
            if not self.recompute():
                return None
            return (1 << n) - 1
        radj = self._radj
        reach = self._reach
        delta: list[int] = [0] * n
        flags = bytearray(n)
        pending = 0
        for iu, iv in new_edges:
            delta[iu] |= reach[iv]
            if not flags[iu]:
                flags[iu] = 1
                pending += 1
        changed = 0
        while pending:
            for pos in range(n - 1, -1, -1):
                nid = topo[pos]
                if not flags[nid]:
                    continue
                flags[nid] = 0
                pending -= 1
                fresh = delta[nid] & ~reach[nid]
                delta[nid] = 0
                if fresh:
                    reach[nid] |= fresh
                    changed |= 1 << nid
                    preds = radj[nid]
                    while preds:
                        low = preds & -preds
                        pid = low.bit_length() - 1
                        preds ^= low
                        delta[pid] |= fresh
                        if not flags[pid]:
                            flags[pid] = 1
                            pending += 1
        # The sweeps above are monotone and bounded, so they terminate
        # even around a cycle; a new cycle necessarily contains one of
        # the new edges, whose target then reaches its source.
        for iu, iv in new_edges:
            if reach[iv] & (1 << iu):
                self.cycle_ids = self._extract_cycle(iu, iv)
                return None
        return changed

    def _cycle_among(self, leftover: list[int]) -> list[int]:
        """A closed witness cycle within ``leftover`` (the nodes Kahn's
        algorithm could not remove — each has a predecessor among them),
        found by walking predecessors until a node repeats."""
        mask = 0
        for nid in leftover:
            mask |= 1 << nid
        pos: dict[int, int] = {}
        path: list[int] = []
        cur = leftover[0]
        while cur not in pos:
            pos[cur] = len(path)
            path.append(cur)
            preds = self._radj[cur] & mask
            cur = (preds & -preds).bit_length() - 1
        cycle = path[pos[cur] :]
        # path walks predecessors, so reverse it for a forward cycle.
        return cycle[::-1] + [cycle[-1]]

    def _extract_cycle(self, iu: int, iv: int) -> list[int]:
        """A closed id path ``[iu, iv, ..., iu]`` along adjacency edges,
        found by BFS from ``iv`` back to ``iu``."""
        if iu == iv:
            return [iu, iu]
        parent: dict[int, int] = {iv: -1}
        queue: deque[int] = deque([iv])
        while queue:
            nid = queue.popleft()
            succs = self._adj[nid]
            while succs:
                low = succs & -succs
                sid = low.bit_length() - 1
                succs ^= low
                if sid not in parent:
                    parent[sid] = nid
                    if sid == iu:
                        path = [iu]
                        while path[-1] != iv:
                            path.append(parent[path[-1]])
                        path.reverse()  # [iv, ..., iu] along adjacency
                        return [iu] + path
                    queue.append(sid)
        raise AssertionError("reachability index inconsistent: no cycle path")

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------

    def iter_edges(self):
        """Yield every inserted edge as a node pair."""
        nodes = self._nodes
        for nid, succs in enumerate(self._adj):
            u = nodes[nid]
            for sid in iter_bits(succs):
                yield u, nodes[sid]

    def pairs(self) -> set[tuple[N, N]]:
        """The strict reachability relation as an explicit pair set (one
        bitset sweep; output-linear instead of per-node graph searches)."""
        nodes = self._nodes
        out: set[tuple[N, N]] = set()
        for nid, mask in enumerate(self._reach):
            u = nodes[nid]
            for did in iter_bits(mask & ~(1 << nid)):
                out.add((u, nodes[did]))
        return out

    # ------------------------------------------------------------------
    # copying
    # ------------------------------------------------------------------

    def clone(self) -> "ReachabilityIndex":
        """An independent copy (bitsets are immutable ints, so this is a
        shallow list/dict copy — O(n) pointer work)."""
        other = ReachabilityIndex.__new__(ReachabilityIndex)
        other._id_of = dict(self._id_of)
        other._nodes = list(self._nodes)
        other._adj = list(self._adj)
        other._radj = list(self._radj)
        other._reach = list(self._reach)
        other._topo = self._topo
        other.last_changed = self.last_changed
        other.cycle_ids = list(self.cycle_ids) if self.cycle_ids else None
        other.edges = self.edges
        return other


# ---------------------------------------------------------------------------
# batch helpers
# ---------------------------------------------------------------------------


def reachable_sets(
    order: Sequence[N], edges: Iterable[tuple[N, N]]
) -> dict[N, int]:
    """Strict-descendant bitsets for an edge list whose edges all point
    forward along ``order`` (e.g. an execution's dependency edges).

    One reverse sweep: ``O((n + m) * n / 64)`` words total, no graph
    object, no per-node searches.  Bit ``j`` refers to ``order[j]``.
    """
    index = {node: i for i, node in enumerate(order)}
    succs: list[int] = [0] * len(order)
    for u, v in edges:
        iu, iv = index[u], index[v]
        if iu >= iv:
            raise ValueError(
                f"edge {(u, v)!r} does not point forward along the order"
            )
        succs[iu] |= 1 << iv
    reach: list[int] = [0] * len(order)
    for i in range(len(order) - 1, -1, -1):
        mask = succs[i]
        acc = mask
        for j in iter_bits(mask):
            acc |= reach[j]
        reach[i] = acc
    return {node: reach[i] for node, i in index.items()}


def transitive_pairs(
    order: Sequence[N], edges: Iterable[tuple[N, N]]
) -> set[tuple[N, N]]:
    """The transitive closure of ``edges`` as explicit pairs, for edges
    pointing forward along ``order`` (see :func:`reachable_sets`)."""
    reach = reachable_sets(order, edges)
    out: set[tuple[N, N]] = set()
    for node, mask in reach.items():
        for j in iter_bits(mask):
            out.add((node, order[j]))
    return out
