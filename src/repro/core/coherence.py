"""Coherent relations and the coherent closure (Section 4.2).

Let ``pi`` be a k-nest for a transaction set ``T`` and ``beta`` a k-level
interleaving specification (bundled here as an
:class:`~repro.core.interleaving.InterleavingSpec`).  A relation ``R`` on
the union of all step sets is *coherent* when

(a) ``R`` contains each per-transaction total order ``<=_t``, and

(b) whenever ``level(t, t') = i``, steps ``a <_t a'`` lie in the same
    ``B_t(i)``-segment, and ``b`` is a step of ``t'``:
    ``(a, b) in R`` implies ``(a', b) in R``.

Intuitively (b) says a foreign step that follows any part of a segment must
follow the whole rest of the segment — i.e. it cannot land *inside* the
segment.  The *coherent closure* of ``R`` is the smallest coherent relation
containing ``R``; Theorem 2 shows an execution is correctable exactly when
the coherent closure of its dependency order is a partial order (acyclic).

Following the paper's own usage (its worked example states that the
coherent closure of a relation *is* a transitively closed partial order),
we compute the closure as the joint fixpoint of rule (b) **and**
transitivity.  Acyclicity of this fixpoint coincides with acyclicity of the
rule-(b)-only closure, because transitive edges are sound consequences of
any coherent total order extension, but the joint fixpoint is the object
Lemma 1's extension algorithm needs.

Two implementations are provided:

* :func:`coherent_closure_pairs` — an exact pair-set fixpoint with
  incremental transitive closure.  Quadratic in the number of steps; use
  it for witness construction and small examples.
* :func:`coherent_closure` — a scalable fixpoint over
  :class:`ClosureEngine`, which keeps only *generating* edges and
  maintains reachability **incrementally** (Italiano-style online edge
  insertion over dense bitsets, see :mod:`repro.core.reach`) while a
  dirty-segment worklist saturates rule (b).  Each inserted edge costs
  O(affected) instead of a full reachability recomputation; use it for
  checking large schedules (experiment E1) and for the on-line closure
  window (:mod:`repro.engine.closure_window`), which keeps one engine
  alive across performed steps.

Because rule (b) fires on reachability and the chain ``a <_t segment_last``
is always present, it suffices to propagate the single pair
``(segment_last(a, i), b)`` for each cross pair ``(a, b)``: the remaining
``(a', b)`` pairs follow transitively.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from typing import TypeVar

from repro.core.interleaving import InterleavingSpec
from repro.core.reach import ReachabilityIndex, iter_bits
from repro.errors import NotAPartialOrderError

S = TypeVar("S", bound=Hashable)

__all__ = [
    "Violation",
    "ClosureResult",
    "ClosureEngine",
    "coherence_violations",
    "is_coherent",
    "coherent_closure_pairs",
    "coherent_closure",
    "is_coherent_total_order",
    "total_order_violations",
]


@dataclass(frozen=True)
class Violation:
    """One witnessed failure of coherence.

    ``kind`` is ``"missing-order"`` for condition (a) (a pair of some
    ``<=_t`` absent from ``R``) or ``"segment-break"`` for condition (b)
    (a foreign step allowed inside a segment).  ``detail`` carries the
    witnessing steps.
    """

    kind: str
    detail: tuple


class ClosureResult:
    """Outcome of a coherent-closure computation.

    Attributes
    ----------
    is_partial_order:
        ``True`` iff the closure is acyclic — by Theorem 2, iff the seed
        execution is correctable.
    cycle:
        When cyclic, one witnessing cycle as a list of steps (closed:
        first == last); ``None`` otherwise.
    index:
        The :class:`~repro.core.reach.ReachabilityIndex` the closure was
        computed in.  Its generating edges (``index.iter_edges()``:
        chain edges of every ``<=_t``, the seed pairs, and all rule-(b)
        edges added during saturation) have the coherent closure as
        their reachability relation.  Results produced by a live
        :class:`~repro.engine.closure_window.ClosureWindow` share the
        window's persistent index, so ``pairs`` reflects the state at
        *access* time; batch results own their index.
    """

    __slots__ = (
        "is_partial_order",
        "cycle",
        "iterations",
        "edges_added",
        "index",
    )

    def __init__(
        self,
        is_partial_order: bool,
        cycle: list | None = None,
        iterations: int = 0,
        edges_added: int = 0,
        index: ReachabilityIndex | None = None,
    ) -> None:
        self.is_partial_order = is_partial_order
        self.cycle = cycle
        self.iterations = iterations
        self.edges_added = edges_added
        self.index = index

    def _acyclic_index(self) -> ReachabilityIndex:
        if self.index is None or self.index.cyclic:
            raise NotAPartialOrderError(
                f"coherent closure contains a cycle: {self.cycle}"
            )
        return self.index

    def pairs(self) -> set[tuple]:
        """Materialise the closure as an explicit pair set: a single
        bitset sweep over the reachability index, output-linear.  A
        cyclic closure is not an order and raises
        :class:`~repro.errors.NotAPartialOrderError`."""
        return self._acyclic_index().pairs()

    def ancestors(self, node) -> set:
        """All steps that precede ``node`` in the closure (a bitset scan;
        raises on a cyclic closure, like :meth:`pairs`)."""
        index = self._acyclic_index()
        return {index.node_of(i) for i in iter_bits(index.ancestors_mask(node))}

    def require_partial_order(self) -> None:
        if not self.is_partial_order:
            raise NotAPartialOrderError(
                f"coherent closure contains a cycle: {self.cycle}"
            )


# ---------------------------------------------------------------------------
# exact definition checks
# ---------------------------------------------------------------------------


def coherence_violations(
    spec: InterleavingSpec, relation: Iterable[tuple[S, S]]
) -> list[Violation]:
    """All violations of coherence conditions (a) and (b) by ``relation``.

    ``relation`` is taken literally (no implicit transitive closure), to
    match the paper's examples where relations are given as explicit
    transitively closed pair sets.
    """
    pairs = set(relation)
    violations: list[Violation] = []
    # (a) R contains each <=_t (all ordered pairs, not only consecutive).
    for txn in spec.transactions:
        elems = spec.description(txn).elements
        for i, a in enumerate(elems):
            for b in elems[i + 1 :]:
                if (a, b) not in pairs:
                    violations.append(Violation("missing-order", (a, b)))
    # (b) segment atomicity.
    for a, b in pairs:
        ta = spec.transaction_of(a)
        tb = spec.transaction_of(b)
        if ta == tb:
            continue
        level = spec.level(ta, tb)
        desc = spec.description(ta)
        lo, hi = desc.segment_bounds(level, a)
        pos = desc.index_of(a)
        for later in desc.elements[pos + 1 : hi + 1]:
            if (later, b) not in pairs:
                violations.append(Violation("segment-break", (a, later, b)))
    return violations


def is_coherent(
    spec: InterleavingSpec, relation: Iterable[tuple[S, S]]
) -> bool:
    """Whether ``relation`` is coherent for the specification."""
    return not coherence_violations(spec, relation)


# ---------------------------------------------------------------------------
# exact closure (pair-set fixpoint)
# ---------------------------------------------------------------------------


def coherent_closure_pairs(
    spec: InterleavingSpec, seed: Iterable[tuple[S, S]]
) -> tuple[set[tuple[S, S]], bool]:
    """The coherent closure as an explicit, transitively closed pair set.

    Returns ``(pairs, is_partial_order)``.  The fixpoint always runs to
    completion, so when the closure is cyclic the returned set contains the
    reflexive pairs ``(x, x)`` witnessing the cycles — exactly what the
    paper's R3/R4 example inspects.
    """
    succ: dict[S, set[S]] = defaultdict(set)
    pred: dict[S, set[S]] = defaultdict(set)
    worklist: deque[tuple[S, S]] = deque()

    def add_edge(u: S, v: S) -> None:
        if v in succ[u]:
            return
        sources = pred[u] | {u}
        targets = succ[v] | {v}
        for x in sources:
            fresh = targets - succ[x]
            if not fresh:
                continue
            succ[x].update(fresh)
            for y in fresh:
                pred[y].add(x)
                worklist.append((x, y))

    for u, v in spec.chain_pairs():
        add_edge(u, v)
    for u, v in seed:
        add_edge(u, v)
    while worklist:
        x, y = worklist.popleft()
        if x == y:
            continue
        tx = spec.transaction_of(x)
        ty = spec.transaction_of(y)
        if tx == ty:
            continue
        w = spec.segment_last(x, spec.level(tx, ty))
        add_edge(w, y)

    acyclic = all(x not in targets for x, targets in succ.items())
    pairs = {(x, y) for x, targets in succ.items() for y in targets}
    return pairs, acyclic


# ---------------------------------------------------------------------------
# scalable closure (incremental bitset engine)
# ---------------------------------------------------------------------------


class _Segment:
    """One ``B_t(level)``-segment tracked by the engine.

    Only the dense ids of the *first* and current *last* member are kept.
    The first member reaches every other member through the chain edges,
    so ``reach[first]`` **is** the union of all members' descendant sets
    whenever the index is exact — no per-segment union needs maintaining,
    and the rule-(b) obligation is the single bitset expression
    ``reach[first] & partners & ~reach[last]``.
    """

    __slots__ = ("txn", "level", "first", "last", "dirty")

    def __init__(self, txn, level: int, nid: int) -> None:
        self.txn = txn
        self.level = level
        self.first = nid
        self.last = nid
        self.dirty = False

    def copy(self) -> "_Segment":
        seg = _Segment(self.txn, self.level, self.first)
        seg.last = self.last
        seg.dirty = self.dirty
        return seg


class ClosureEngine:
    """Incrementally maintained coherent closure over a growing step set.

    Steps arrive per transaction in order (:meth:`add_step`, carrying the
    breakpoint level of the gap before them); seed edges arrive via
    :meth:`add_edge`.  A :class:`~repro.core.reach.ReachabilityIndex`
    keeps exact descendant bitsets under online edge insertion, and a
    dirty-segment worklist applies rule (b): for a ``B_t(i)``-segment
    with last step ``w``, every partner step reachable from the segment's
    union but not from ``w`` gets the edge ``w -> b``.  Segment queries
    are plain bitset subtractions, and only segments whose members'
    reachability actually changed are revisited.

    The engine is *monotone*: segments only extend at their open tail and
    partner masks only grow, so every previously derived edge stays a
    sound consequence as more steps arrive.  This is what lets the
    on-line closure window keep one engine alive across performed steps
    instead of re-saturating from scratch.  Once a cycle appears the
    engine is terminal (:attr:`cycle` holds a closed witness path).
    """

    __slots__ = (
        "nest",
        "k",
        "index",
        "_cids",
        "_class_masks",
        "_segs",
        "_open",
        "_node_segs",
        "_last_step",
        "_pending",
        "cycle",
        "edges_added",
        "iterations",
    )

    def __init__(self, nest) -> None:
        self.nest = nest
        self.k = nest.k
        self.index = ReachabilityIndex()
        self._cids: dict = {}
        self._class_masks: list[dict[int, int]] = [
            {} for _ in range(self.k)
        ]
        self._segs: list[_Segment] = []
        self._open: dict = {}
        self._node_segs: list[tuple[int, ...]] = []
        self._last_step: dict = {}
        self._pending: deque[int] = deque()
        self.cycle: list | None = None
        self.edges_added = 0
        self.iterations = 0

    @property
    def cyclic(self) -> bool:
        return self.cycle is not None

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------

    def register(self, step: S) -> None:
        """Pre-intern ``step`` so dense ids follow a caller-chosen order
        (ids otherwise follow :meth:`add_step` arrival order)."""
        nid = self.index.add_node(step)
        while len(self._node_segs) <= nid:
            self._node_segs.append(())

    def add_step(
        self,
        txn,
        step: S,
        cut_level: int | None = None,
        defer: bool = False,
    ) -> None:
        """Append ``step`` to ``txn``'s order.

        ``cut_level`` is the minimum breakpoint level declared for the
        gap *before* this step (``None`` for the first step or an uncut
        gap): the step starts a new segment at every tracked level
        ``>= cut_level`` and extends the open segment elsewhere.  The
        same-transaction chain edge is added automatically.

        With ``defer=True`` the chain edge goes in silently (adjacency
        only); the caller must finish loading with :meth:`bootstrap`.
        """
        nid = self.index.add_node(step)
        while len(self._node_segs) <= nid:
            self._node_segs.append(())
        bit = 1 << nid
        cids = self._cids.get(txn)
        if cids is None:
            nest = self.nest
            cids = tuple(
                nest.class_id(level, txn) for level in range(1, self.k + 1)
            )
            self._cids[txn] = cids
        for level0, cid in enumerate(cids):
            masks = self._class_masks[level0]
            masks[cid] = masks.get(cid, 0) | bit
        segs = self._segs
        open_list = self._open.get(txn)
        node_segs = []
        if open_list is None:
            open_list = []
            for level0 in range(self.k - 1):
                si = len(segs)
                segs.append(_Segment(txn, level0 + 1, nid))
                open_list.append(si)
                node_segs.append(si)
            self._open[txn] = open_list
        else:
            for level0 in range(self.k - 1):
                if cut_level is not None and cut_level <= level0 + 1:
                    si = len(segs)
                    segs.append(_Segment(txn, level0 + 1, nid))
                    open_list[level0] = si
                    node_segs.append(si)
                else:
                    si = open_list[level0]
                    seg = segs[si]
                    seg.last = nid
                    # The new last step reaches less than its
                    # predecessors: foreign steps already ordered after
                    # the segment may now be missing from reach[last].
                    if not defer and not seg.dirty:
                        seg.dirty = True
                        self._pending.append(si)
        self._node_segs[nid] = tuple(node_segs)
        prev = self._last_step.get(txn)
        self._last_step[txn] = step
        if prev is not None:
            if defer:
                self.index.add_edge_silent_ids(self.index.id_of(prev), nid)
            else:
                self.add_edge(prev, step)

    def load_transaction(
        self,
        txn,
        steps: Sequence[S],
        cuts: Sequence[int | None],
    ) -> None:
        """Batch-append a whole (fresh) transaction in one call, with
        deferred chain edges; finish loading with :meth:`bootstrap`.

        ``cuts[g]`` is the minimum breakpoint level declared for the gap
        after step ``g`` (``None`` for an uncut gap) — the same meaning
        ``cut_level`` has on :meth:`add_step` for the step following the
        gap.  Equivalent to one deferred :meth:`add_step` per step, but
        much cheaper: class masks get one union per level, segments are
        built straight from the cut boundaries, and chain edges go
        directly into the adjacency.
        """
        if not steps:
            return
        index = self.index
        add_node = index.add_node
        nids = [add_node(step) for step in steps]
        node_segs = self._node_segs
        while len(node_segs) < len(index):
            node_segs.append(())
        own = 0
        for nid in nids:
            own |= 1 << nid
        cids = self._cids.get(txn)
        if cids is None:
            nest = self.nest
            cids = tuple(
                nest.class_id(level, txn) for level in range(1, self.k + 1)
            )
            self._cids[txn] = cids
        for level0, cid in enumerate(cids):
            masks = self._class_masks[level0]
            masks[cid] = masks.get(cid, 0) | own
        adj = index._adj
        radj = index._radj
        prev = nids[0]
        for nid in nids[1:]:
            adj[prev] |= 1 << nid
            radj[nid] |= 1 << prev
            prev = nid
        index.edges += len(nids) - 1
        segs = self._segs
        created: dict[int, list[int]] = {}
        open_list: list[int] = []
        for level0 in range(self.k - 1):
            level = level0 + 1
            start = 0
            for gap in range(len(nids) - 1):
                cut = cuts[gap]
                if cut is not None and cut <= level:
                    si = len(segs)
                    seg = _Segment(txn, level, nids[start])
                    seg.last = nids[gap]
                    segs.append(seg)
                    created.setdefault(nids[start], []).append(si)
                    start = gap + 1
            si = len(segs)
            seg = _Segment(txn, level, nids[start])
            seg.last = nids[-1]
            segs.append(seg)
            created.setdefault(nids[start], []).append(si)
            open_list.append(si)
        for nid, sis in created.items():
            node_segs[nid] = tuple(sis)
        self._open[txn] = open_list
        self._last_step[txn] = steps[-1]

    def add_edge(self, u: S, v: S) -> bool:
        """Insert a seed edge; ``False`` when it closes a cycle (the
        witness step path lands in :attr:`cycle`)."""
        if self.cycle is not None:
            return False
        ok, affected = self.index.add_edge(u, v)
        if not ok:
            nodes = self.index.nodes
            self.cycle = [nodes[i] for i in self.index.cycle_ids or ()]
            return False
        if affected:
            self._mark(affected)
        return True

    def add_edge_silent(self, u: S, v: S) -> None:
        """Insert a seed edge without propagation (batch loading; pair
        with :meth:`bootstrap`)."""
        index = self.index
        index.add_edge_silent_ids(index.id_of(u), index.id_of(v))

    def bootstrap(self) -> bool:
        """Finish a deferred batch load.  ``False`` on a cycle.

        Saturation here is *round-based*, not worklist-based: each round
        scans every segment against the current descendant bitsets, adds
        all missing rule-(b) edges silently, then rebuilds reachability
        with one reverse-topological sweep (O(n + m) big-int operations).
        Per-edge ancestor propagation — the right trade-off for the
        online window, where a call adds one step — is quadratic when
        thousands of edges land at once; batching them against a
        per-round snapshot costs a handful of sweeps instead.  On
        success the engine is exact and saturated, so the online
        incremental path can take over from it seamlessly."""
        if self.cycle is not None:
            return False
        index = self.index
        reach = index._reach
        segs = self._segs
        node_segs = self._node_segs
        self._pending.clear()
        if not index.recompute():
            nodes = index.nodes
            self.cycle = [nodes[i] for i in index.cycle_ids or ()]
            return False
        adj = index._adj
        radj = index._radj
        changed = index.last_changed
        while True:
            self.iterations += 1
            # Only segments whose first member's reach changed can owe a
            # new edge; one-member segments never do (first == last).
            scan: list[int] = []
            for nid in iter_bits(changed):
                for si in node_segs[nid]:
                    seg = segs[si]
                    if seg.first != seg.last and not seg.dirty:
                        seg.dirty = True
                        scan.append(si)
            # Process most-downstream segments first and fold the bits
            # their new edges make reachable into a per-node ``boost``:
            # upstream segments scanned later then subtract a fresher
            # picture, so far fewer redundant edges (and rounds) are
            # generated than against the round-start snapshot alone.
            topo = index._topo or ()
            rank = [0] * len(reach)
            for pos, nid in enumerate(topo):
                rank[nid] = pos
            scan.sort(key=lambda si: rank[segs[si].last], reverse=True)
            boost: dict[int, int] = {}
            get_boost = boost.get
            new_edges: list[tuple[int, int]] = []
            for si in scan:
                seg = segs[si]
                seg.dirty = False
                partner = self._partners(seg.txn, seg.level)
                if not partner:
                    continue
                last = seg.last
                missing = (
                    (reach[seg.first] | get_boost(seg.first, 0))
                    & partner
                    & ~(reach[last] | get_boost(last, 0))
                )
                if not missing:
                    continue
                bit_last = 1 << last
                acc = 0
                while missing:
                    low = missing & -missing
                    target = low.bit_length() - 1
                    if not adj[last] & low:
                        adj[last] |= low
                        radj[target] |= bit_last
                        index.edges += 1
                        new_edges.append((last, target))
                        self.edges_added += 1
                    # One edge covers everything reachable from its
                    # target: skip that, keeping the generating graph
                    # sparse.  (reach[target] holds target's own bit, so
                    # this also clears ``low`` itself.)
                    covered = reach[target] | get_boost(target, 0)
                    acc |= covered
                    missing &= ~covered
                if acc:
                    boost[last] = get_boost(last, 0) | acc
            if not new_edges:
                return True
            # Dense rounds: one full reverse-topological sweep is cheaper
            # than pushing each edge's delta up the predecessor graph.
            if len(new_edges) >= len(index):
                if index.recompute():
                    changed = index.last_changed
                    continue
                repaired = None
            else:
                repaired = index.refresh(new_edges)
            if repaired is None:
                nodes = index.nodes
                self.cycle = [nodes[i] for i in index.cycle_ids or ()]
                return False
            changed = repaired

    def _mark(self, affected: list[int]) -> None:
        """Queue the segments whose rule-(b) obligation may have grown:
        those whose *first* member's descendant set just changed.  (A
        one-member segment never owes an edge — its first is its last.)
        """
        segs = self._segs
        node_segs = self._node_segs
        pending = self._pending
        for nid in affected:
            for si in node_segs[nid]:
                seg = segs[si]
                if seg.first != seg.last and not seg.dirty:
                    seg.dirty = True
                    pending.append(si)

    def _partners(self, txn, level: int) -> int:
        """Bitmask of steps owned by transactions at exactly ``level``
        from ``txn`` — the only filter rule (b) needs."""
        cids = self._cids[txn]
        same = self._class_masks[level - 1].get(cids[level - 1], 0)
        if level < self.k:
            closer = self._class_masks[level].get(cids[level], 0)
        else:
            closer = 0
        return same & ~closer

    # ------------------------------------------------------------------
    # saturation
    # ------------------------------------------------------------------

    def saturate(self) -> bool:
        """Drain the dirty-segment worklist; ``False`` on a cycle.

        Terminates unconditionally: a segment is re-queued only when some
        member's descendant set grew, and bitsets grow at most ``n``
        times each.
        """
        if self.cycle is not None:
            return False
        index = self.index
        reach = index._reach
        pending = self._pending
        segs = self._segs
        while pending:
            si = pending.popleft()
            seg = segs[si]
            seg.dirty = False
            self.iterations += 1
            partner = self._partners(seg.txn, seg.level)
            if not partner:
                continue
            missing = reach[seg.first] & partner & ~reach[seg.last]
            while missing:
                target = (missing & -missing).bit_length() - 1
                ok, affected = index.add_edge_ids(seg.last, target)
                if not ok:
                    nodes = index.nodes
                    self.cycle = [nodes[i] for i in index.cycle_ids or ()]
                    pending.clear()
                    return False
                self.edges_added += 1
                if affected:
                    self._mark(affected)
                missing = reach[seg.first] & partner & ~reach[seg.last]
        return True

    # ------------------------------------------------------------------
    # queries / copying
    # ------------------------------------------------------------------

    def ancestors(self, step: S) -> set:
        """All steps that precede ``step`` in the current closure."""
        mask = self.index.ancestors_mask(step)
        nodes = self.index.nodes
        return {nodes[i] for i in iter_bits(mask)}

    def last_step_of(self, txn) -> S | None:
        return self._last_step.get(txn)

    def result(self) -> ClosureResult:
        """The current state as a :class:`ClosureResult` (shares the live
        index; see the note there)."""
        return ClosureResult(
            self.cycle is None,
            cycle=self.cycle,
            iterations=self.iterations,
            edges_added=self.edges_added,
            index=self.index,
        )

    def clone(self) -> "ClosureEngine":
        """An independent copy for what-if probing — O(n) pointer work,
        since bitsets are immutable ints."""
        other = ClosureEngine.__new__(ClosureEngine)
        other.nest = self.nest
        other.k = self.k
        other.index = self.index.clone()
        other._cids = dict(self._cids)
        other._class_masks = [dict(m) for m in self._class_masks]
        other._segs = [seg.copy() for seg in self._segs]
        other._open = {t: list(v) for t, v in self._open.items()}
        other._node_segs = list(self._node_segs)
        other._last_step = dict(self._last_step)
        other._pending = deque(self._pending)
        other.cycle = list(self.cycle) if self.cycle else None
        other.edges_added = self.edges_added
        other.iterations = self.iterations
        return other


def coherent_closure(
    spec: InterleavingSpec,
    seed: Iterable[tuple[S, S]],
) -> ClosureResult:
    """Compute the coherent closure of ``seed`` over ``spec``.

    Steps are interned to dense ids (``repr``-sorted transactions, each
    in chain order — deterministic witnesses), chain and seed edges
    stream through the incremental reachability index, and saturation
    applies rule
    (b): for every ``B_t(i)``-segment with last step ``w`` and every
    partner step ``b`` reachable from some step of the segment but not
    from ``w``, add ``w -> b``.  Reachability of the final generating
    graph is exactly the transitive + rule-(b) closure.

    Stops immediately (with a witness) once a cycle appears — by Theorem
    2 the seed execution is then not correctable, and further saturation
    cannot remove a cycle.
    """
    engine = ClosureEngine(spec.nest)
    for txn in sorted(spec.transactions, key=repr):
        desc = spec.description(txn)
        elems = desc.elements
        engine.load_transaction(
            txn,
            elems,
            [desc.min_cut_level(g) for g in range(len(elems) - 1)],
        )
    for u, v in seed:
        engine.add_edge_silent(u, v)
    engine.bootstrap()
    return engine.result()


# ---------------------------------------------------------------------------
# total orders (multilevel-atomicity checking)
# ---------------------------------------------------------------------------


def total_order_violations(
    spec: InterleavingSpec, sequence: Sequence[S]
) -> list[Violation]:
    """Coherence violations of a *total* order given as a step sequence.

    A total order is coherent iff (a) it orders each transaction's steps
    consistently with ``<=_t`` and (b) no step of ``t'`` falls strictly
    inside the execution span of a ``B_t(level(t, t'))``-segment.  The
    check runs in ``O(n * k * log n)`` using per-(class, level) sorted
    position arrays.
    """
    position = {step: i for i, step in enumerate(sequence)}
    if len(position) != len(sequence):
        raise NotAPartialOrderError("total order repeats a step")
    violations: list[Violation] = []
    # (a) subsequence check per transaction.
    for txn in spec.transactions:
        elems = spec.description(txn).elements
        prev = None
        for step in elems:
            if step not in position:
                raise NotAPartialOrderError(
                    f"total order is missing step {step!r} of {txn!r}"
                )
            if prev is not None and position[prev] > position[step]:
                violations.append(Violation("missing-order", (prev, step)))
            prev = step
    if len(position) != sum(
        len(spec.description(t).elements) for t in spec.transactions
    ):
        raise NotAPartialOrderError("total order contains foreign steps")

    # Per-level, per-class sorted position arrays over *transaction class*
    # membership: positions of all steps owned by the class's transactions.
    nest = spec.nest
    class_positions: list[dict[int, list[int]]] = []
    for level in range(1, nest.k + 1):
        per_class: dict[int, list[int]] = defaultdict(list)
        for txn in spec.transactions:
            cid = nest.class_id(level, txn)
            per_class[cid].extend(
                position[s] for s in spec.description(txn).elements
            )
        class_positions.append({c: sorted(p) for c, p in per_class.items()})

    import bisect

    def count_between(level: int, cid: int, lo: int, hi: int) -> int:
        arr = class_positions[level - 1].get(cid, [])
        return bisect.bisect_left(arr, hi) - bisect.bisect_right(arr, lo)

    # (b) no partner step strictly inside a segment span.
    for txn in spec.transactions:
        desc = spec.description(txn)
        for level in range(1, spec.k):
            cid_same = nest.class_id(level, txn)
            cid_closer = (
                nest.class_id(level + 1, txn) if level + 1 <= nest.k else None
            )
            for segment in desc.segments(level):
                if len(segment) < 2:
                    continue
                lo = position[segment[0]]
                hi = position[segment[-1]]
                inside = count_between(level, cid_same, lo, hi)
                if cid_closer is not None:
                    inside -= count_between(level + 1, cid_closer, lo, hi)
                # steps of txn itself inside the span are fine; they are
                # counted in the *closer* class at level + 1 already (txn is
                # pi(level+1)-equivalent to itself) so no correction needed.
                if inside > 0:
                    offender = _find_intruder(
                        spec, sequence, txn, level, lo, hi
                    )
                    violations.append(
                        Violation("segment-break", (segment[0], offender, segment[-1]))
                    )
    return violations


def _find_intruder(
    spec: InterleavingSpec,
    sequence: Sequence[S],
    txn,
    level: int,
    lo: int,
    hi: int,
):
    """Locate one partner step strictly inside ``(lo, hi)`` (slow path,
    only taken when a violation is being reported)."""
    for pos in range(lo + 1, hi):
        step = sequence[pos]
        other = spec.transaction_of(step)
        if other != txn and spec.level(txn, other) == level:
            return step
    return None


def is_coherent_total_order(
    spec: InterleavingSpec, sequence: Sequence[S]
) -> bool:
    """Whether the given step sequence is a coherent total order — i.e.
    whether the execution it describes is multilevel atomic."""
    return not total_order_violations(spec, sequence)
