"""On-line maintenance of the coherent closure over a performed prefix.

Section 6's two strategies both revolve around the coherent closure of
the dependency order of the execution *performed so far*:

* cycle **detection** recomputes the closure after each performed step and
  rolls back when a cycle appears;
* cycle **prevention** asks, before performing a step ``b``, which
  transactions' last steps would precede ``b`` in the closure, and delays
  ``b`` until each of them sits at a breakpoint of the appropriate level.

The window keeps, per transaction, the steps performed by its *current
attempt* and the breakpoint levels declared so far; segments that have
not yet reached their next breakpoint are *open* and simply end at the
prefix boundary (their eventual last step is unknown — exactly why a
later step of the same segment can retroactively precede an already
performed foreign step, which is where cycles come from).

The window keeps one live :class:`~repro.core.coherence.ClosureEngine`
across calls.  Each observed step costs one ``add_step`` plus the entity
edges it introduces, each propagated in O(affected) by the bitset
reachability index; nothing is recomputed.  Sound because the prefix
only grows at segment tails, so every previously derived closure edge
remains a consequence of the larger prefix.  The engine is torn down
(and lazily rebuilt from the surviving steps) whenever monotonicity
breaks: on ``drop`` (abort), ``truncate`` (partial rollback), ``_prune``,
on a cyclic verdict, and when a transaction rewrites an interior
breakpoint declaration.  Hypothetical queries run on a clone of the
engine — cheap, since bitsets are immutable ints — and never disturb it.
Experiment E10 ablates it against a batch recompute of the closure from
the base dependency edges on every call, a window the tests keep as
their oracle.

Committed transactions whose lifetime no longer overlaps any active
attempt are pruned; reachability through pruned steps is preserved by
shortcut edges *derived from the committed-only closure* — orderings
justified through still-active attempts are deliberately excluded, since
an attempt that later aborts would leave a stale (and potentially
permanently cyclic) constraint behind.  After an abort the window is
rebuilt from base edges (derived rule edges may have been justified
through the dropped steps); committed-only shortcuts are durable and are
kept."""

from __future__ import annotations

import pickle
from collections.abc import Mapping
from time import perf_counter

from repro.core.coherence import ClosureEngine, ClosureResult, coherent_closure
from repro.core.interleaving import InterleavingSpec
from repro.core.nests import KNest
from repro.core.segmentation import BreakpointDescription
from repro.errors import EngineError
from repro.model.execution import EntityFold
from repro.model.steps import StepId, StepKind
from repro.obs.profile import NULL_PROFILER

__all__ = ["ClosureWindow"]


class _LiveState:
    """The window's persistent state: a saturated closure engine plus
    the entity-edge fold matching the order it has seen."""

    __slots__ = ("engine", "fold")

    def __init__(self, engine: ClosureEngine, fold: EntityFold) -> None:
        self.engine = engine
        self.fold = fold

    def clone(self) -> "_LiveState":
        return _LiveState(self.engine.clone(), self.fold.copy())


class ClosureWindow:
    """Coherent closure over the live performed prefix."""

    def __init__(
        self,
        nest: KNest,
        prune_interval: int = 16,
        conflicts: str = "all",
    ) -> None:
        if conflicts not in ("all", "rw"):
            raise EngineError(f"unknown conflict model {conflicts!r}")
        self.nest = nest
        self.k = nest.k
        self.conflicts = conflicts
        self.prune_interval = prune_interval
        self._steps: dict[str, list[StepId]] = {}
        self._cuts: dict[str, dict[int, int]] = {}
        self._access_of: dict[StepId, tuple[str, StepKind]] = {}
        self._order: list[StepId] = []
        self._committed: set[str] = set()
        self._shortcut_edges: set[tuple[StepId, StepId]] = set()
        self._commits_since_prune = 0
        self._live: _LiveState | None = None
        self._last_result: ClosureResult | None = None
        # Cyclic-verdict cache: the window only ever *grows* between
        # structural edits, and growth cannot un-close a cycle, so once a
        # verdict is cyclic every later observe returns the same result
        # until a rollback/prune/cut-rewrite removes steps.  Cleared by
        # ``_invalidate`` and on interior cut rewrites.
        self._cycle_result: ClosureResult | None = None
        self.closure_calls = 0
        self.edges_last = 0
        self.closure_seconds = 0.0
        self.closure_edges_propagated = 0
        self.closure_word_ops = 0
        # The owner's emission point and phase profiler, injected by
        # Scheduler.attach (the window has no engine reference):
        # ``emit(kind, /, **fields)`` or ``None`` when nobody listens.
        # Rebuilds and prunes are reported through it — prunes reach the
        # WAL because they restructure the window.  The window donates
        # its already-metered closure intervals to the profiler via
        # ``add`` rather than opening spans.
        self.emit = None
        self.profiler = NULL_PROFILER

    # ------------------------------------------------------------------
    # window contents
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._order)

    def steps_of(self, name: str) -> list[StepId]:
        return list(self._steps.get(name, []))

    def last_step_of(self, name: str) -> StepId | None:
        steps = self._steps.get(name)
        return steps[-1] if steps else None

    def _entity_edges(self, order) -> list[tuple[StepId, StepId]]:
        fold = EntityFold(self.conflicts)
        edges: list[tuple[StepId, StepId]] = []
        for step in order:
            entity, kind = self._access_of[step]
            edges.extend(fold.feed(step, entity, kind))
        return edges

    def _cut_before(self, name: str, pos: int) -> int | None:
        """Effective breakpoint level of the gap before position ``pos``
        of ``name``'s attempt (``None`` when uncut or out of depth)."""
        if pos <= 0:
            return None
        lv = self._cuts.get(name, {}).get(pos - 1)
        if lv is None or lv > self.k:
            return None
        return lv

    def _cuts_changed(
        self, name: str, new_cuts: Mapping[int, int]
    ) -> bool:
        """Whether ``new_cuts`` rewrites an *interior* gap declaration.

        The newest gap (before the incoming step) may be declared freely
        — it has never been consumed; any other difference breaks the
        monotone-growth assumption of the live engine."""
        old = self._cuts.get(name, {})
        newest = len(self._steps.get(name, [])) - 1
        k = self.k
        for gap in set(old) | set(new_cuts):
            if gap >= newest:
                continue
            ov = old.get(gap)
            nv = new_cuts.get(gap)
            if (ov if ov is not None and ov <= k else None) != (
                nv if nv is not None and nv <= k else None
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # closure
    # ------------------------------------------------------------------

    def _rebuild_live(self) -> _LiveState:
        """Batch-load the current window contents into a fresh engine.

        Transactions are loaded whole (chain edges and segments built in
        one pass), entity and shortcut edges are inserted silently, and a
        single :meth:`~repro.core.coherence.ClosureEngine.bootstrap`
        saturates everything — much cheaper than replaying the performed
        order step by step with online propagation.  The engine stays
        usable for subsequent online updates afterwards."""
        engine = ClosureEngine(self.nest)
        for name, steps in self._steps.items():
            if steps:
                engine.load_transaction(
                    name,
                    steps,
                    [
                        self._cut_before(name, p)
                        for p in range(1, len(steps))
                    ],
                )
        fold = EntityFold(self.conflicts)
        for step in self._order:
            entity, kind = self._access_of[step]
            for u, v in fold.feed(step, entity, kind):
                engine.add_edge_silent(u, v)
        for u, v in self._shortcut_edges:
            engine.add_edge_silent(u, v)
        engine.bootstrap()
        return _LiveState(engine, fold)

    def _result_of(
        self, engine: ClosureEngine, edges_added_before: int = 0
    ) -> ClosureResult:
        """Wrap the engine state; ``edges_added`` is reported per call
        (delta against the persistent engine's running total), so the
        schedulers' metric accumulation stays correct."""
        return ClosureResult(
            engine.cycle is None,
            cycle=engine.cycle,
            iterations=engine.iterations,
            edges_added=engine.edges_added - edges_added_before,
            index=engine.index,
        )

    def _recompute(self) -> ClosureResult:
        """Rebuild the live engine from scratch and cache its verdict."""
        t0 = perf_counter()
        live = self._rebuild_live()
        engine = live.engine
        index = engine.index
        self.closure_calls += 1
        elapsed = perf_counter() - t0
        self.closure_seconds += elapsed
        self.profiler.add("closure", elapsed)
        self.closure_edges_propagated += index.edges_propagated
        self.closure_word_ops += index.word_ops
        self.edges_last = index.edges
        result = self._result_of(engine)
        self._live = None if engine.cyclic else live
        self._last_result = result
        if engine.cyclic:
            self._cycle_result = result
        if self.emit is not None:
            self.emit(
                "closure.rebuild",
                size=self.size,
                edges=index.edges,
                acyclic=result.is_partial_order,
            )
        return result

    def closure(
        self, extra: tuple[str, StepId, str, StepKind] | None = None
    ) -> ClosureResult | None:
        """The closure over the window, or over the window plus the
        hypothetical step ``extra = (name, step, entity, kind)``;
        ``None`` for an empty window."""
        if self._cycle_result is not None:
            # Growth cannot un-close a cycle; neither can a hypothetical.
            return self._cycle_result
        if extra is None:
            if not self._order:
                return None
            if self._last_result is not None:
                return self._last_result
            return self._recompute()
        if self._live is None:
            base = self._recompute()
            if not base.is_partial_order:
                # A hypothetical step cannot un-close an existing cycle.
                return base
        assert self._live is not None
        name, step, entity, kind = extra
        base_index = self._live.engine.index
        t0 = perf_counter()
        ep0 = base_index.edges_propagated
        wo0 = base_index.word_ops
        ea0 = self._live.engine.edges_added
        probe = self._live.clone()
        engine = probe.engine
        engine.add_step(
            name, step, self._cut_before(name, len(self._steps.get(name, ())))
        )
        if not engine.cyclic:
            for u, v in probe.fold.feed(step, entity, kind):
                if not engine.add_edge(u, v):
                    break
            engine.saturate()
        index = engine.index
        self.closure_calls += 1
        elapsed = perf_counter() - t0
        self.closure_seconds += elapsed
        self.profiler.add("closure", elapsed)
        self.closure_edges_propagated += index.edges_propagated - ep0
        self.closure_word_ops += index.word_ops - wo0
        return self._result_of(engine, ea0)

    def observe(self, name: str, step: StepId, entity: str,
                kind: StepKind, cut_levels: Mapping[int, int]) -> ClosureResult:
        """Record a performed step and return the closure state."""
        if (
            (self._live is not None or self._cycle_result is not None)
            and self._cuts_changed(name, cut_levels)
        ):
            # Interior cut rewrites can merge/split segments, which can
            # remove rule-(b) edges — a cached cyclic verdict may no
            # longer hold, so both caches go.
            self._live = None
            self._cycle_result = None
        self._steps.setdefault(name, []).append(step)
        self._cuts[name] = dict(cut_levels)
        self._access_of[step] = (entity, kind)
        self._order.append(step)
        self._last_result = None
        cached = self._cycle_result
        if cached is not None:
            # Growth cannot un-close a cycle: skip the engine entirely.
            self.closure_calls += 1
            self._last_result = cached
            return cached
        live = self._live
        if live is None:
            return self._recompute()
        engine = live.engine
        index = engine.index
        t0 = perf_counter()
        ep0 = index.edges_propagated
        wo0 = index.word_ops
        ea0 = engine.edges_added
        engine.add_step(
            name, step, self._cut_before(name, len(self._steps[name]) - 1)
        )
        for u, v in live.fold.feed(step, entity, kind):
            if not engine.add_edge(u, v):
                break
        engine.saturate()
        self.closure_calls += 1
        elapsed = perf_counter() - t0
        self.closure_seconds += elapsed
        self.profiler.add("closure", elapsed)
        self.closure_edges_propagated += index.edges_propagated - ep0
        self.closure_word_ops += index.word_ops - wo0
        self.edges_last = index.edges
        result = self._result_of(engine, ea0)
        self._last_result = result
        if engine.cyclic:
            # Terminal: the engine stops maintaining reachability after a
            # cycle.  The scheduler will roll something back, which
            # invalidates anyway; rebuild lazily from whatever survives.
            self._live = None
            self._cycle_result = result
        return result

    def hypothetical(
        self, name: str, step: StepId, entity: str, kind: StepKind
    ) -> tuple[bool, set[StepId], set[str]]:
        """What performing ``step`` would do.

        Returns ``(acyclic, predecessors, cycle_transactions)``: the
        closure-ancestors of ``step`` when acyclic, or the transactions
        on the witnessed cycle when performing the step would close one.
        """
        result = self.closure(extra=(name, step, entity, kind))
        if result is None:
            return True, set(), set()
        if not result.is_partial_order:
            owners = {s.transaction for s in result.cycle or ()}
            return False, set(), owners
        return True, result.ancestors(step), set()

    def sync_metrics(self, metrics) -> None:
        """Publish the window's cumulative closure-cost counters into an
        engine :class:`~repro.engine.metrics.Metrics` object (the window
        lives one-to-one with a scheduler run, so plain assignment is the
        correct accumulation)."""
        metrics.closure_seconds = self.closure_seconds
        metrics.closure_edges_propagated = self.closure_edges_propagated
        metrics.closure_word_ops = self.closure_word_ops

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def truncate(self, name: str, keep: int) -> None:
        """Partial rollback: keep only the first ``keep`` steps of the
        transaction's current attempt (``recovery="segment"``)."""
        steps = self._steps.get(name, [])
        if keep <= 0:
            self.drop(name)
            return
        if keep >= len(steps):
            return
        gone = set(steps[keep:])
        self._steps[name] = steps[:keep]
        self._cuts[name] = {
            g: lv
            for g, lv in self._cuts.get(name, {}).items()
            if g < keep - 1
        }
        self._order = [s for s in self._order if s not in gone]
        for step in gone:
            self._access_of.pop(step, None)
        self._invalidate()
        self._shortcut_edges = {
            (u, v)
            for u, v in self._shortcut_edges
            if u not in gone and v not in gone
        }

    def drop(self, name: str) -> None:
        """Remove an aborted attempt's steps and rebuild derived state."""
        gone = set(self._steps.pop(name, []))
        self._cuts.pop(name, None)
        self._order = [s for s in self._order if s not in gone]
        for step in gone:
            self._access_of.pop(step, None)
        # Derived edges may have been justified through the dropped steps;
        # rebuild from scratch (shortcuts are kept, see module doc).
        self._invalidate()
        self._shortcut_edges = {
            (u, v)
            for u, v in self._shortcut_edges
            if u not in gone and v not in gone
        }

    def _invalidate(self) -> None:
        self._live = None
        self._last_result = None
        self._cycle_result = None

    def mark_committed(self, name: str) -> None:
        self._committed.add(name)
        self._commits_since_prune += 1
        if self._commits_since_prune >= self.prune_interval:
            self._commits_since_prune = 0
            self._prune()

    def _prune(self) -> None:
        """Drop committed transactions that ended before every live
        attempt's first step, preserving reachability via shortcuts."""
        live_first: list[int] = []
        position = {s: i for i, s in enumerate(self._order)}
        for name, steps in self._steps.items():
            if name not in self._committed and steps:
                live_first.append(position[steps[0]])
        watermark = min(live_first) if live_first else len(self._order)
        prunable = [
            name
            for name in self._committed
            if self._steps.get(name)
            and all(position[s] < watermark for s in self._steps[name])
        ]
        if not prunable:
            return
        committed_present = sorted(
            n for n in self._committed if self._steps.get(n)
        )
        # Shortcuts are closure edges among the committed steps that stay
        # (the closure below has no other nodes), so a prune that leaves no
        # committed transaction behind has nothing to bridge.
        succ: dict[StepId, set[StepId]] = {}
        if len(committed_present) > len(prunable):
            # Derive shortcuts from the closure over *committed* history
            # only.  Edges justified through still-active attempts must
            # not survive a prune: if such an attempt later aborts, its
            # orderings were never real, and a stale shortcut could wedge
            # a permanent cycle among committed steps into the window.
            # Committed orderings are durable, so this restriction is
            # sound by induction.
            committed_steps = {
                s for n in committed_present for s in self._steps[n]
            }
            spec = InterleavingSpec(
                self.nest.restrict(committed_present),
                {
                    n: BreakpointDescription.from_cut_levels(
                        self._steps[n],
                        self.k,
                        {
                            g: lv
                            for g, lv in self._cuts.get(n, {}).items()
                            if g < len(self._steps[n]) - 1 and lv <= self.k
                        },
                    )
                    for n in committed_present
                },
            )
            base = set(
                self._entity_edges(
                    [s for s in self._order if s in committed_steps]
                )
            ) | {
                (u, v)
                for u, v in self._shortcut_edges
                if u in committed_steps and v in committed_steps
            }
            closure = coherent_closure(spec, base).index
            nodes = closure.nodes
            succ = {n: set() for n in nodes}
            pred: dict[StepId, set[StepId]] = {n: set() for n in nodes}
            for u, v in closure.iter_edges():
                succ[u].add(v)
                pred[v].add(u)
            # Eliminate each pruned step, bridging its predecessors to its
            # successors so reachability among the survivors is preserved.
            for name in prunable:
                for step in self._steps[name]:
                    preds = pred.pop(step)
                    succs = succ.pop(step)
                    preds.discard(step)
                    succs.discard(step)
                    for p in preds:
                        succ[p].discard(step)
                        succ[p].update(s for s in succs if s != p)
                    for s in succs:
                        pred[s].discard(step)
                        pred[s].update(p for p in preds if p != s)
        # Retire the pruned transactions in one pass over the window.
        gone = {s for name in prunable for s in self._steps.pop(name)}
        for name in prunable:
            self._cuts.pop(name, None)
            self._committed.discard(name)
        self._order = [s for s in self._order if s not in gone]
        for step in gone:
            self._access_of.pop(step, None)
        # Elimination left only surviving committed steps in ``succ``.
        self._shortcut_edges = {
            (u, v) for u, outs in succ.items() for v in outs
        }
        self._invalidate()
        if self.emit is not None:
            self.emit(
                "closure.prune",
                pruned=sorted(prunable),
                shortcuts=len(self._shortcut_edges),
                size=self.size,
            )

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    def snapshot_state(self) -> bytes:
        """The window's dynamic state as one pickle blob.

        The incremental caches (live engine, last/cyclic verdicts) are
        captured *wholesale* rather than rebuilt on restore: a lazy
        rebuild bumps the closure-cost counters by the rebuild's cost,
        which would make a recovered run's counter trajectory diverge
        from the live one.  ``closure_seconds`` is wall time and is the
        one counter exempted from the replay-identity invariant.
        """
        payload = {
            "steps": {n: list(s) for n, s in self._steps.items()},
            "cuts": {n: dict(c) for n, c in self._cuts.items()},
            "access_of": dict(self._access_of),
            "order": list(self._order),
            "committed": self._committed,
            "shortcut_edges": self._shortcut_edges,
            "commits_since_prune": self._commits_since_prune,
            "live": self._live,
            "last_result": self._last_result,
            "cycle_result": self._cycle_result,
            "closure_calls": self.closure_calls,
            "edges_last": self.edges_last,
            "closure_seconds": self.closure_seconds,
            "closure_edges_propagated": self.closure_edges_propagated,
            "closure_word_ops": self.closure_word_ops,
        }
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    def restore_state(self, blob: bytes) -> None:
        payload = pickle.loads(blob)
        self._steps = payload["steps"]
        self._cuts = payload["cuts"]
        self._access_of = payload["access_of"]
        self._order = payload["order"]
        self._committed = payload["committed"]
        self._shortcut_edges = payload["shortcut_edges"]
        self._commits_since_prune = payload["commits_since_prune"]
        self._live = payload["live"]
        self._last_result = payload["last_result"]
        self._cycle_result = payload["cycle_result"]
        if self._live is not None:
            # The unpickled engine carries a *copy* of the nest; future
            # ingests mutate the window's live nest object, so the
            # restored engine must observe the same instance.
            self._live.engine.nest = self.nest
        self.closure_calls = payload["closure_calls"]
        self.edges_last = payload["edges_last"]
        self.closure_seconds = payload["closure_seconds"]
        self.closure_edges_propagated = payload["closure_edges_propagated"]
        self.closure_word_ops = payload["closure_word_ops"]
