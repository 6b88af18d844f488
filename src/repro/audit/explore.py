"""Bounded exhaustive interleaving exploration (the DPOR-flavoured audit).

The randomized differentials sample schedules; this module *enumerates*
them.  For a small configuration (a few declarative programs and a
scheduler) it walks every reachable scheduling decision of the real
:class:`~repro.engine.runtime.Engine` — not a model of it — by forking
the engine at each decision point through the ``snapshot_state`` /
``restore_state`` seam.  The engine's seeded rng is replaced by a pinned
stand-in (:class:`_ExplorerRng`) that forces each runnable transaction in
turn as the tick's attention pick; backoff delays collapse to their
minimum (longer delays only defer wakeups, which the scheduling choice
already enumerates), so randomness contributes no state.

State-space reduction is sleep-set-free but sound: explored states are
deduplicated under a canonical key that normalises away everything
future behaviour cannot depend on (absolute tick via wake deltas,
absolute seqs via rank, metrics and per-transaction telemetry), so two
interleavings that reach behaviourally identical engine states merge —
the partial-order-reduction effect that keeps small configs tractable.

Every terminal (quiesced) state's committed execution is checked with
the offline Theorem 2 decision procedure, and a state that cannot
progress is ``stuck``.  ``all_correctable`` with nothing ``stuck`` over
a *complete* exploration is therefore a proof, not a sample: the
scheduler admits no incorrect execution of that configuration, and
blocks no transaction for good, under any interleaving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.api import ProgramSpec, make_scheduler
from repro.core.atomicity import check_correctability
from repro.core.nests import KNest
from repro.engine.runtime import Engine, unpack_commit
from repro.errors import EngineError, SpecificationError

__all__ = ["ExplorationReport", "SMALL_CONFIGS", "explore", "make_config"]


class _ExplorerRng:
    """Deterministic stand-in for the engine's seeded rng.

    The engine consumes randomness in exactly two places the explorer
    must control: the attention pick and the post-rollback backoff draw.
    Backoff is pinned to the *minimum* delay — a longer delay only
    defers a wakeup, and deferral is already
    enumerated by the explorer's scheduling choice, so delay-1 loses no
    behaviours while keeping the rng state inert (and out of the state
    key).  A pick takes the transaction named ``pick``, and consumes it:
    that is how the explorer forces each choice.
    """

    __slots__ = ("pick",)

    def __init__(self) -> None:
        self.pick: str | None = None

    def randint(self, lo: int, hi: int) -> int:
        return lo

    def choice(self, seq):
        for item in seq:
            if item.name == self.pick:
                self.pick = None
                return item
        raise SpecificationError(
            f"forced pick {self.pick!r} is not a candidate (explorer "
            f"invariant broken)"
        )

    def getstate(self):
        return ("explorer", self.pick)

    def setstate(self, state) -> None:
        self.pick = state[1]


# ----------------------------------------------------------------------
# canonical state keys
# ----------------------------------------------------------------------


def _canon(value: Any):
    if isinstance(value, dict):
        return tuple(
            sorted((repr(k), _canon(v)) for k, v in value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(repr(v) for v in value))
    return repr(value)


#: Closure-window blob fields that feed future admission/certification
#: decisions.  Everything else in the blob is either derived cache (the
#: incremental live engine, memoised verdicts — functionally determined
#: by these fields) or telemetry (call counters, wall-clock seconds)
#: that would make behaviourally identical states hash apart.
_WINDOW_DECISION_FIELDS = (
    "steps",
    "cuts",
    "access_of",
    "order",
    "committed",
    "shortcut_edges",
    "commits_since_prune",
)


def _canon_window(blob: bytes):
    import pickle

    payload = pickle.loads(blob)
    return tuple(
        _canon(payload[name]) for name in _WINDOW_DECISION_FIELDS
    )


def _canon_timestamp(snapshot: dict, live_keys: set):
    """Rank-compress a timestamp-scheduler snapshot.

    Timestamp-order decisions compare only the *relative* order of
    assigned timestamps (fresh draws always exceed every existing one),
    so two states whose timestamp assignments are order-isomorphic take
    identical future decisions.  Entries for dead attempts are dropped:
    an aborted attempt's key is never queried again, and the values it
    contributed to the per-entity marks survive in the marks themselves.
    """
    live_ts = {
        key: value
        for key, value in snapshot["ts"].items()
        if key in live_keys
    }
    marks = snapshot["marks"]
    values = sorted({
        0,
        *live_ts.values(),
        *(read for _, read, _w in marks),
        *(write for _, _r, write in marks),
    })
    rank = {value: position for position, value in enumerate(values)}
    return (
        tuple(sorted(
            (entity, rank[read], rank[write])
            for entity, read, write in marks
        )),
        tuple(sorted((key, rank[v]) for key, v in live_ts.items())),
    )


def _canon_scheduler(value: Any, live_keys: set):
    """Canonicalise a scheduler snapshot for the state key: closure
    window blobs are reduced to their decision-relevant fields,
    timestamp assignments are rank-compressed, and write-only telemetry
    counters are dropped (nothing reads them)."""
    if isinstance(value, dict):
        if set(value) == {"marks", "ts"}:
            return _canon_timestamp(value, live_keys)
        out = []
        for k, v in sorted(value.items()):
            if k == "certification_failures":
                continue
            if k == "window" and isinstance(v, (bytes, bytearray)):
                out.append((k, _canon_window(bytes(v))))
            else:
                out.append((k, _canon_scheduler(v, live_keys)))
        return tuple(out)
    if isinstance(value, (list, tuple)):
        return tuple(_canon_scheduler(v, live_keys) for v in value)
    return _canon(value)


def _state_key(state: dict, records: list):
    """A canonical, hashable digest of everything the engine's *future*
    behaviour can depend on.

    Absolute quantities are normalised: wake ticks become their distance
    past the next tick (any earlier wake is alike), and global seqs
    become ranks — so states reached at different absolute times but
    with identical futures collide, which is exactly the reduction.
    Telemetry (metrics, wait counts, commit ticks) is excluded: nothing
    in the tick loop or any scheduler reads it.  So is the refused set,
    which decides only whether the engine raises for no progress: a
    refusal that changes nothing returns to its own key, and
    :func:`explore` reports that.  The waits-for rows, which the next
    wait searches, are kept, in sorted order: a wait is searched from
    its waiter, so the order the rows were recorded in decides nothing.
    """
    tick = state["tick"]
    store = state["store"]
    store_key = (_canon(store["initial"]), _canon(store["values"]))
    commits = [unpack_commit(packed) for packed in records]
    committed = [
        (seq, commit.name, commit.attempt, *rest)
        for commit in commits
        for seq, *rest in commit.rows
    ]
    seqs = sorted(
        {entry[0] for entry in state["live_log"]}
        | {row[0] for row in committed}
    )
    rank = {seq: position for position, seq in enumerate(seqs)}
    txns = tuple(
        (
            saved["name"],
            saved["attempt"],
            saved["rollbacks"],
            max(0, saved["wake_tick"] - tick - 1),
            _canon(saved["deps"]),
            _canon(saved["results_log"]),
        )
        for saved in sorted(state["txns"], key=lambda s: s["name"])
    )
    live_keys = {
        f"{saved['name']}#{saved['attempt']}" for saved in state["txns"]
    }
    # The raw timestamp counter is omitted: a fresh draw always exceeds
    # every assigned value, so only the (rank-compressed) assignments in
    # the scheduler snapshot can influence future decisions.
    return (
        repr(state["rng"]),
        store_key,
        txns,
        tuple(
            (rank[seq], _canon(key), repr(record))
            for seq, key, record in state["live_log"]
        ),
        tuple((rank[seq], *map(repr, rest)) for seq, *rest in committed),
        tuple(sorted(
            (entity, rank[seq], _canon(key))
            for entity, (seq, key) in state["committed_access"].items()
        )),
        _canon(state["last_writer"]),
        # In commit order; a committed transaction's wake tick, deps and
        # tape are spent, and its commit tick and waits are telemetry.
        tuple(
            (
                commit.name,
                commit.attempt,
                commit.rollbacks,
                _canon(commit.result),
                _canon(commit.cut_levels),
            )
            for commit in commits
        ),
        tuple(sorted(_canon(state["waits"]))),
        _canon_scheduler(state["scheduler"], live_keys),
    )


# ----------------------------------------------------------------------
# configurations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Config:
    """One explorable configuration: programs plus initial values."""

    name: str
    specs: tuple[ProgramSpec, ...]
    initial: tuple[tuple[str, Any], ...]

    def nest(self) -> KNest:
        return KNest.from_paths({s.name: s.path for s in self.specs})


def make_config(name, specs, initial) -> _Config:
    return _Config(
        name=name,
        specs=tuple(specs),
        initial=tuple(sorted(dict(initial).items())),
    )


#: Small canned configurations shared by tests, CI and the E17 bench.
#: ``mixed-nest`` interleaves two sibling updaters (declared level-2
#: breakpoints under a 3-level nest) with a singleton auditor — the
#: paper's shape, where correct interleavings exist that are *not*
#: serializable.  ``flat-cross`` is the classical 2-nest crossing
#: read/write pair that an unguarded engine can commit incorrectably.
SMALL_CONFIGS: tuple[_Config, ...] = (
    make_config(
        "mixed-nest",
        [
            ProgramSpec(
                "t1",
                (("add", "x", -5), ("bp", 2), ("add", "y", 5)),
                ("fam",),
            ),
            ProgramSpec(
                "t2",
                (("add", "x", -3), ("bp", 2), ("add", "y", 3)),
                ("fam",),
            ),
            ProgramSpec(
                "audit",
                (("read", "x"), ("read", "y")),
                ("aud",),
            ),
        ],
        {"x": 100, "y": 100},
    ),
    make_config(
        "flat-cross",
        [
            ProgramSpec("reader", (("read", "x"), ("read", "y")), ()),
            ProgramSpec("writer", (("set", "x", 7), ("set", "y", 7)), ()),
            ProgramSpec("adder", (("add", "y", 1),), ()),
        ],
        {"x": 0, "y": 0},
    ),
)


# ----------------------------------------------------------------------
# the explorer
# ----------------------------------------------------------------------


@dataclass
class ExplorationReport:
    """Outcome of exploring one (configuration, scheduler) pair."""

    config: str
    scheduler: str
    nodes: int = 0
    transitions: int = 0
    terminals: int = 0
    distinct_histories: int = 0
    complete: bool = True
    all_correctable: bool = True
    restart_bound: int = 0
    pruned: int = 0
    stuck: int = 0
    violations: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "scheduler": self.scheduler,
            "nodes": self.nodes,
            "transitions": self.transitions,
            "terminals": self.terminals,
            "distinct_histories": self.distinct_histories,
            "complete": self.complete,
            "all_correctable": self.all_correctable,
            "restart_bound": self.restart_bound,
            "pruned": self.pruned,
            "stuck": self.stuck,
            "violations": list(self.violations),
        }


def explore(
    config,
    scheduler: str,
    seed: int = 0,
    max_nodes: int = 50_000,
    max_ticks: int = 100_000,
    restart_bound: int = 4,
) -> ExplorationReport:
    """Enumerate every schedule of ``config`` under ``scheduler``.

    A wait needs no bound: a refused re-ask returns to its own state
    key and is deduplicated.  A state where every choice does that, or
    where the engine raises its no-progress error, is ``stuck``: a
    violation naming the waits-for rows.

    ``restart_bound`` caps the total rollbacks along a path — the
    explorer's context bound.  Adversarial picks can restart one
    transaction forever (let the same conflict roll it back after every
    restart), a livelock the engine's randomised
    backoff exists to escape; those paths climb attempt counters without
    ever committing anything new, so the infinite tail proves nothing
    about correctability.  Paths that exceed the bound are counted in
    ``pruned`` instead of expanded.  ``complete`` is ``False`` only when
    ``max_nodes`` was hit — a reported proof always means the frontier
    was exhausted up to the declared restart bound.
    """
    if not isinstance(config, _Config):
        raise SpecificationError(
            "explore() takes a configuration from make_config()/"
            "SMALL_CONFIGS"
        )
    nest = config.nest()
    programs = [spec.compile() for spec in config.specs]
    # A reused engine has released the programs of transactions it
    # committed; a restore to a state before those commits takes them
    # from here.
    by_name = {program.name: program for program in programs}

    def fresh_engine() -> Engine:
        engine = Engine(
            programs,
            dict(config.initial),
            make_scheduler(scheduler, nest),
            seed=seed,
            max_ticks=max_ticks,
        )
        engine.rng = _ExplorerRng()
        return engine

    report = ExplorationReport(
        config=config.name,
        scheduler=scheduler,
        restart_bound=restart_bound,
    )
    digests: set[str] = set()

    def finish(engine: Engine) -> None:
        report.terminals += 1
        result = engine.run(until_tick=engine.tick)
        digest = result.history_digest()
        if digest in digests:
            return
        digests.add(digest)
        outcome = check_correctability(
            result.spec(nest), result.execution.dependency_edges()
        )
        if not outcome.correctable:
            report.all_correctable = False
            cycle = outcome.closure.cycle or []
            report.violations.append(
                f"{scheduler}/{config.name}: commit order "
                f"{result.commit_order} closure cycle "
                + " -> ".join(repr(s) for s in cycle)
            )

    # Two scratch engines, restored in place thousands of times: every
    # stored snapshot is built of fresh containers, and the restore
    # symmetrically rebuilds — see ``Engine.snapshot_state``.
    root = fresh_engine()
    root_state = root.snapshot_state()
    node_engine = fresh_engine()
    child_engine = fresh_engine()
    root_key = _state_key(root_state, [])
    visited = {root_key}
    # Each node is its key, its snapshot and the committed log it covers.
    stack = [(root_key, root_state, [])]
    while stack:
        node_key, state, records = stack.pop()
        report.nodes += 1
        if report.nodes > max_nodes:
            report.complete = False
            break
        engine = node_engine
        engine.restore_state(state, records, programs=by_name)
        if not engine.txns:
            finish(engine)
            continue
        if engine.metrics.rollbacks > restart_bound:
            report.pruned += 1
            continue
        # Advance through candidate-free ticks in place: they consume no
        # rng and take no decision, so they belong to the edge, not to a
        # node of their own.
        wake = min(t.wake_tick for t in engine.txns.values())
        target = max(engine.tick + 1, wake)
        if target - 1 > engine.tick:
            engine.advance(until_tick=target - 1)
        base = engine.snapshot_state()
        choices = sorted(
            t.name
            for t in engine.txns.values()
            if t.wake_tick <= target
        )
        returns = 0
        for choice in choices:
            child = child_engine
            child.restore_state(
                base, engine.records, programs=by_name
            )
            child.rng.pick = choice
            try:
                child.advance(until_tick=target)
            except EngineError as error:
                report.stuck += 1
                report.violations.append(f"{scheduler}/{config.name}: {error}")
                continue
            report.transitions += 1
            child_state = child.snapshot_state()
            child_records = list(child.records)
            key = _state_key(child_state, child_records)
            returns += key == node_key
            if key in visited:
                continue
            visited.add(key)
            stack.append((key, child_state, child_records))
        if returns == len(choices):
            report.stuck += 1
            rows = {name: engine.waits.waits.get(name, []) for name in choices}
            report.violations.append(
                f"{scheduler}/{config.name}: no progress at tick {target}: "
                f"every choice is refused; waiter -> blockers {rows}"
            )
    report.distinct_histories = len(digests)
    return report
