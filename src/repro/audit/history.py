"""The portable history format and its streaming capture sinks.

The paper's central artifact is the *history*: a multilevel atomicity
run is correct exactly when its recorded execution is correctable.  This
module makes histories first-class — a stable, versioned JSON/JSONL
encoding that round-trips exactly, rejects unknown keys, and fails only
with :class:`~repro.errors.SpecificationError` (the ``api.py`` envelope
discipline) — so a run captured here can be audited by a different
process, a different machine, or a checker that never saw the engine.

Two encodings share one canonical object, :class:`History`:

* **JSON** — ``History.to_json()`` / ``History.from_json()``: one
  sorted-keys object, the at-rest interchange form.
* **JSONL** — the streaming form :class:`HistoryWriter` appends while a
  run is live: a ``header`` line, one ``commit`` line per committed
  transaction (its records, declared cut levels, nest path and result),
  and a ``footer`` carrying the canonical SHA-256 — the same digest
  :meth:`repro.engine.runtime.EngineResult.history_digest` computes, so
  a captured file cross-checks against the engine's own result.

Capture is a sink of the engine's decision stream (DESIGN.md §4e): an
enabled sink receives every record and keeps the commits; sinks never
touch the engine rng, so captured runs are bit-identical to bare runs.
A captured stream is readable only once its footer is written: commit
lines are buffered, not flushed one by one, and a stream without a
footer is rejected by :func:`load_history`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any

from repro.errors import ExecutionError, SpecificationError
from repro.model.breakpoints import spec_for_execution
from repro.model.execution import Execution
from repro.model.steps import StepId, StepKind, StepRecord

__all__ = [
    "HISTORY_FORMAT_VERSION",
    "History",
    "HistoryRecorder",
    "HistorySink",
    "HistoryStep",
    "HistoryWriter",
    "NULL_HISTORY",
    "TeeHistory",
    "history_from_result",
    "load_history",
    "paths_from_nest",
]

#: Version stamped into every export; imports reject anything else.
HISTORY_FORMAT_VERSION = 1

_KINDS = frozenset(k.value for k in StepKind)

#: Encodes every JSONL line: the bytes of ``json.dumps(payload,
#: sort_keys=True)`` without building an encoder per call.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True)


def _scalar_ok(value: Any) -> bool:
    """Format v1 restricts step/initial values to JSON-native scalars, so
    ``repr`` round-trips exactly and the digest is portable."""
    return value is None or isinstance(value, (bool, int, float, str))


def _require_keys(data, required: set, optional: set, kind: str) -> None:
    if not isinstance(data, dict):
        raise SpecificationError(f"{kind} must be a JSON object")
    missing = required - set(data)
    if missing:
        raise SpecificationError(f"{kind} is missing keys: {sorted(missing)}")
    unknown = set(data) - required - optional
    if unknown:
        raise SpecificationError(f"{kind} has unknown keys: {sorted(unknown)}")


def _load_object(text: str, kind: str) -> dict:
    try:
        data = json.loads(text)
    except (TypeError, ValueError) as exc:
        raise SpecificationError(f"{kind} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecificationError(f"{kind} must be a JSON object")
    return data


@dataclass(frozen=True)
class HistoryStep:
    """One performed step, positioned by its global sequence number."""

    seq: int
    transaction: str
    index: int
    entity: str
    kind: str
    before: Any
    after: Any

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "transaction": self.transaction,
            "index": self.index,
            "entity": self.entity,
            "kind": self.kind,
            "before": self.before,
            "after": self.after,
        }

    @classmethod
    def from_dict(cls, data) -> "HistoryStep":
        _require_keys(
            data,
            {"seq", "transaction", "index", "entity", "kind", "before",
             "after"},
            set(),
            "history step",
        )
        return cls(
            seq=data["seq"],
            transaction=data["transaction"],
            index=data["index"],
            entity=data["entity"],
            kind=data["kind"],
            before=data["before"],
            after=data["after"],
        )

    def record(self) -> StepRecord:
        return StepRecord(
            step=StepId(self.transaction, self.index),
            entity=self.entity,
            kind=StepKind(self.kind),
            value_before=self.before,
            value_after=self.after,
        )


@dataclass(frozen=True)
class History:
    """A complete, self-validating committed history.

    ``depth``/``paths`` carry the k-nest placement (``depth`` labels per
    transaction, the ``KNest.from_paths`` shape); a history without them
    is audited against the flat 2-nest, where multilevel atomicity is
    classical serializability.  ``cut_levels`` maps each transaction's
    gap index to its declared breakpoint level.
    """

    commit_order: tuple[str, ...]
    steps: tuple[HistoryStep, ...]
    cut_levels: dict[str, dict[int, int]] = field(default_factory=dict)
    results: dict[str, Any] = field(default_factory=dict)
    initial: dict[str, Any] = field(default_factory=dict)
    depth: int | None = None
    paths: dict[str, tuple[str, ...]] | None = None
    meta: dict[str, Any] = field(default_factory=dict)
    version: int = HISTORY_FORMAT_VERSION

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check every structural invariant of format v1; raises
        :class:`SpecificationError` (never anything else) on violation."""
        if self.version != HISTORY_FORMAT_VERSION:
            raise SpecificationError(
                f"unsupported history format version {self.version!r} "
                f"(this build reads version {HISTORY_FORMAT_VERSION})"
            )
        committed = set(self.commit_order)
        if len(committed) != len(self.commit_order):
            raise SpecificationError("commit_order repeats a transaction")
        for name, value in self.initial.items():
            if not isinstance(name, str) or not _scalar_ok(value):
                raise SpecificationError(
                    f"initial value {name!r}={value!r} is not a JSON scalar"
                )
        last_seq: int | None = None
        next_index: dict[str, int] = {}
        for step in self.steps:
            if not isinstance(step.seq, int) or isinstance(step.seq, bool):
                raise SpecificationError(f"step seq {step.seq!r} not an int")
            if last_seq is not None and step.seq <= last_seq:
                raise SpecificationError(
                    f"step seqs must strictly increase "
                    f"({step.seq} after {last_seq})"
                )
            last_seq = step.seq
            if step.transaction not in committed:
                raise SpecificationError(
                    f"step {step.seq} belongs to uncommitted transaction "
                    f"{step.transaction!r}"
                )
            if step.kind not in _KINDS:
                raise SpecificationError(
                    f"step {step.seq} has unknown kind {step.kind!r}"
                )
            expected = next_index.get(step.transaction, 0)
            if step.index != expected:
                raise SpecificationError(
                    f"transaction {step.transaction!r}: expected step "
                    f"index {expected}, got {step.index}"
                )
            next_index[step.transaction] = expected + 1
            if not _scalar_ok(step.before) or not _scalar_ok(step.after):
                raise SpecificationError(
                    f"step {step.seq} carries non-scalar values"
                )
        for name, cuts in self.cut_levels.items():
            if name not in committed:
                raise SpecificationError(
                    f"cut_levels name unknown transaction {name!r}"
                )
            for gap, level in cuts.items():
                if not isinstance(gap, int) or gap < 0:
                    raise SpecificationError(
                        f"{name!r}: gap index {gap!r} must be a "
                        f"non-negative int"
                    )
                if not isinstance(level, int) or level < 1:
                    raise SpecificationError(
                        f"{name!r}: breakpoint level {level!r} must be a "
                        f"positive int"
                    )
        if (self.depth is None) != (self.paths is None):
            raise SpecificationError(
                "depth and paths must be given together (or both omitted)"
            )
        if self.paths is not None:
            if not isinstance(self.depth, int) or self.depth < 0:
                raise SpecificationError(
                    f"nest depth {self.depth!r} must be a non-negative int"
                )
            if set(self.paths) != committed:
                raise SpecificationError(
                    "paths must place exactly the committed transactions"
                )
            for name, path in self.paths.items():
                if len(path) != self.depth or not all(
                    isinstance(label, str) for label in path
                ):
                    raise SpecificationError(
                        f"path for {name!r} must be {self.depth} string "
                        f"labels, got {path!r}"
                    )
        for name in self.results:
            if name not in committed:
                raise SpecificationError(
                    f"results name unknown transaction {name!r}"
                )
        # The Section 3.1 value-chain requirements, via the model itself.
        try:
            self.execution().validate()
        except ExecutionError as exc:
            raise SpecificationError(
                f"history is not a valid execution: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # model views
    # ------------------------------------------------------------------

    def execution(self) -> Execution:
        """The committed execution, records in global ``seq`` order."""
        try:
            return Execution(
                [s.record() for s in self.steps], dict(self.initial)
            )
        except (ExecutionError, ValueError) as exc:
            raise SpecificationError(f"history malformed: {exc}") from exc

    def nest(self):
        """The declared k-nest (or the flat 2-nest when undeclared)."""
        from repro.core.nests import KNest

        if self.paths is None or not self.commit_order:
            return KNest.flat(self.commit_order)
        return KNest.from_paths(dict(self.paths))

    def spec(self):
        """The interleaving specification of this history's execution."""
        return spec_for_execution(
            self.execution(), self.nest(), self.cut_levels
        )

    # ------------------------------------------------------------------
    # canonical digest
    # ------------------------------------------------------------------

    def digest(self) -> str:
        """The canonical SHA-256 — byte-for-byte the digest
        :meth:`EngineResult.history_digest` computes over the same run."""
        canon = [
            [
                s.transaction,
                s.index,
                s.entity,
                s.kind,
                repr(s.before),
                repr(s.after),
            ]
            for s in self.steps
        ]
        blob = json.dumps(canon, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

    # ------------------------------------------------------------------
    # wire shape
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "meta": dict(self.meta),
            "initial": dict(self.initial),
            "depth": self.depth,
            "paths": (
                None
                if self.paths is None
                else {t: list(p) for t, p in sorted(self.paths.items())}
            ),
            "commit_order": list(self.commit_order),
            "cut_levels": {
                t: {str(gap): lvl for gap, lvl in sorted(cuts.items())}
                for t, cuts in sorted(self.cut_levels.items())
            },
            "results": dict(self.results),
            "steps": [s.to_dict() for s in self.steps],
            "sha256": self.digest(),
        }

    @classmethod
    def from_dict(cls, data) -> "History":
        _require_keys(
            data,
            {"version", "commit_order", "steps"},
            {"meta", "initial", "depth", "paths", "cut_levels", "results",
             "sha256"},
            "history",
        )
        raw_cuts = data.get("cut_levels", {})
        if not isinstance(raw_cuts, dict):
            raise SpecificationError("cut_levels must be an object")
        cut_levels: dict[str, dict[int, int]] = {}
        for name, cuts in raw_cuts.items():
            if not isinstance(cuts, dict):
                raise SpecificationError(
                    f"cut_levels for {name!r} must be an object"
                )
            parsed = {}
            for gap, level in cuts.items():
                try:
                    parsed[int(gap)] = level
                except (TypeError, ValueError) as exc:
                    raise SpecificationError(
                        f"cut_levels for {name!r}: bad gap key {gap!r}"
                    ) from exc
            cut_levels[name] = parsed
        raw_paths = data.get("paths")
        if raw_paths is not None and not isinstance(raw_paths, dict):
            raise SpecificationError("paths must be an object or null")
        raw_steps = data.get("steps")
        if not isinstance(raw_steps, list):
            raise SpecificationError("steps must be an array")
        if not isinstance(data.get("commit_order"), list):
            raise SpecificationError("commit_order must be an array")
        meta = data.get("meta", {})
        initial = data.get("initial", {})
        results = data.get("results", {})
        for label, value in (("meta", meta), ("initial", initial),
                             ("results", results)):
            if not isinstance(value, dict):
                raise SpecificationError(f"{label} must be an object")
        history = cls(
            commit_order=tuple(data["commit_order"]),
            steps=tuple(HistoryStep.from_dict(s) for s in raw_steps),
            cut_levels=cut_levels,
            results=dict(results),
            initial=dict(initial),
            depth=data.get("depth"),
            paths=(
                None
                if raw_paths is None
                else {t: tuple(p) for t, p in raw_paths.items()}
            ),
            meta=dict(meta),
            version=data["version"],
        )
        history.validate()
        recorded = data.get("sha256")
        if recorded is not None and recorded != history.digest():
            raise SpecificationError(
                f"history digest mismatch: file says {recorded}, "
                f"content hashes to {history.digest()}"
            )
        return history

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "History":
        return cls.from_dict(_load_object(text, "history"))


# ----------------------------------------------------------------------
# nest serialization
# ----------------------------------------------------------------------


def paths_from_nest(nest, items) -> tuple[int, dict[str, tuple[str, ...]]]:
    """Serialize a nest's placement of ``items`` as ``from_paths`` paths.

    Works for any nest exposing ``k``/``class_id`` (KNest, PathNest):
    level-``i`` class ids become the path labels, and because a k-nest's
    levels refine each other, two items share a class-id *prefix* exactly
    when they share the class — so ``KNest.from_paths`` on the output
    reconstructs an equivalent nest.  Returns ``(depth, paths)``.
    """
    depth = nest.k - 2
    paths = {
        str(t): tuple(
            str(nest.class_id(i, t)) for i in range(2, nest.k)
        )
        for t in items
    }
    return depth, paths


# ----------------------------------------------------------------------
# capture sinks (the engine seam)
# ----------------------------------------------------------------------


class HistorySink:
    """Null sink and sink interface.  An enabled sink is the first sink
    of the engine's decision stream (DESIGN.md §4e); a disabled one is
    never wired in, and no sink ever touches the engine rng."""

    enabled = False

    def on_decision(self, kind: str, tick: int, fields: dict) -> None:
        """The engine's sink interface: history keeps commits."""
        if kind == "txn.commit":
            self.on_commit(
                fields["txn"], fields["attempt"], tick, fields["steps"],
                fields["cut_levels"], fields["result"],
            )

    def on_commit(
        self,
        name: str,
        attempt: int,
        tick: int,
        entries: list[tuple[int, StepRecord]],
        cut_levels: dict[int, int],
        result: Any,
    ) -> None:  # pragma: no cover - never called while disabled
        pass

    def declare_path(self, name: str, path: tuple[str, ...]) -> None:
        pass

    def close(self) -> None:
        pass


#: The shared disabled sink every engine points at by default.
NULL_HISTORY = HistorySink()


class HistoryRecorder(HistorySink):
    """In-memory capture: accumulates commits and materialises a
    validated :class:`History` on demand.

    Each committed step is kept as a flat row ``(seq, txn, index,
    entity, kind, before, after)`` of JSON scalars — a tuple the cyclic
    GC stops tracking, like the engine's committed log — and becomes a
    :class:`HistoryStep` only in :meth:`history`."""

    enabled = True

    def __init__(
        self,
        initial: dict[str, Any] | None = None,
        depth: int | None = None,
        paths: dict[str, tuple[str, ...]] | None = None,
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.initial = dict(initial or {})
        self.depth = depth
        self._paths: dict[str, tuple[str, ...]] = {
            str(t): tuple(p) for t, p in (paths or {}).items()
        }
        self.meta = dict(meta or {})
        self.commit_order: list[str] = []
        self.cut_levels: dict[str, dict[int, int]] = {}
        self.results: dict[str, Any] = {}
        self.rows: list[tuple] = []

    def declare_path(self, name: str, path: tuple[str, ...]) -> None:
        self._paths[str(name)] = tuple(str(label) for label in path)

    def on_commit(self, name, attempt, tick, entries, cut_levels, result):
        self.commit_order.append(name)
        self.cut_levels[name] = dict(cut_levels)
        self.results[name] = result
        rows = self.rows
        for seq, record in entries:
            step = record.step
            rows.append((
                seq, step.transaction, step.index, record.entity,
                record.kind.value, record.value_before, record.value_after,
            ))

    def history(self) -> History:
        """The captured history so far, sorted into global seq order and
        validated (so a capture bug cannot produce an unreadable file)."""
        steps = tuple(
            HistoryStep(*row) for row in sorted(self.rows, key=itemgetter(0))
        )
        paths = None
        if self.depth is not None:
            paths = {
                name: self._paths[name]
                for name in self.commit_order
                if name in self._paths
            }
            missing = set(self.commit_order) - set(paths)
            if missing:
                raise SpecificationError(
                    f"no declared path for committed transactions "
                    f"{sorted(missing)}"
                )
        history = History(
            commit_order=tuple(self.commit_order),
            steps=steps,
            cut_levels={t: dict(c) for t, c in self.cut_levels.items()},
            results=dict(self.results),
            initial=dict(self.initial),
            depth=self.depth,
            paths=paths,
            meta=dict(self.meta),
        )
        history.validate()
        return history


class HistoryWriter(HistorySink):
    """Streaming JSONL capture: header at open, one line per commit,
    and a footer with counts + the canonical digest at :meth:`close`.

    The header is flushed as it is written; commit lines are buffered
    until :meth:`close` writes the footer.  A stream without its footer
    is unreadable by design, and a restarted server truncates it, so
    nothing is gained by flushing earlier.  The in-memory
    :class:`HistoryRecorder` it delegates to keeps the rows each commit
    line is built from."""

    enabled = True

    def __init__(
        self,
        path: str,
        initial: dict[str, Any] | None = None,
        depth: int | None = None,
        paths: dict[str, tuple[str, ...]] | None = None,
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.path = path
        self.depth = depth
        self._paths: dict[str, tuple[str, ...]] = {
            str(t): tuple(p) for t, p in (paths or {}).items()
        }
        self._recorder = HistoryRecorder(
            initial=initial, depth=depth, paths=self._paths, meta=meta
        )
        self._closed = False
        self._handle = open(path, "w", encoding="utf-8")
        self._write({
            "kind": "header",
            "version": HISTORY_FORMAT_VERSION,
            "meta": dict(meta or {}),
            "initial": dict(initial or {}),
            "depth": depth,
        })
        self._handle.flush()

    def _write(self, payload: dict) -> None:
        self._handle.write(_LINE_ENCODER.encode(payload) + "\n")

    def declare_path(self, name: str, path: tuple[str, ...]) -> None:
        clean = tuple(str(label) for label in path)
        self._paths[str(name)] = clean
        self._recorder.declare_path(name, clean)

    def on_commit(self, name, attempt, tick, entries, cut_levels, result):
        path = self._paths.get(name)
        if self.depth is not None and path is None:
            raise SpecificationError(
                f"committed transaction {name!r} has no declared nest path"
            )
        recorder = self._recorder
        start = len(recorder.rows)
        recorder.on_commit(name, attempt, tick, entries, cut_levels, result)
        self._write({
            "kind": "commit",
            "txn": name,
            "attempt": attempt,
            "tick": tick,
            "position": len(recorder.commit_order) - 1,
            "path": None if self.depth is None else list(path),
            "cut_levels": {
                str(gap): lvl for gap, lvl in sorted(cut_levels.items())
            },
            "result": result,
            "steps": [
                {
                    "seq": seq,
                    "index": index,
                    "entity": entity,
                    "kind": kind,
                    "before": before,
                    "after": after,
                }
                for seq, _, index, entity, kind, before, after
                in recorder.rows[start:]
            ],
        })

    def history(self) -> History:
        return self._recorder.history()

    def close(self) -> str | None:
        """Write the footer; returns the canonical digest (idempotent)."""
        if self._closed:
            return None
        self._closed = True
        recorder = self._recorder
        digest = recorder.history().digest()
        self._write({
            "kind": "footer",
            "commits": len(recorder.commit_order),
            "steps": len(recorder.rows),
            "sha256": digest,
        })
        self._handle.close()
        return digest


class TeeHistory(HistorySink):
    """Fan one capture stream out to several sinks (e.g. a JSONL writer
    plus the online monitor)."""

    def __init__(self, *sinks: HistorySink) -> None:
        self.sinks = tuple(s for s in sinks if s.enabled)
        self.enabled = bool(self.sinks)

    def declare_path(self, name, path):
        for sink in self.sinks:
            sink.declare_path(name, path)

    def on_commit(self, name, attempt, tick, entries, cut_levels, result):
        for sink in self.sinks:
            sink.on_commit(name, attempt, tick, entries, cut_levels, result)

    def close(self):
        for sink in self.sinks:
            sink.close()


# ----------------------------------------------------------------------
# import / conversion
# ----------------------------------------------------------------------


def history_from_result(
    result,
    nest=None,
    meta: dict[str, Any] | None = None,
) -> History:
    """Convert a completed :class:`EngineResult` into a :class:`History`
    (seqs are the record positions; the digest is unchanged by
    construction, which :meth:`History.digest` asserts round-trip)."""
    execution = result.execution
    depth = None
    paths = None
    if nest is not None:
        depth, paths = paths_from_nest(nest, execution.transactions)
    steps = tuple(
        HistoryStep(
            seq=position,
            transaction=record.step.transaction,
            index=record.step.index,
            entity=record.entity,
            kind=record.kind.value,
            before=record.value_before,
            after=record.value_after,
        )
        for position, record in enumerate(execution.records)
    )
    history = History(
        commit_order=tuple(result.commit_order),
        steps=steps,
        cut_levels={t: dict(c) for t, c in result.cut_levels.items()},
        results=dict(result.results),
        initial=dict(execution.initial_values),
        depth=depth,
        paths=paths,
        meta=dict(meta or {}),
    )
    history.validate()
    return history


def _history_from_jsonl(lines: list[tuple[int, dict]]) -> History:
    header: dict | None = None
    footer: dict | None = None
    commits: list[dict] = []
    for number, payload in lines:
        kind = payload.get("kind")
        if kind == "header":
            if header is not None:
                raise SpecificationError(
                    f"line {number}: duplicate header"
                )
            _require_keys(
                payload,
                {"kind", "version", "meta", "initial", "depth"},
                set(),
                "history header",
            )
            header = payload
        elif kind == "commit":
            if header is None:
                raise SpecificationError(
                    f"line {number}: commit before header"
                )
            if footer is not None:
                raise SpecificationError(
                    f"line {number}: commit after footer"
                )
            _require_keys(
                payload,
                {"kind", "txn", "attempt", "tick", "position", "path",
                 "cut_levels", "result", "steps"},
                set(),
                "history commit",
            )
            commits.append(payload)
        elif kind == "footer":
            _require_keys(
                payload,
                {"kind", "commits", "steps", "sha256"},
                set(),
                "history footer",
            )
            footer = payload
        else:
            raise SpecificationError(
                f"line {number}: unknown history line kind {kind!r}"
            )
    if header is None:
        raise SpecificationError("history stream has no header line")
    if footer is None:
        raise SpecificationError(
            "history stream has no footer (truncated capture?)"
        )
    if footer["commits"] != len(commits):
        raise SpecificationError(
            f"footer promises {footer['commits']} commits, "
            f"stream holds {len(commits)}"
        )
    depth = header["depth"]
    recorder = HistoryRecorder(
        initial=header["initial"], depth=depth, meta=header["meta"]
    )
    for payload in commits:
        name = payload["txn"]
        if depth is not None:
            path = payload["path"]
            if not isinstance(path, list):
                raise SpecificationError(
                    f"commit {name!r} must carry a nest path "
                    f"(stream depth {depth})"
                )
            recorder.declare_path(name, tuple(path))
        steps = payload["steps"]
        if not isinstance(steps, list):
            raise SpecificationError(f"commit {name!r}: steps must be an array")
        entries = []
        for raw in steps:
            _require_keys(
                raw,
                {"seq", "index", "entity", "kind", "before", "after"},
                set(),
                "history commit step",
            )
            try:
                kind = StepKind(raw["kind"])
            except ValueError as exc:
                raise SpecificationError(
                    f"commit {name!r}: unknown step kind {raw['kind']!r}"
                ) from exc
            entries.append((
                raw["seq"],
                StepRecord(
                    step=StepId(name, raw["index"]),
                    entity=raw["entity"],
                    kind=kind,
                    value_before=raw["before"],
                    value_after=raw["after"],
                ),
            ))
        raw_cuts = payload["cut_levels"]
        if not isinstance(raw_cuts, dict):
            raise SpecificationError(
                f"commit {name!r}: cut_levels must be an object"
            )
        try:
            cuts = {int(gap): lvl for gap, lvl in raw_cuts.items()}
        except (TypeError, ValueError) as exc:
            raise SpecificationError(
                f"commit {name!r}: bad cut gap key"
            ) from exc
        recorder.on_commit(
            name,
            payload["attempt"],
            payload["tick"],
            entries,
            cuts,
            payload["result"],
        )
    history = recorder.history()
    if history.digest() != footer["sha256"]:
        raise SpecificationError(
            f"history digest mismatch: footer says {footer['sha256']}, "
            f"content hashes to {history.digest()}"
        )
    return history


def load_history(path: str) -> History:
    """Read a history file — JSONL stream or single JSON object, sniffed
    from the first line — validating everything on the way in."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SpecificationError(f"cannot read history {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecificationError(
            f"history file {path!r} is not UTF-8 text: {exc}"
        ) from exc
    stripped = text.lstrip()
    if not stripped:
        raise SpecificationError(f"history file {path!r} is empty")
    lines = [
        line.strip() for line in text.splitlines() if line.strip()
    ]
    first = _load_object(lines[0], "history line 1")
    if "kind" not in first:
        if len(lines) != 1:
            raise SpecificationError(
                "single-object history files must hold exactly one line"
            )
        return History.from_dict(first)
    parsed = [(1, first)]
    for number, line in enumerate(lines[1:], start=2):
        parsed.append((number, _load_object(line, f"history line {number}")))
    return _history_from_jsonl(parsed)
