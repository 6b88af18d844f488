"""The portable history format and its export from an engine.

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
* **JSONL** — the stream :class:`HistoryExport` writes at close: a
  ``header`` line, one ``commit`` line per committed transaction (its
  records, declared cut levels, nest path and result), and a ``footer``
  carrying its counts and the canonical SHA-256 — the same
  :func:`repro.model.execution.canonical_digest`
  :meth:`repro.engine.runtime.EngineResult.history_digest` computes, so
  a captured file cross-checks against the engine's own result.

Both forms are read by one validator: :func:`load_history` checks only
a stream's framing (line kinds and order, key sets, the footer's
counts), reshapes it into the single-object dict and hands that to
:meth:`History.from_dict`, which makes every value check.

A history is exported from the engine's committed log, the one
per-commit copy of a commit (DESIGN.md §4g): :class:`HistoryExport`
writes the JSONL file from ``Engine.records`` when it is closed, and
:func:`export_history` builds the same history in memory.  Nothing is
captured while the engine runs.  :class:`HistorySink` remains the
engine's commit seam for live consumers (the online monitor); sinks
never touch the engine rng, so observed runs are bit-identical to bare
runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Any, Iterator

from repro.errors import (
    ExecutionError,
    SpecificationError,
    load_json_object,
    require_keys,
)
from repro.model.breakpoints import spec_for_execution
from repro.model.execution import Execution, canonical_digest
from repro.model.steps import StepId, StepKind, StepRecord

__all__ = [
    "HISTORY_FORMAT_VERSION",
    "History",
    "HistoryExport",
    "HistorySink",
    "HistoryStep",
    "NULL_HISTORY",
    "export_history",
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


def _int_ok(value: Any) -> bool:
    """A JSON integer (``bool`` is an ``int`` subclass, not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


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
        require_keys(
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

    def validate(self) -> Execution:
        """Check every structural invariant of format v1; raises
        :class:`SpecificationError` (never anything else) on violation.
        Returns the committed execution it checked, so a caller that
        goes on to read it need not build it again.  A history does not
        change, so the check runs once: a later call returns the
        execution the first one built."""
        return self._checked

    @cached_property
    def _checked(self) -> Execution:
        version = self.version
        if not _int_ok(version) or version != HISTORY_FORMAT_VERSION:
            raise SpecificationError(
                f"unsupported history format version {version!r} "
                f"(this build reads version {HISTORY_FORMAT_VERSION})"
            )
        if not all(isinstance(name, str) for name in self.commit_order):
            raise SpecificationError("commit_order names must be strings")
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
            if not _int_ok(step.seq):
                raise SpecificationError(f"step seq {step.seq!r} not an int")
            if last_seq is not None and step.seq <= last_seq:
                raise SpecificationError(
                    f"step seqs must strictly increase "
                    f"({step.seq} after {last_seq})"
                )
            last_seq = step.seq
            if not (
                isinstance(step.transaction, str)
                and isinstance(step.entity, str)
            ):
                raise SpecificationError(
                    f"step {step.seq}: transaction and entity must be strings"
                )
            if not _int_ok(step.index):
                raise SpecificationError(f"step {step.seq}: index not an int")
            if step.transaction not in committed:
                raise SpecificationError(
                    f"step {step.seq} belongs to uncommitted transaction "
                    f"{step.transaction!r}"
                )
            if not isinstance(step.kind, str) or step.kind not in _KINDS:
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
                if not _int_ok(gap) or gap < 0:
                    raise SpecificationError(
                        f"{name!r}: gap index {gap!r} must be a "
                        f"non-negative int"
                    )
                if not _int_ok(level) or level < 1:
                    raise SpecificationError(
                        f"{name!r}: breakpoint level {level!r} must be a "
                        f"positive int"
                    )
        if (self.depth is None) != (self.paths is None):
            raise SpecificationError(
                "depth and paths must be given together (or both omitted)"
            )
        if self.paths is not None:
            if not _int_ok(self.depth) or self.depth < 0:
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
        execution = self.execution()
        try:
            execution.validate()
        except ExecutionError as exc:
            raise SpecificationError(
                f"history is not a valid execution: {exc}"
            ) from exc
        return execution

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
        :meth:`EngineResult.history_digest` computes over the same run;
        hashed once per history."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
        return canonical_digest(
            (s.transaction, s.index, s.entity, s.kind, s.before, s.after)
            for s in self.steps
        )

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
        require_keys(
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
        for name, path in (raw_paths or {}).items():
            if not isinstance(path, list):
                raise SpecificationError(
                    f"path for {name!r} must be an array, got {path!r}"
                )
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
        return cls.from_dict(load_json_object(text, "history"))


# ----------------------------------------------------------------------
# nest serialization
# ----------------------------------------------------------------------


def paths_from_nest(nest, items) -> tuple[int, dict[str, tuple[str, ...]]]:
    """Serialize a nest's placement of ``items`` as ``from_paths`` paths.

    Level-``i`` class ids become the path labels, and because a k-nest's
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
    #: History reads commits; the engine hands it no other decision.
    reads = frozenset({"txn.commit"})

    def on_decision(self, kind: str, tick: int, fields: dict) -> None:
        """The engine's sink interface: every call is a commit."""
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

    def close(self) -> None:
        pass


#: The shared disabled sink every engine points at by default.
NULL_HISTORY = HistorySink()


# ----------------------------------------------------------------------
# export (from an engine's committed log)
# ----------------------------------------------------------------------


def _header(initial, depth, meta) -> dict:
    return {
        "kind": "header",
        "version": HISTORY_FORMAT_VERSION,
        "meta": dict(meta or {}),
        "initial": dict(initial or {}),
        "depth": depth,
    }


def _commit_lines(engine, depth, path_of) -> Iterator[dict]:
    """One commit line per packed record of ``engine.records``, in
    commit order; ``path_of(name)`` places each in the nest when
    ``depth`` is given."""
    from repro.engine.runtime import unpack_commit

    for position, packed in enumerate(engine.records):
        commit = unpack_commit(packed)
        yield {
            "kind": "commit",
            "txn": commit.name,
            "attempt": commit.attempt,
            "tick": commit.commit_tick,
            "position": position,
            "path": (
                None if depth is None
                else [str(label) for label in path_of(commit.name)]
            ),
            "cut_levels": {
                str(gap): lvl for gap, lvl in sorted(commit.cut_levels.items())
            },
            "result": commit.result,
            "steps": [
                {"seq": seq, "index": index, "entity": entity, "kind": kind,
                 "before": before, "after": after}
                for seq, index, entity, kind, before, after in commit.rows
            ],
        }


def export_history(
    engine, initial=None, depth=None, path_of=None, meta=None
) -> History:
    """``engine``'s committed history as a validated :class:`History`:
    the lines :class:`HistoryExport` writes, read without a file."""
    lines = [_header(initial, depth, meta), *_commit_lines(
        engine, depth, path_of
    )]
    return _history_from_jsonl(list(enumerate(lines, start=1)), sealed=False)


class HistoryExport(HistorySink):
    """The JSONL form of an engine's committed log, written at close.

    The engine's packed commit records are the only per-commit copy of
    a commit, so nothing is captured while the engine runs: opening
    truncates ``path`` and writes the header, and :meth:`close` walks
    ``engine.records`` in commit order, writes one commit line per
    record and then the footer.  A durable engine reads the records a
    checkpoint covers back from its records file, a restarted one those
    of the run before the restart too, and ``path_of`` (name -> nest
    path) reads theirs from there: the file covers the whole run, and
    may be written after the WAL has closed.

    It is a sink no engine is handed (``on_commit`` is never called); a
    stream without its footer is unreadable by design."""

    enabled = True

    def __init__(
        self,
        path: str,
        engine,
        path_of=None,
        initial: dict[str, Any] | None = None,
        depth: int | None = None,
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.path = path
        self.engine = engine
        self.path_of = path_of
        self.depth = depth
        self.commits = 0
        self.steps = 0
        self._closed = False
        self._handle = open(path, "w", encoding="utf-8")
        self._write(_header(initial, depth, meta))
        self._handle.flush()

    def _write(self, payload: dict) -> None:
        self._handle.write(_LINE_ENCODER.encode(payload) + "\n")

    def close(self) -> str | None:
        """Write the commit lines and the footer; returns the canonical
        digest (idempotent).

        The footer's digest is hashed from the steps as written, and
        must equal :meth:`Engine.history_digest`, which reads them from
        the engine's committed records: a mismatch raises
        :class:`SpecificationError` and leaves the file without a
        footer."""
        if self._closed:
            return None
        self._closed = True
        from repro.engine.runtime import seq_ordered

        try:
            steps = seq_ordered(self.engine.records, self._written())
            digest = canonical_digest(step[1:] for step in steps)
            expected = self.engine.history_digest()
            if digest != expected:
                raise SpecificationError(
                    f"history export to {self.path!r} hashes to {digest}, "
                    f"the engine's committed execution to {expected}"
                )
            self._write({
                "kind": "footer",
                "commits": self.commits,
                "steps": self.steps,
                "sha256": digest,
            })
        finally:
            self._handle.close()
        return digest

    def _written(self) -> Iterator[list[tuple]]:
        """Write each commit line; yield its steps as seq-led rows."""
        for line in _commit_lines(self.engine, self.depth, self.path_of):
            self._write(line)
            name = line["txn"]
            steps = [
                (s["seq"], name, s["index"], s["entity"], s["kind"],
                 s["before"], s["after"])
                for s in line["steps"]
            ]
            self.commits += 1
            self.steps += len(steps)
            yield steps


# ----------------------------------------------------------------------
# import
# ----------------------------------------------------------------------


#: The key set of each JSONL line, by its ``kind``.
_LINE_KEYS = {
    "header": {"kind", "version", "meta", "initial", "depth"},
    "commit": {"kind", "txn", "attempt", "tick", "position", "path",
               "cut_levels", "result", "steps"},
    "footer": {"kind", "commits", "steps", "sha256"},
}


def _history_from_jsonl(
    lines: list[tuple[int, dict]], sealed: bool = True
) -> History:
    """Check a stream's framing and reshape it into the single-object
    form; :meth:`History.from_dict` makes every value check, so both
    forms are read by one validator.

    An unsealed stream is an export read without its file
    (:func:`export_history`): there are no promised counts or digest to
    check."""
    header: dict | None = None
    footer: dict | None = None
    commits: list[dict] = []
    for number, payload in lines:
        kind = payload.get("kind")
        if not isinstance(kind, str) or kind not in _LINE_KEYS:
            raise SpecificationError(
                f"line {number}: unknown history line kind {kind!r}"
            )
        if (kind == "header") != (header is None) or footer is not None:
            raise SpecificationError(
                f"line {number}: {kind} line out of order (one header, "
                f"then commits, then one footer)"
            )
        require_keys(payload, _LINE_KEYS[kind], set(), f"history {kind}")
        if kind == "header":
            header = payload
        elif kind == "commit":
            commits.append(payload)
        else:
            footer = payload
    if header is None:
        raise SpecificationError("history stream has no header line")
    if sealed and footer is None:
        raise SpecificationError(
            "history stream has no footer (truncated capture?)"
        )
    steps: list[dict] = []
    for payload in commits:
        name = payload["txn"]
        if not isinstance(name, str):
            raise SpecificationError(f"commit txn {name!r} must be a string")
        if not isinstance(payload["steps"], list):
            raise SpecificationError(f"commit {name!r}: steps must be an array")
        for raw in payload["steps"]:
            require_keys(
                raw,
                {"seq", "index", "entity", "kind", "before", "after"},
                set(),
                "history commit step",
            )
            if not _int_ok(raw["seq"]):
                raise SpecificationError(f"commit {name!r}: seq not an int")
            steps.append({**raw, "transaction": name})
    if sealed:
        for label, count in (
            ("commits", len(commits)), ("steps", len(steps))
        ):
            promised = footer[label]
            if not _int_ok(promised) or promised != count:
                raise SpecificationError(
                    f"footer promises {promised!r} {label}, stream holds "
                    f"{count}"
                )
        if not isinstance(footer["sha256"], str):
            raise SpecificationError("footer sha256 must be a string")
    paths = {c["txn"]: c["path"] for c in commits}
    if header["depth"] is None and all(p is None for p in paths.values()):
        paths = None
    steps.sort(key=itemgetter("seq"))
    return History.from_dict({
        "version": header["version"],
        "meta": header["meta"],
        "initial": header["initial"],
        "depth": header["depth"],
        "paths": paths,
        "commit_order": [c["txn"] for c in commits],
        "cut_levels": {c["txn"]: c["cut_levels"] for c in commits},
        "results": {c["txn"]: c["result"] for c in commits},
        "steps": steps,
        "sha256": footer["sha256"] if sealed else None,
    })


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
    first = load_json_object(lines[0], "history line 1")
    if "kind" not in first:
        if len(lines) != 1:
            raise SpecificationError(
                "single-object history files must hold exactly one line"
            )
        return History.from_dict(first)
    parsed = [(1, first)]
    for number, line in enumerate(lines[1:], start=2):
        parsed.append(
            (number, load_json_object(line, f"history line {number}"))
        )
    return _history_from_jsonl(parsed)
