"""Executions, the dependency order and equivalence (Section 3.1).

An execution is a totally ordered set of performed steps.  Its
*dependency partial order* ``<=_e`` relates ``a <=_e b`` when ``a``
precedes ``b`` and they involve the same transaction or access the same
entity; any reordering consistent with ``<=_e`` is again an execution with
the same per-entity value sequences and per-transaction state sequences,
and two executions are *equivalent* when their dependency orders are
identical.

We keep the generating edges sparse: the immediate same-transaction
predecessor and the immediate same-entity predecessor of each step.
Same-transaction steps form a chain and same-entity steps form a chain,
so the transitive closure of these immediate edges is exactly ``<=_e``.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import islice

from repro.core.reach import transitive_pairs
from repro.errors import ExecutionError
from repro.model.steps import StepId, StepKind, StepRecord

__all__ = ["EntityFold", "Execution", "RowDigest", "canonical_digest"]


#: Rows :func:`canonical_digest` encodes per ``json.dumps`` call.
_DIGEST_CHUNK = 1024


def canonical_digest(rows: Iterable[tuple]) -> str:
    """SHA-256 of a committed history, given its performed steps in
    order as ``(transaction, index, entity, kind, before, after)`` rows.

    This is the one canonical rule behind both the engine's result
    digest and a portable history's: each row becomes ``[transaction,
    index, entity, kind, repr(before), repr(after)]``, and the compact
    JSON array of those is hashed.  Two runs produced the same execution
    exactly when their digests agree.  The array is encoded and hashed
    ``_DIGEST_CHUNK`` rows at a time, so hashing a long history holds
    one chunk's encoding, not the whole array's.
    """
    sha = hashlib.sha256(b"[")
    rows = iter(rows)
    separator = b""
    while chunk := list(islice(rows, _DIGEST_CHUNK)):
        canon = [
            [txn, index, entity, kind, repr(before), repr(after)]
            for txn, index, entity, kind, before, after in chunk
        ]
        # The compact encoding of a list is its items' joined by ",".
        encoded = json.dumps(canon, separators=(",", ":"))[1:-1]
        sha.update(separator + encoded.encode())
        separator = b","
    sha.update(b"]")
    return sha.hexdigest()


class RowDigest:
    """SHA-256 over a stream of rows, each hashed by :func:`canonical_digest`'s
    rule for values: as its ``repr``.  ``add`` folds in one row,
    ``take`` returns the hex digest of the rows added since the last
    ``take`` and starts afresh.  Equal row streams of strings, numbers,
    lists and tuples digest equally in any process, whatever its hash
    seed."""

    __slots__ = ("_sha", "rows")

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.rows = 0

    def add(self, row: tuple) -> None:
        self._sha.update(repr(row).encode())
        self.rows += 1

    def take(self) -> str:
        digest = self._sha.hexdigest()
        self._sha = hashlib.sha256()
        self.rows = 0
        return digest


class EntityFold:
    """Streaming derivation of entity dependency edges — the one place
    that knows the conflict models.

    Feeding accesses in performed order yields each step's immediate
    same-entity predecessors: under ``"all"`` (paper-faithful, Section
    3.1) the entity's previous access, reads included; under ``"rw"``
    (classical: two reads commute) reads depend on the last write and
    writes on the last write plus the reads since it.
    """

    __slots__ = ("conflicts", "_last", "_last_write", "_reads_since")

    def __init__(self, conflicts: str) -> None:
        self.conflicts = conflicts
        self._last: dict[str, StepId] = {}
        self._last_write: dict[str, StepId] = {}
        self._reads_since: dict[str, list[StepId]] = {}

    def feed(
        self, step: StepId, entity: str, kind: StepKind
    ) -> list[tuple[StepId, StepId]]:
        edges: list[tuple[StepId, StepId]] = []
        if self.conflicts == "all":
            prev = self._last.get(entity)
            if prev is not None:
                edges.append((prev, step))
        elif kind is StepKind.READ:
            write = self._last_write.get(entity)
            if write is not None:
                edges.append((write, step))
            self._reads_since.setdefault(entity, []).append(step)
        else:
            write = self._last_write.get(entity)
            if write is not None:
                edges.append((write, step))
            edges.extend(
                (reader, step)
                for reader in self._reads_since.get(entity, [])
                if reader != step
            )
            self._last_write[entity] = step
            self._reads_since[entity] = []
        self._last[entity] = step
        return edges

    def copy(self) -> "EntityFold":
        other = EntityFold.__new__(EntityFold)
        other.conflicts = self.conflicts
        other._last = dict(self._last)
        other._last_write = dict(self._last_write)
        other._reads_since = {
            e: list(r) for e, r in self._reads_since.items()
        }
        return other


@dataclass
class Execution:
    """A totally ordered sequence of performed step records, plus the
    initial entity values they started from.  ``records`` is indexed at
    construction and must not be mutated afterwards."""

    records: list[StepRecord]
    initial_values: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        by_step: dict[StepId, StepRecord] = {}
        by_txn: dict[str, list[StepRecord]] = {}
        for record in self.records:
            if record.step in by_step:
                raise ExecutionError(f"step {record.step} performed twice")
            by_step[record.step] = record
            by_txn.setdefault(record.step.transaction, []).append(record)
        self._by_step = by_step
        self._by_txn = by_txn

    # ------------------------------------------------------------------
    # shape queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    @property
    def steps(self) -> list[StepId]:
        return [r.step for r in self.records]

    @property
    def transactions(self) -> list[str]:
        """Transaction ids in order of first appearance."""
        return list(self._by_txn)

    def steps_of(self, transaction: str) -> list[StepId]:
        return [r.step for r in self._by_txn.get(transaction, ())]

    def records_of(self, transaction: str) -> list[StepRecord]:
        return list(self._by_txn.get(transaction, ()))

    def record_of(self, step: StepId) -> StepRecord:
        try:
            return self._by_step[step]
        except KeyError:
            raise ExecutionError(f"no record for step {step}") from None

    # ------------------------------------------------------------------
    # dependency order
    # ------------------------------------------------------------------

    def dependency_edges(
        self, conflicts: str = "all"
    ) -> list[tuple[StepId, StepId]]:
        """Immediate generating edges of ``<=_e``: each step's
        same-transaction predecessor, then its same-entity predecessors
        under the ``conflicts`` model (see :class:`EntityFold`; ``"rw"``,
        where two reads commute, serves audits of outside histories).
        """
        if conflicts not in ("all", "rw"):
            raise ExecutionError(f"unknown conflict model {conflicts!r}")
        edges: list[tuple[StepId, StepId]] = []
        last_of_txn: dict[str, StepId] = {}
        fold = EntityFold(conflicts)
        for record in self.records:
            step = record.step
            prev_t = last_of_txn.get(step.transaction)
            if prev_t is not None:
                edges.append((prev_t, step))
            edges.extend(
                edge
                for edge in fold.feed(step, record.entity, record.kind)
                if edge[0] != prev_t
            )
            last_of_txn[step.transaction] = step
        return edges

    def dependency_pairs(self, conflicts: str = "all") -> set[tuple[StepId, StepId]]:
        """The full dependency partial order as explicit pairs
        (transitive closure of the generating edges).

        The generating edges all point forward along the performed
        order, so one reverse bitset sweep suffices — output-linear,
        no graph object, no per-node searches."""
        return transitive_pairs(
            self.steps, self.dependency_edges(conflicts)
        )

    def equivalent(self, other: "Execution", conflicts: str = "all") -> bool:
        """Section 3.1 equivalence: identical dependency orders (which
        requires identical step sets)."""
        if set(self.steps) != set(other.steps):
            return False
        return self.dependency_pairs(conflicts) == other.dependency_pairs(conflicts)

    # ------------------------------------------------------------------
    # consistency (Section 3.1 requirements)
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the Section 3.1 consistency requirements: every access to
        an internal entity sees the value left by the previous access (or
        the initial value), and steps of one transaction appear in index
        order."""
        current = dict(self.initial_values)
        next_index: dict[str, int] = {}
        for record in self.records:
            step = record.step
            expected_index = next_index.get(step.transaction, 0)
            if step.index != expected_index:
                raise ExecutionError(
                    f"{step}: expected index {expected_index} for "
                    f"transaction {step.transaction!r}"
                )
            next_index[step.transaction] = expected_index + 1
            if record.entity in current:
                if current[record.entity] != record.value_before:
                    raise ExecutionError(
                        f"{step}: read {record.value_before!r} from "
                        f"{record.entity!r} but the previous access left "
                        f"{current[record.entity]!r}"
                    )
            current[record.entity] = record.value_after

    def is_valid(self) -> bool:
        try:
            self.validate()
        except ExecutionError:
            return False
        return True

    # ------------------------------------------------------------------
    # reordering
    # ------------------------------------------------------------------

    def reorder(self, order: Sequence[StepId]) -> "Execution":
        """The execution obtained by performing the same step records in a
        different total order.

        The reordering must be consistent with the dependency order —
        then, by the fundamental property of the model, the result is a
        valid execution with identical value sequences.  We *check*
        rather than assume: the reordered execution is validated, so a
        non-equivalent order raises :class:`~repro.errors.ExecutionError`.
        """
        by_step = self._by_step
        if set(order) != set(by_step):
            raise ExecutionError("reorder must permute exactly the same steps")
        reordered = Execution(
            [by_step[s] for s in order], dict(self.initial_values)
        )
        reordered.validate()
        return reordered

    def entity_value_sequences(self) -> dict[str, list]:
        """Per-entity sequences of values written (including reads'
        unchanged values) — the observable the equivalence notion
        preserves."""
        out: dict[str, list] = {}
        for record in self.records:
            out.setdefault(record.entity, []).append(record.value_after)
        return out

    def restrict(self, transactions: Iterable[str]) -> "Execution":
        """The sub-execution of the given transactions' steps (used when
        deriving per-transaction executions e_t)."""
        keep = set(transactions)
        return Execution(
            [r for r in self.records if r.step.transaction in keep],
            dict(self.initial_values),
        )

    def __repr__(self) -> str:
        return (
            f"Execution({len(self.records)} steps, "
            f"{len(set(self.transactions))} transactions)"
        )
