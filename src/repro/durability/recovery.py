"""Recovery: snapshot + deterministic WAL-suffix replay.

The engine re-derives every decision from its inputs, so recovery does
not *apply* the log — it re-executes the engine from the latest usable
snapshot (or genesis) with the WAL in verify mode, which checks each
re-derived decision against the logged one.  The replay is asserted
bitwise-identical: any mismatch, leftover logged decision, or extra
re-derived decision raises :class:`repro.errors.RecoveryError`.

The *round-up rule* handles a crash mid-tick: replay runs through the
last logged tick, verify consumes the logged prefix of that tick, and
once the logged decisions drain the WAL flips to append mode — the
re-executed remainder of the torn tick is appended to the same log.
Safe because results are only acknowledged after a flush, so the
appended remainder can only cover unacknowledged work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.durability.snapshot import load_latest_snapshot
from repro.durability.wal import (
    DECISION_TYPES,
    EngineWal,
    decision_row,
    decode_record,
)
from repro.errors import RecoveryError

__all__ = ["LoggedAdd", "RecoveryReport", "recover"]

#: What recovery reads from every ``add`` record.
_ADD_FIELDS = ("name", "spec", "arrival", "entities")


class LoggedAdd(NamedTuple):
    """What an ``add`` record leaves once recovery has compiled its spec
    and declared its entities: the four fields the restarted service
    reads.  ``key`` is None when the record carries none."""

    name: str
    arrival: int
    key: str | None
    path: tuple


@dataclass
class RecoveryReport:
    """What :func:`recover` rebuilt.

    ``adds`` holds one :class:`LoggedAdd` per logged ``add`` record, in
    log order, not the records themselves: a reader that needs a whole
    spec reads it from the log.  ``records`` counts the log's frames and
    ``replayed`` the logged decisions verify mode matched."""

    engine: Any
    wal: EngineWal
    nest: Any
    genesis: dict
    adds: list[LoggedAdd] = field(default_factory=list)
    horizon: int = 0
    snapshot_tick: int | None = None
    truncated: bool = False
    records: int = 0
    replayed: int = 0


def recover(
    directory: str,
    *,
    wal: EngineWal | None = None,
    use_snapshot: bool = True,
    tracer=None,
    registry=None,
) -> RecoveryReport:
    """Recover an engine from ``directory``'s WAL (+ snapshots).

    ``wal`` is the log when the caller has already opened it (opening
    reads and CRC-scans the whole file, so the service hands over the
    one it opened to see whether there was anything to recover);
    otherwise it is opened here.

    The log is the only source: programs compile from the declarative
    specs of the genesis and ``add`` records, and the nest and the
    scheduler are rebuilt from the genesis record.  A genesis program
    with no spec (a native generator, which cannot be serialised) is a
    :class:`RecoveryError`, as is a checksum-valid frame that does not
    hold a well-formed record.  The returned WAL stays attached to the
    engine in append mode, so post-recovery execution extends the same
    log.

    Each frame's bytes are dropped as the frame is decoded, and each
    record as soon as it is read: a decision is kept as its
    :func:`decision_row` (strings shared across rows) until replay
    matches it, an ``add`` as its :class:`LoggedAdd`.
    """
    from repro.api import ProgramSpec, make_scheduler
    from repro.core.nests import KNest
    from repro.engine.runtime import Engine

    if wal is None:
        wal = EngineWal(directory)
    durable_end = wal.log.tell()
    payloads, offsets = wal.log.take()
    if not payloads:
        raise RecoveryError(f"write-ahead log in {directory!r} is empty")
    genesis = _decode(payloads, 0)
    if genesis.get("t") != "genesis":
        raise RecoveryError(
            f"log does not start with a genesis record (got "
            f"{genesis.get('t')!r})"
        )
    snap = None
    if use_snapshot:
        snap = load_latest_snapshot(directory, max_wal_offset=durable_end)
    covered = snap["wal_offset"] if snap is not None else 0

    # -- one pass over the log ------------------------------------------
    # Inputs (``add``) rebuild the workload whatever the snapshot
    # covers; decisions and entity declarations matter only past it.
    genesis_specs = genesis.get("specs", {})
    table = {
        name: ProgramSpec.from_dict(spec).compile()
        for name, spec in genesis_specs.items()
    }
    arrivals = {name: arrival for name, arrival in genesis["programs"]}
    order = [name for name, _ in genesis["programs"]]
    nest = KNest(genesis.get("meta", {}).get("nest_depth", 1))
    for name in order:
        if name in genesis_specs:
            nest.add(name, tuple(genesis_specs[name].get("path", ())))
    adds: list[LoggedAdd] = []
    declared: list[list] = []
    decisions: list[tuple] = []
    strings: dict[str, str] = {}
    horizon = snap["tick"] if snap is not None else 0
    for index in range(1, len(payloads)):
        record = _decode(payloads, index)
        kind = record.get("t")
        if kind == "add":
            try:
                name, spec, arrival, entities = (
                    record[field] for field in _ADD_FIELDS
                )
            except KeyError as exc:
                raise RecoveryError(
                    f"add record {index} of the write-ahead log lacks "
                    f"{exc.args[0]!r}"
                ) from None
            path = tuple(spec.get("path", ()))
            adds.append(LoggedAdd(name, arrival, record.get("key"), path))
            order.append(name)
            arrivals[name] = arrival
            if name not in table:
                table[name] = ProgramSpec.from_dict(spec).compile()
            nest.add(name, path)
            if offsets[index] >= covered:
                declared.append(entities)
        elif kind in DECISION_TYPES:
            if offsets[index] < covered:
                continue
            try:
                row = decision_row(record, strings)
            except RecoveryError as exc:
                raise RecoveryError(
                    f"record {index} of the write-ahead log: {exc}"
                ) from None
            if type(row[1]) is not int:
                raise RecoveryError(
                    f"record {index} of the write-ahead log has tick "
                    f"{row[1]!r}, not an int"
                )
            decisions.append(row)
            if row[1] > horizon:
                horizon = row[1]
        else:
            raise RecoveryError(
                f"record {index} of the write-ahead log has unknown "
                f"type {kind!r}"
            )
    records = len(payloads)
    del payloads, offsets
    missing = [name for name in arrivals if name not in table]
    if missing:
        raise RecoveryError(
            f"no program spec in the log for {sorted(missing)}"
        )

    engine = Engine(
        [table[name] for name in order],
        dict(genesis["initial"]),
        make_scheduler(genesis["scheduler"], nest),
        seed=genesis["seed"],
        arrivals=arrivals,
        max_ticks=genesis["max_ticks"],
        stall_limit=genesis["stall_limit"],
        backoff=genesis["backoff"],
        recovery=genesis["recovery"],
        tracer=tracer,
        registry=registry,
        wal=wal,
    )
    if snap is not None:
        engine.restore_state(snap["state"])
        wal.note_snapshot_tick(snap["tick"])
    # Entities declared by ingests the restored state does not cover
    # (all of them when replaying from genesis — declare is idempotent
    # and order-faithful to the live ingest path).
    for entities in declared:
        for entity, value in entities:
            engine.store.declare(entity, value)

    # -- replay ---------------------------------------------------------
    wal.begin_verify(decisions)
    del decisions  # verify mode frees each logged decision as it matches
    if horizon > engine.tick:
        engine.advance(until_tick=horizon)
    wal.finish_verify()
    return RecoveryReport(
        engine=engine,
        wal=wal,
        nest=nest,
        genesis=genesis,
        adds=adds,
        horizon=horizon,
        snapshot_tick=snap["tick"] if snap is not None else None,
        truncated=wal.log.truncated,
        records=records,
        replayed=wal.verified,
    )


def _decode(payloads: list, index: int) -> dict:
    """Frame ``index``'s record, decoded; the frame's bytes are released
    as they are read.  A checksum-valid frame that does not hold a
    record dict with a string type ``t`` is a :class:`RecoveryError`
    naming the record."""
    payload = payloads[index]
    payloads[index] = None
    try:
        record = decode_record(payload)
    except Exception as exc:  # unpickling can raise almost any type
        raise RecoveryError(
            f"record {index} of the write-ahead log does not decode: "
            f"{type(exc).__name__}: {exc}"
        ) from None
    if not isinstance(record, dict):
        raise RecoveryError(
            f"record {index} of the write-ahead log is a "
            f"{type(record).__name__}, not a record"
        )
    if type(record.get("t")) is not str:
        raise RecoveryError(
            f"record {index} of the write-ahead log has no type "
            f"(t={record.get('t')!r})"
        )
    return record
