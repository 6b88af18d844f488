"""Recovery: rebuild the engine from its logged inputs and replay it.

The WAL holds the engine's inputs — genesis and the ``add`` records —
and one check frame per flush (:mod:`repro.durability.wal`), so
recovery does not *apply* the log.  It registers every logged program,
restores the latest usable snapshot, and re-runs the engine to the tick
of each check frame past that snapshot, comparing the frame with the one
the replay re-derives (:meth:`EngineWal.check`): the decisions' digest
and the commit count.  A mismatch is a :class:`repro.errors.RecoveryError`
that names the check frame's tick, so replay stays a proof, checked
once per pump slice.

``add`` records after the last check frame are admissions no reply was
sent for.  Recovery registers them with the rest; replay stops at the
last check frame's tick, and the restarted engine runs them (the
service's pump starts on its own when the engine has work), extending
the same log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.durability.snapshot import load_latest_snapshot
from repro.durability.wal import (
    CHECK_FIELDS,
    LOG_FORMAT,
    EngineWal,
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
    ``replayed`` the check frames replay matched; ``horizon`` is the
    tick replay ended at."""

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
    scheduler are rebuilt from the genesis record.  A log of another
    format, a genesis program with no spec (a native generator, which
    cannot be serialised), and a checksum-valid frame that does not hold
    a well-formed record are each a :class:`RecoveryError`.  The
    returned WAL stays attached to the engine, so post-recovery
    execution extends the same log.

    Each frame's bytes are dropped as the frame is decoded, and each
    record as soon as it is read: an ``add`` is kept as its
    :class:`LoggedAdd`, a check frame as ``(tick, commits, digest)``.
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
    found = genesis.get("format", 1)
    if found != LOG_FORMAT:
        raise RecoveryError(
            f"write-ahead log in {directory!r} has format {found!r}; this "
            f"build reads format {LOG_FORMAT} only"
        )
    snap = None
    if use_snapshot:
        snap = load_latest_snapshot(directory, max_wal_offset=durable_end)
    covered = snap["wal_offset"] if snap is not None else 0

    # -- one pass over the log ------------------------------------------
    # Inputs (``add``) rebuild the workload whatever the snapshot
    # covers; check frames and entity declarations matter only past it.
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
    checks: list[tuple[int, int, str]] = []
    last_tick = 0
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
        elif kind == "check":
            check = _check(record, index)
            if check[0] < last_tick:
                raise RecoveryError(
                    f"record {index} of the write-ahead log is a check "
                    f"frame of tick {check[0]}, below the previous one's "
                    f"{last_tick}"
                )
            last_tick = check[0]
            if offsets[index] >= covered:
                checks.append(check)
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
    # Entities declared by ingests the restored state does not cover
    # (all of them when replaying from genesis — declare is idempotent
    # and order-faithful to the live ingest path).
    for entities in declared:
        for entity, value in entities:
            engine.store.declare(entity, value)

    # -- replay ---------------------------------------------------------
    horizon = checks[-1][0] if checks else engine.tick
    wal.note_snapshot_tick(horizon)
    wal.commits = len(engine.commit_order)
    for logged in checks:
        engine.advance(until_tick=logged[0])
        replayed = wal.check()
        if replayed != logged:
            raise RecoveryError(
                f"replay diverged from the write-ahead log at the check "
                f"frame of tick {logged[0]}: (tick, commits, digest) "
                f"logged {logged}, replayed {replayed}"
            )
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
        replayed=len(checks),
    )


def _check(record: dict, index: int) -> tuple[int, int, str]:
    """Check frame ``index`` as ``(tick, commits, digest)``; one off its
    field set or its field types is a :class:`RecoveryError`."""
    if record.keys() != {"t", *CHECK_FIELDS}:
        raise RecoveryError(
            f"record {index} of the write-ahead log is a check frame with "
            f"fields {sorted(record)}, not {sorted(['t', *CHECK_FIELDS])}"
        )
    for name, kind in CHECK_FIELDS.items():
        if type(record[name]) is not kind:
            raise RecoveryError(
                f"record {index} of the write-ahead log has {name} "
                f"{record[name]!r}, of type {type(record[name]).__name__}, "
                f"not {kind.__name__}"
            )
    return tuple(record[name] for name in CHECK_FIELDS)


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
