"""Recovery: rebuild the engine from its logged inputs and replay it.

The WAL holds the engine's inputs — genesis and the ``add`` records —
and one check frame per flush (:mod:`repro.durability.wal`), so
recovery does not *apply* the log.  It restores the latest usable
checkpoint (:mod:`repro.durability.snapshot`: a snapshot of the live
state and nest, and the records file's committed records it covers),
registers only the programs that checkpoint leaves uncommitted and
those the log added after it, and re-runs the engine to the tick of
each check frame past it, comparing the frame with the one the replay
re-derives (:meth:`EngineWal.check`): the decisions' digest and the
commit count.  A mismatch is a :class:`repro.errors.RecoveryError` that
names the check frame's tick, so replay stays a proof, checked once per
pump slice.

What the checkpoint covers is not decoded from the log again: the
records file names each covered commit, its idempotency key and its
``add`` frame (its scan reads them), and the restored engine reads its
records back from the file by position instead of holding them.

``add`` records after the last check frame are admissions no reply was
sent for.  Recovery registers them with the rest; replay stops at the
last check frame's tick, and the restarted engine runs them (the
service's pump starts on its own when the engine has work), extending
the same log.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any

from repro.durability.snapshot import load_latest_snapshot, retire_snapshots
from repro.durability.wal import (
    CHECK_FIELDS,
    LOG_FORMAT,
    EngineWal,
    decode_record,
)
from repro.errors import RecoveryError

__all__ = ["RecoveryReport", "recover"]

#: What recovery reads from every ``add`` record.
_ADD_FIELDS = ("name", "spec", "arrival", "entities")


@dataclass
class RecoveryReport:
    """What :func:`recover` rebuilt.

    ``keys`` maps every logged idempotency key to its transaction's
    name, in the order the log admitted them, and ``admitted`` counts
    the logged ``add`` records.  ``records`` counts the log's frames and
    ``replayed`` the check frames replay matched; ``horizon`` is the
    tick replay ended at.  ``snapshot_commits`` counts the commits the
    restored snapshot covers (0 without one): the engine reads those
    from the records file."""

    engine: Any
    wal: EngineWal
    nest: Any
    genesis: dict
    keys: dict[str, str] = field(default_factory=dict)
    admitted: int = 0
    horizon: int = 0
    snapshot_tick: int | None = None
    snapshot_commits: int = 0
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
    """Recover an engine from ``directory``'s WAL and checkpoints.

    ``wal`` is the log when the caller has already opened it (opening
    reads and CRC-scans the whole file, so the service hands over the
    one it opened to see whether there was anything to recover);
    otherwise it is opened here.

    The log is the only source of programs: they compile from the
    declarative specs of the genesis and ``add`` records.  The scheduler
    is rebuilt from the genesis record, over the snapshot's nest (or,
    replaying from genesis, one built from the log).  A log of another
    format, a genesis program with no spec (a native generator, which
    cannot be serialised), and a checksum-valid frame that does not hold
    a well-formed record are each a :class:`RecoveryError`.  The
    returned WAL stays attached to the engine, so post-recovery
    execution extends the same log.

    Only the frames past the snapshot's WAL offset are decoded, and the
    ``add`` frames of the transactions it leaves uncommitted; each
    frame's bytes are dropped as the frame is decoded.

    Newer snapshots are removed, and the records file is cut back to
    what the restored snapshot covers when the WAL next appends to it
    (:meth:`RecordsFile.keep`).  ``use_snapshot=False`` replays the
    whole log and writes nothing: a later recovery that checkpoints
    nothing in between restores the same snapshot as before it.
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
    # -- the checkpoint -------------------------------------------------
    # The newest snapshot the durable log and the records file can back;
    # every newer snapshot is retired, and the records file is cut back
    # to what it covers before the WAL next appends to it.
    frames = wal.records.take()
    snap = None
    if use_snapshot:
        snap = load_latest_snapshot(
            directory,
            max_wal_offset=durable_end,
            commits={0, *(frame.count for frame in frames)},
        )
        retire_snapshots(directory, snap["tick"] if snap else None)
    covered = snap["wal_offset"] if snap is not None else 0
    count = snap["commits"] if snap is not None else 0
    wal.records.keep(count)
    wal.recorded = count
    # Every admission as (its add frame's offset, key, name): the covered
    # ones from the records file, the rest as their frames are decoded;
    # and the names of the covered commits, in commit order.
    admissions: list[tuple[int, str | None, str]] = []
    committed: list[str] = []
    for frame in frames:
        if frame.count > count:
            break
        committed.extend(frame.names)
        admissions.extend(
            (add, key, name)
            for name, key, add in zip(frame.names, frame.keys, frame.adds)
            if add is not None
        )
    del frames

    # -- what the checkpoint leaves uncommitted -------------------------
    genesis_specs = genesis.get("specs", {})
    arrivals = {name: arrival for name, arrival in genesis["programs"]}
    missing = [name for name in arrivals if name not in genesis_specs]
    if missing:
        raise RecoveryError(
            f"no program spec in the log for {sorted(missing)}"
        )
    live = (
        None if snap is None
        else {saved["name"] for saved in snap["state"]["txns"]}
    )
    order = [
        name for name, _ in genesis["programs"]
        if live is None or name in live
    ]
    table = {
        name: ProgramSpec.from_dict(genesis_specs[name]).compile()
        for name in order
    }
    for name in order:
        wal.tag(name, None, None, tuple(genesis_specs[name].get("path", ())))
    if snap is not None:
        nest = snap["nest"]
        live_adds = sorted(
            offset for offset in snap["adds"].values() if offset is not None
        )
    else:
        nest = KNest(genesis.get("meta", {}).get("nest_depth", 1))
        for name in order:
            nest.add(name, tuple(genesis_specs[name].get("path", ())))
        live_adds = []
    # Inputs (``add``) of uncommitted work, then everything past the
    # snapshot: programs, check frames and entity declarations.
    declared: list[list] = []
    checks: list[tuple[int, int, str]] = []
    last_tick = 0
    first_past = bisect_left(offsets, covered, lo=1)
    indices = [bisect_left(offsets, offset) for offset in live_adds]
    if any(
        index >= first_past or offsets[index] != offset
        for index, offset in zip(indices, live_adds)
    ):
        raise RecoveryError(
            "the snapshot names an add frame the write-ahead log does not "
            "hold before its offset"
        )
    for index in [*indices, *range(first_past, len(payloads))]:
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
            key = record.get("key")
            admissions.append((offsets[index], key, name))
            wal.tag(name, offsets[index], key, path)
            order.append(name)
            arrivals[name] = arrival
            table[name] = ProgramSpec.from_dict(spec).compile()
            if index >= first_past:
                nest.add(name, path)
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
            if index >= first_past:
                checks.append(check)
        else:
            raise RecoveryError(
                f"record {index} of the write-ahead log has unknown "
                f"type {kind!r}"
            )
    records = len(payloads)
    del payloads, offsets
    admissions.sort()

    engine = Engine(
        [table[name] for name in order],
        dict(genesis["initial"]),
        make_scheduler(genesis["scheduler"], nest),
        seed=genesis["seed"],
        arrivals=arrivals,
        max_ticks=genesis["max_ticks"],
        backoff=genesis["backoff"],
        recovery=genesis["recovery"],
        tracer=tracer,
        registry=registry,
        wal=wal,
    )
    if snap is not None:
        engine.retire(count, wal.records, committed)
        engine.restore_state(snap["state"], engine.records)
        engine.tracer.restore_state(snap["tracer"])
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
        keys={key: name for _, key, name in admissions if key is not None},
        admitted=len(admissions),
        horizon=horizon,
        snapshot_tick=snap["tick"] if snap is not None else None,
        snapshot_commits=count,
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
