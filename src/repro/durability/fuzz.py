"""Crash-point fuzzing: kill the WAL at arbitrary byte offsets, recover,
and diff against an oracle that never crashed.

Every cut of a completed run's log — at a record boundary or mid-record
(a torn write) — must recover to an engine whose partial history,
committed state, metrics and full dynamic state are bitwise-identical
to a never-crashed engine advanced to the same horizon, and whose
continuation reaches the same final history.  So must every crash in
the middle of a checkpoint (:func:`checkpoint_cuts`: a records frame
torn mid-append, a snapshot naming records the file lost, a snapshot
never renamed), by falling back to an older snapshot or to genesis.
Every divergence this harness finds is a bug.
"""

from __future__ import annotations

import os
import pickle
import random
import shutil
from dataclasses import dataclass, field
from typing import Any

from repro.durability.recovery import recover
from repro.durability.snapshot import RECORDS_NAME, read_snapshot
from repro.durability.wal import (
    LOG_NAME,
    MAGIC,
    EngineWal,
    RecordsFile,
    decode_record,
    scan_frames,
)
from repro.errors import RecoveryError

__all__ = [
    "CheckpointCut",
    "CutResult",
    "FuzzReport",
    "checkpoint_cuts",
    "crash_recover_diff",
    "default_specs",
    "enumerate_cuts",
    "fuzz_crash_points",
    "run_reference",
]


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------


def default_specs(
    txns: int = 8,
    entities: int = 4,
    depth: int = 2,
    seed: int = 0,
    steps: int = 5,
):
    """A contentious declarative workload: shared entities, breakpoints
    at mixed levels, and paths spreading transactions over the nest."""
    from repro.api import ProgramSpec

    rng = random.Random(seed)
    names = [f"e{i}" for i in range(entities)]
    specs = []
    for t in range(txns):
        ops: list[tuple] = []
        for s in range(steps):
            entity = rng.choice(names)
            op = rng.randrange(3)
            if op == 0:
                ops.append(("read", entity))
            elif op == 1:
                ops.append(("add", entity, rng.randrange(-3, 4)))
            else:
                ops.append(("set", entity, rng.randrange(50, 150)))
            if s < steps - 1 and rng.random() < 0.4:
                ops.append(("bp", rng.randrange(1, depth + 2)))
        path = tuple(
            f"g{rng.randrange(2)}" for _ in range(depth)
        )
        specs.append(ProgramSpec(f"t{t:02d}", tuple(ops), path))
    return specs


# ----------------------------------------------------------------------
# reference run
# ----------------------------------------------------------------------

#: Ticks per pump slice of a reference run.
SLICE_TICKS = 4


def run_reference(
    directory: str,
    specs,
    *,
    scheduler: str = "mla-detect",
    seed: int = 0,
    recovery_unit: str = "transaction",
    backoff: int = 4,
    snapshot_every: int = 0,
    initial_value: int = 100,
    arrivals=None,
):
    """Run the workload to completion with an engine WAL in
    ``directory``; returns ``(engine, result)``.  The engine advances
    the way the service's pump drives it, :data:`SLICE_TICKS` ticks at a
    time with a WAL flush after each, so the log holds a check frame per
    slice to cut at."""
    from repro.api import make_scheduler
    from repro.core.nests import KNest
    from repro.engine.runtime import Engine

    depth = len(specs[0].path) if specs else 1
    nest = KNest(depth)
    for spec in specs:
        nest.add(spec.name, spec.path)
    initial: dict[str, Any] = {}
    for spec in specs:
        for entity in sorted(spec.entities):
            initial.setdefault(entity, initial_value)
    arrivals = dict(arrivals or {})
    wal = EngineWal(directory, snapshot_every=snapshot_every)
    wal.log_genesis(
        seed=seed,
        scheduler=scheduler,
        recovery=recovery_unit,
        backoff=backoff,
        max_ticks=2_000_000,
        initial=initial,
        programs=[(spec.name, arrivals.get(spec.name, 0)) for spec in specs],
        specs={spec.name: spec.to_dict() for spec in specs},
        meta={"nest_depth": depth},
    )
    engine = Engine(
        [spec.compile() for spec in specs],
        initial,
        make_scheduler(scheduler, nest),
        seed=seed,
        arrivals=arrivals,
        backoff=backoff,
        recovery=recovery_unit,
        wal=wal,
    )
    while not engine.advance(until_tick=engine.tick + SLICE_TICKS):
        wal.flush()
        if wal.due(engine):
            wal.snapshot(engine, nest)
    wal.sync()
    wal.close()
    return engine, engine.run()


# ----------------------------------------------------------------------
# cut enumeration
# ----------------------------------------------------------------------


def enumerate_cuts(
    log_path: str,
    *,
    torn_per_record: int = 1,
    seed: int = 0,
    limit: int | None = None,
) -> list[tuple[int, str]]:
    """Byte offsets at which to kill the log: every record boundary
    after genesis and seeded mid-record torn offsets."""
    with open(log_path, "rb") as fh:
        buf = fh.read()
    _, offsets, valid_end, _ = scan_frames(buf)
    if not offsets:
        return []
    rng = random.Random(seed)
    cuts: list[tuple[int, str]] = []
    for i, start in enumerate(offsets[1:], start=1):
        end = offsets[i + 1] if i + 1 < len(offsets) else valid_end
        cuts.append((start, "boundary"))
        for _ in range(torn_per_record):
            if end - start > 1:
                cuts.append((rng.randrange(start + 1, end), "torn"))
    cuts.append((valid_end, "boundary"))
    seen: set[int] = set()
    unique = []
    for offset, kind in cuts:
        if offset in seen:
            continue
        seen.add(offset)
        unique.append((offset, kind))
    unique.sort()
    if limit is not None and len(unique) > limit:
        step = len(unique) / limit
        unique = [unique[int(i * step)] for i in range(limit)]
    return unique


# ----------------------------------------------------------------------
# recover-and-diff
# ----------------------------------------------------------------------


@dataclass
class CutResult:
    offset: int
    kind: str
    ok: bool
    horizon: int = 0
    snapshot_tick: int | None = None
    error: str = ""


@dataclass
class FuzzReport:
    reference_digest: str = ""
    cuts: list[CutResult] = field(default_factory=list)

    @property
    def failures(self) -> list[CutResult]:
        return [c for c in self.cuts if not c.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        kinds: dict[str, int] = {}
        for cut in self.cuts:
            kinds[cut.kind] = kinds.get(cut.kind, 0) + 1
        return {
            "cuts": len(self.cuts),
            "failures": len(self.failures),
            "kinds": kinds,
        }


def _normalized_state(engine) -> dict:
    """Engine state with the pickled closure caches set aside (cache
    fidelity is checked behaviourally by the continuation diff instead
    of bytewise); everything else, metrics included, is compared."""
    state = engine.snapshot_state()
    sched = state.get("scheduler") or {}
    blob = sched.get("window")
    if isinstance(blob, bytes):
        window = pickle.loads(blob)
        for key in ("live", "last_result", "cycle_result"):
            window.pop(key, None)
        window["shortcut_edges"] = sorted(
            window.get("shortcut_edges", ())
        )
        window["committed"] = sorted(window.get("committed", ()))
        sched["window"] = window
    return state


def _diff(recovered, oracle) -> str:
    a = recovered.run(until_tick=recovered.tick)
    b = oracle.run(until_tick=oracle.tick)
    if a.history_digest() != b.history_digest():
        return (
            f"history digest diverged: {a.history_digest()[:12]} != "
            f"{b.history_digest()[:12]}"
        )
    if a.commit_order != b.commit_order:
        return f"commit order diverged: {a.commit_order} != {b.commit_order}"
    if recovered.records != oracle.records:
        return "committed records diverged"
    if recovered.store.snapshot() != oracle.store.snapshot():
        return "entity values diverged"
    if a.results != b.results:
        return "committed results diverged"
    if recovered.metrics.summary() != oracle.metrics.summary():
        return (
            f"metrics diverged: {recovered.metrics.summary()} != "
            f"{oracle.metrics.summary()}"
        )
    sa = _normalized_state(recovered)
    sb = _normalized_state(oracle)
    if sa != sb:
        keys = [k for k in sa if sa.get(k) != sb.get(k)]
        return f"engine state diverged in {keys}"
    return ""


@dataclass(frozen=True)
class CheckpointCut:
    """A crash in the middle of a checkpoint of the reference run: the
    log ends where the interrupted snapshot would have covered it,
    ``snapshots`` are the snapshot files that made it, ``records_end``
    is how many bytes of the records file did, and ``unrenamed`` names a
    snapshot left as its never-renamed temp file.  Recovery must fall
    back to a snapshot older than ``tick``, or to genesis."""

    kind: str
    offset: int
    tick: int
    snapshots: tuple[str, ...]
    records_end: int
    unrenamed: str | None = None


def checkpoint_cuts(source_dir: str) -> list[CheckpointCut]:
    """Three crashes per snapshot the reference run kept: its records
    frame torn mid-append (``records-torn``; the snapshot never
    written), the snapshot written but its records frame lost
    (``records-short``: it names more records than the file holds), and
    the snapshot written but never renamed (``unrenamed``).  A snapshot
    that added no records gets only the last."""
    names = sorted(
        name for name in os.listdir(source_dir)
        if name.startswith("snap-") and name.endswith(".bin")
    )
    log = RecordsFile(os.path.join(source_dir, RECORDS_NAME))
    frames = log.take()
    log.close()
    # record count -> the byte span of the frame that brought the file
    # to it (empty for 0)
    spans = {0: (len(MAGIC), len(MAGIC))}
    start = len(MAGIC)
    for frame in frames:
        spans[frame.count] = (start, frame.stop)
        start = frame.stop
    cuts: list[CheckpointCut] = []
    for index, name in enumerate(names):
        snap = read_snapshot(os.path.join(source_dir, name))
        offset, tick = snap["wal_offset"], snap["tick"]
        start, stop = spans[snap["commits"]]
        older = tuple(names[:index])
        if start < stop:
            cuts.append(CheckpointCut(
                "records-torn", offset, tick, older, (start + stop) // 2,
            ))
            cuts.append(CheckpointCut(
                "records-short", offset, tick, (*older, name), start,
            ))
        cuts.append(CheckpointCut(
            "unrenamed", offset, tick, older, stop, unrenamed=name,
        ))
    return cuts


def crash_recover_diff(
    source_dir: str,
    cut_offset: int,
    kind: str,
    scratch_dir: str,
    *,
    reference_result=None,
    checkpoint: CheckpointCut | None = None,
) -> CutResult:
    """Copy the log truncated at ``cut_offset`` (plus the snapshots and
    the records file) into ``scratch_dir``, recover, and diff against a
    fresh oracle advanced to the recovered horizon — then continue the
    recovered engine to quiescence and diff the final history against
    the reference run.  A ``checkpoint`` cut copies only what its crash
    left of the checkpoint, and fails unless recovery falls back."""
    os.makedirs(scratch_dir, exist_ok=True)
    with open(os.path.join(source_dir, LOG_NAME), "rb") as fh:
        blob = fh.read(cut_offset)
    with open(os.path.join(scratch_dir, LOG_NAME), "wb") as fh:
        fh.write(blob)
    records = os.path.join(source_dir, RECORDS_NAME)
    with open(records, "rb") as fh:
        kept = fh.read(None if checkpoint is None else checkpoint.records_end)
    with open(os.path.join(scratch_dir, RECORDS_NAME), "wb") as fh:
        fh.write(kept)
    snapshots = sorted(
        name for name in os.listdir(source_dir)
        if name.startswith("snap-") and name.endswith(".bin")
    )
    if checkpoint is not None:
        snapshots = checkpoint.snapshots
        if checkpoint.unrenamed is not None:
            shutil.copy(
                os.path.join(source_dir, checkpoint.unrenamed),
                os.path.join(scratch_dir, checkpoint.unrenamed + ".tmp"),
            )
    for name in snapshots:
        shutil.copy(
            os.path.join(source_dir, name), os.path.join(scratch_dir, name)
        )
    try:
        report = recover(scratch_dir)
    except RecoveryError as exc:
        return CutResult(cut_offset, kind, False, error=f"recover: {exc}")
    # Oracle: a never-crashed engine advanced to the same horizon.
    oracle = _oracle(blob)
    if report.horizon > oracle.tick:
        oracle.advance(until_tick=report.horizon)
    error = _diff(report.engine, oracle)
    if (
        not error
        and checkpoint is not None
        and report.snapshot_tick is not None
        and report.snapshot_tick >= checkpoint.tick
    ):
        error = (
            f"restored the snapshot of tick {report.snapshot_tick}, not "
            f"one older than the interrupted checkpoint's {checkpoint.tick}"
        )
    if not error and reference_result is not None:
        report.engine.advance()
        final = report.engine.run(until_tick=report.engine.tick)
        if final.history_digest() != reference_result.history_digest():
            error = "continuation diverged from the reference history"
        elif final.commit_order != reference_result.commit_order:
            error = "continuation commit order diverged"
        elif final.results != reference_result.results:
            error = "continuation results diverged"
    report.wal.close()
    return CutResult(
        cut_offset,
        kind,
        not error,
        horizon=report.horizon,
        snapshot_tick=report.snapshot_tick,
        error=error,
    )


def _oracle(blob: bytes):
    """A fresh engine built from the genesis and ``add`` records of the
    log ``blob``, never crashed, with no snapshot shortcut and no WAL.
    It reads the log itself, not recovery's reduced view of it."""
    from repro.api import ProgramSpec, make_scheduler
    from repro.core.nests import KNest
    from repro.engine.runtime import Engine

    payloads, _, _, _ = scan_frames(blob)
    genesis = decode_record(payloads[0])
    adds = [
        record
        for record in map(decode_record, payloads[1:])
        if record["t"] == "add"
    ]
    depth = genesis.get("meta", {}).get("nest_depth", 1)
    nest = KNest(depth)
    table = {}
    for name, _ in genesis["programs"]:
        spec = ProgramSpec.from_dict(genesis["specs"][name])
        nest.add(name, spec.path)
        table[name] = spec.compile()
    arrivals = dict(genesis["programs"])
    initial = dict(genesis["initial"])
    for add in adds:
        spec = ProgramSpec.from_dict(add["spec"])
        nest.add(add["name"], spec.path)
        table[add["name"]] = spec.compile()
        arrivals[add["name"]] = add["arrival"]
        for entity, value in add["entities"]:
            initial.setdefault(entity, value)
    return Engine(
        list(table.values()),
        initial,
        make_scheduler(genesis["scheduler"], nest),
        seed=genesis["seed"],
        arrivals=arrivals,
        max_ticks=genesis["max_ticks"],
        backoff=genesis["backoff"],
        recovery=genesis["recovery"],
    )


def fuzz_crash_points(
    workdir: str,
    *,
    specs=None,
    scheduler: str = "mla-detect",
    seed: int = 0,
    snapshot_every: int = 0,
    recovery_unit: str = "transaction",
    torn_per_record: int = 1,
    cut_limit: int | None = None,
) -> FuzzReport:
    """End-to-end sweep: reference run, cut enumeration, recover-and-
    diff at every cut.  ``workdir`` gets a ``ref/`` log and one scratch
    dir per cut (reused serially)."""
    if specs is None:
        specs = default_specs(seed=seed)
    ref_dir = os.path.join(workdir, "ref")
    _, result = run_reference(
        ref_dir,
        specs,
        scheduler=scheduler,
        seed=seed,
        snapshot_every=snapshot_every,
        recovery_unit=recovery_unit,
    )
    cuts = enumerate_cuts(
        os.path.join(ref_dir, LOG_NAME),
        torn_per_record=torn_per_record,
        seed=seed,
        limit=cut_limit,
    )
    report = FuzzReport(reference_digest=result.history_digest())
    scratch = os.path.join(workdir, "cut")
    for offset, kind in cuts:
        shutil.rmtree(scratch, ignore_errors=True)
        report.cuts.append(
            crash_recover_diff(
                ref_dir,
                offset,
                kind,
                scratch,
                reference_result=result,
            )
        )
    for checkpoint in checkpoint_cuts(ref_dir):
        shutil.rmtree(scratch, ignore_errors=True)
        report.cuts.append(
            crash_recover_diff(
                ref_dir,
                checkpoint.offset,
                checkpoint.kind,
                scratch,
                reference_result=result,
                checkpoint=checkpoint,
            )
        )
    return report
