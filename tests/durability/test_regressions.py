"""Minimized regressions for divergences the crash-point fuzzer
surfaced while this subsystem was built.  Each test pins the exact
failure shape so the bug class cannot return:

1. ``Engine.restore_state`` replaced the transaction table wholesale,
   silently dropping programs registered *after* the snapshot was taken
   (the open-system service path) — recovery then raised "unknown
   transaction" or replayed a shorter history.
2. ``recover()`` rebuilt the nest from ``add`` records only, omitting
   the paths of genesis-spec programs — closed-system replay then ran
   under a different hierarchy, changing conflict levels and forking
   the history at the first cross-family conflict.
3. The closure window's live caches drifted on snapshot restore when
   they were rebuilt instead of carried: closure counters (calls,
   propagated edges, word ops) diverged from the uncrashed engine even
   though the committed history matched.  The caches are pickled
   wholesale now; this test holds the counters bit-equal.
4. An intact-CRC ``add`` record lacking a field recovery reads escaped
   ``recover()`` as a bare ``KeyError``; replay is a proof surface, so
   it must be a ``RecoveryError`` that names the record.
5. Snapshots carried no format stamp, so one written under another
   pickled layout (a renamed slot, a moved class) reached
   ``restore_state`` and killed the restart with a bare
   ``AttributeError`` — although the WAL alone always suffices.
6. ``restore_state`` rebuilt every transaction by re-running its
   program through its replay tape, committed ones included, so each
   restore cost the whole history (the explorer restores thousands of
   times) and every snapshot carried every committed tape.
7. A checksum-valid frame whose payload is not a well-formed record
   escaped ``recover()`` as whatever the decoder raised (an
   ``UnpicklingError``, an ``AttributeError`` for a non-dict, a
   ``KeyError`` for a decision without ``tick``), and a record of
   unknown type was skipped: inserted, it was accepted; in place of a
   decision, the replay reported a divergence.  Each is a
   ``RecoveryError`` naming the record, and ``repro serve`` says so in
   one line.  So is a check frame off its fields or their types, or
   one whose tick runs backwards, and a log an older build wrote in
   another format.
"""

from __future__ import annotations

import os
import pickle
import shutil
import subprocess
import sys

import pytest

from repro.api import ProgramSpec, Submission, make_scheduler
from repro.core.nests import KNest
from repro.durability import recover, snapshot
from repro.durability.fuzz import default_specs, run_reference
from repro.durability.wal import (
    LOG_NAME,
    MAGIC,
    EngineWal,
    frame_record,
    scan_frames,
)
from repro.engine.runtime import Engine
from repro.errors import RecoveryError
from repro.model.programs import TransactionProgram
from repro.service import ServiceConfig, TransactionService

#: A log the build before check frames wrote: a contended ``2pl``
#: service run whose genesis carries no format and whose frames log
#: every decision.
FORMAT1 = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "format1_wal"
)


def test_restore_state_keeps_post_snapshot_programs(tmp_path):
    """Regression 1: a snapshot taken at tick T, then a program added at
    T+k, then a crash — recovery must re-register the late program, not
    lose it."""
    import asyncio

    d = str(tmp_path)

    def spec(i):
        return ProgramSpec(f"p{i}", (("add", "x", i), ("read", "x")), ("a",))

    async def run_service():
        svc = TransactionService(ServiceConfig(
            scheduler="2pl", nest_depth=1, wal_dir=d, wal_snapshot_every=2,
        ))
        # First wave commits and a snapshot lands beyond it ...
        for i in range(3):
            await svc.submit(Submission(program=spec(i)))
        await svc.drain()
        # ... then a late registration arrives after the snapshot.
        await svc.submit(Submission(program=spec(7)))
        await svc.drain()
        svc.wal.sync()
        svc.wal.close()
        return svc.engine.commit_order[:]

    order = asyncio.run(run_service())
    report = recover(d)
    assert report.snapshot_tick is not None  # the snapshot path ran
    assert "p7" in report.engine.txns  # the late program survived
    assert report.engine.commit_order == order


def test_recover_rebuilds_nest_from_genesis_specs(tmp_path):
    """Regression 2: genesis-spec programs must contribute their paths
    to the reconstructed nest.  The mla schedulers conflict by level, so
    a flattened nest forks the replay — caught as a WAL divergence."""
    specs = [
        ProgramSpec("fam_a1", (("add", "x", 1), ("bp", 2), ("read", "y")),
                    ("fam_a",)),
        ProgramSpec("fam_a2", (("read", "x"), ("add", "y", 2)), ("fam_a",)),
        ProgramSpec("fam_b1", (("set", "x", 5), ("read", "y")), ("fam_b",)),
    ]
    d = str(tmp_path)
    _, result = run_reference(d, specs, scheduler="mla-detect", seed=4)
    # No caller-supplied nest: recover() must rebuild it from the log.
    report = recover(d)
    recovered = report.engine.run(until_tick=report.engine.tick)
    assert recovered.history_digest() == result.history_digest()
    # The nest really carries the genesis paths: a same-family pair
    # shares a longer prefix (higher level) than a cross-family pair.
    assert report.nest.level("fam_a1", "fam_a2") > \
        report.nest.level("fam_a1", "fam_b1")


def test_snapshot_restore_preserves_closure_counters(tmp_path):
    """Regression 3: closure bookkeeping (calls, checks, edges added)
    must be bit-equal after a snapshot-based recovery."""
    d = str(tmp_path)
    engine, _ = run_reference(
        d, default_specs(seed=6), scheduler="mla-detect", seed=6,
        snapshot_every=8,
    )
    report = recover(d)
    assert report.snapshot_tick is not None
    assert report.engine.metrics.summary() == engine.metrics.summary()


def test_closure_window_restore_repoints_nest(tmp_path):
    """The unpickled window's live closure engine must alias the
    scheduler's own nest object, not a stale pickled copy: transactions
    registered after restore are invisible to a stale copy."""
    nest = KNest(1)
    nest.add("a", ("fam",))
    scheduler = make_scheduler("mla-detect", nest)
    engine = Engine(
        [ProgramSpec("a", (("add", "x", 1),), ("fam",)).compile()],
        {"x": 0},
        scheduler,
        seed=0,
    )
    engine.run()
    blob = scheduler.snapshot_state()
    nest2 = KNest(1)
    nest2.add("a", ("fam",))
    scheduler2 = make_scheduler("mla-detect", nest2)
    engine2 = Engine(
        [ProgramSpec("a", (("add", "x", 1),), ("fam",)).compile()],
        {"x": 0},
        scheduler2,
        seed=0,
    )
    scheduler2.restore_state(pickle.loads(pickle.dumps(blob)))
    if scheduler2.window._live is not None:
        assert scheduler2.window._live.engine.nest is nest2
    assert engine2 is not None  # scheduler is attached and consistent


def test_add_record_entities_redeclared_after_snapshot(tmp_path):
    """Entities first referenced by post-snapshot submissions must be
    re-declared on recovery (the snapshot cannot know them)."""
    import asyncio

    d = str(tmp_path)

    async def run_service():
        svc = TransactionService(ServiceConfig(
            scheduler="2pl", nest_depth=0, wal_dir=d, wal_snapshot_every=2,
        ))
        await svc.submit(Submission(program=ProgramSpec(
            "early", (("add", "x", 1),))))
        await svc.drain()
        await svc.submit(Submission(program=ProgramSpec(
            "late", (("add", "fresh_entity", 5), ("read", "x")))))
        await svc.drain()
        svc.wal.sync()
        svc.wal.close()
        return dict(svc.engine.store.snapshot())

    store = asyncio.run(run_service())
    report = recover(d)
    assert report.engine.store.snapshot() == store
    assert "fresh_entity" in dict(report.engine.store.snapshot())


@pytest.mark.parametrize("missing", ["spec", "arrival", "entities"])
def test_add_record_lacking_a_field_is_a_typed_error(tmp_path, missing):
    """Regression 4: the frame checks out, the record inside does not."""
    import asyncio

    d = str(tmp_path)

    async def run_service():
        svc = TransactionService(ServiceConfig(
            scheduler="2pl", nest_depth=0, wal_dir=d,
        ))
        await svc.submit(Submission(program=ProgramSpec(
            "whole", (("add", "x", 1),))))
        await svc.drain()
        # What a buggy or foreign writer would leave: a well-framed add
        # without one of its fields.
        record = {
            "name": "partial",
            "arrival": svc.engine.tick + 1,
            "spec": ProgramSpec("partial", (("read", "x"),)).to_dict(),
            "entities": [("x", 100)],
        }
        del record[missing]
        svc.wal.append({"t": "add", **record})
        svc.wal.close()

    asyncio.run(run_service())
    log = EngineWal(d).log
    index = len(log.payloads) - 1
    log.close()
    with pytest.raises(RecoveryError, match=f"add record {index} .*{missing}"):
        recover(d)


@pytest.mark.parametrize(
    "stamp",
    [b"", b"repro-snapshot-0\n", b"repro-snapshot-14\n"],
    # ``previous-stamp``: the layout whose committed log holds flat
    # rows, not one packed record per commit.
    ids=["unstamped", "other-stamp", "previous-stamp"],
)
@pytest.mark.parametrize("scheduler", ["2pl", "mla-detect"])
def test_foreign_layout_snapshot_is_skipped(
    tmp_path, monkeypatch, scheduler, stamp
):
    """Regression 5: the newest snapshot was written under another
    layout (``unstamped`` is byte-for-byte the frame older builds
    wrote).  Recovery must fall back to the older snapshot and reach
    the history a full-WAL replay reaches."""
    d = str(tmp_path)
    _, live = run_reference(
        d, default_specs(seed=8), scheduler=scheduler, seed=8,
        snapshot_every=6,
    )
    newest = snapshot.load_latest_snapshot(d)
    with monkeypatch.context() as patch:
        patch.setattr(snapshot, "_STAMP", stamp)
        snapshot.write_snapshot(
            d, tick=newest["tick"], wal_offset=newest["wal_offset"],
            state={"layout": "foreign"},
        )
    via_snapshot = recover(d)
    assert via_snapshot.snapshot_tick is not None
    assert via_snapshot.snapshot_tick < newest["tick"]
    full_replay = recover(d, use_snapshot=False)
    a = via_snapshot.engine.run(until_tick=via_snapshot.engine.tick)
    b = full_replay.engine.run(until_tick=full_replay.engine.tick)
    assert a.history_digest() == b.history_digest() == live.history_digest()


@pytest.mark.parametrize("recovery_unit", ["transaction", "segment"])
def test_restore_never_runs_a_committed_program(monkeypatch, recovery_unit):
    """Regression 6: a restore starts the programs of uncommitted
    transactions only, and the engine it rebuilds still continues
    bit-identically to the one that was snapshotted."""
    specs = default_specs(seed=6, txns=10)
    initial = {e: 100 for spec in specs for e in spec.entities}

    def fresh() -> Engine:
        nest = KNest(2)
        for spec in specs:
            nest.add(spec.name, spec.path)
        return Engine(
            [spec.compile() for spec in specs], initial,
            make_scheduler("mla-detect", nest), seed=6,
            recovery=recovery_unit,
        )

    live = fresh()
    while len(live.commit_order) < 3 or not any(
        t.steps_taken for t in live.active_states()
    ):
        live.advance(until_tick=live.tick + 1)
    committed = set(live.commit_order)
    in_flight = {t.name for t in live.active_states()}
    state = pickle.loads(pickle.dumps(live.snapshot_state()))

    restored = fresh()
    started: list[str] = []
    start = TransactionProgram.start

    def counted(program):
        started.append(program.name)
        return start(program)

    monkeypatch.setattr(TransactionProgram, "start", counted)
    restored.restore_state(state)
    monkeypatch.undo()
    assert sorted(started) == sorted(in_flight)
    # A committed transaction is written without a replay tape.
    assert all(
        saved["results_log"] is None
        for saved in state["txns"] if saved["name"] in committed
    )
    assert all(restored.txns[name].live is None for name in committed)
    assert restored.run().history_digest() == live.run().history_digest()


def _rewrite_log(directory: str, edit) -> int:
    """Rewrite ``directory``'s log with ``edit(payloads, middle)``
    applied to its frames, every frame checksummed anew; returns
    ``middle``, the index of a check frame in the log's middle."""
    path = os.path.join(directory, LOG_NAME)
    with open(path, "rb") as fh:
        payloads = scan_frames(fh.read())[0]
    middle = len(payloads) // 2
    while pickle.loads(payloads[middle])["t"] != "check":
        middle += 1
    edit(payloads, middle)
    with open(path, "wb") as fh:
        fh.write(MAGIC + b"".join(frame_record(p) for p in payloads))
    return middle


def _edited(**changes):
    """An edit that sets (or, for None, deletes) fields of the frame."""

    def edit(payloads, index):
        record = pickle.loads(payloads[index])
        for name, value in changes.items():
            if value is None:
                del record[name]
            else:
                record[name] = value
        payloads[index] = pickle.dumps(record)

    return edit


def _tick_below_previous(payloads, index):
    previous = pickle.loads(payloads[index - 1])
    _edited(tick=previous["tick"] - 1)(payloads, index)


def _unknown_type(tick):
    return pickle.dumps({"t": "bogus", "tick": tick})


@pytest.mark.parametrize("edit, reason", [
    pytest.param(
        lambda payloads, i: payloads.__setitem__(i, b"not a pickle"),
        "does not decode", id="not-a-pickle",
    ),
    pytest.param(
        lambda payloads, i: payloads.__setitem__(i, pickle.dumps([1, 2])),
        "is a list, not a record", id="not-a-dict",
    ),
    pytest.param(
        lambda payloads, i: payloads.__setitem__(
            i, pickle.dumps({"t": ["check"], "tick": 1})
        ),
        "has no type", id="unhashable-type",
    ),
    pytest.param(_edited(tick=None), "is a check frame with fields",
                 id="no-tick"),
    pytest.param(_edited(digest=None), "is a check frame with fields",
                 id="check-missing-field"),
    pytest.param(_edited(latency=3), "is a check frame with fields",
                 id="check-unknown-field"),
    pytest.param(_edited(tick="9"), "has tick '9', of type str, not int",
                 id="check-non-int-tick"),
    pytest.param(_edited(tick=True), "has tick True, of type bool, not int",
                 id="check-bool-tick"),
    pytest.param(_edited(digest=b"00"), "has digest b'00', of type bytes, not str",
                 id="check-non-str-digest"),
    pytest.param(_tick_below_previous, "below the previous one's",
                 id="check-tick-below-previous"),
    pytest.param(
        lambda payloads, i: payloads.__setitem__(i, _unknown_type(1)),
        "unknown type 'bogus'", id="unknown-type-replacing",
    ),
    pytest.param(
        lambda payloads, i: payloads.insert(i, _unknown_type(1)),
        "unknown type 'bogus'", id="unknown-type-inserted",
    ),
])
def test_malformed_frame_is_a_typed_error(tmp_path, edit, reason):
    """Regression 7: the frame checks out, its payload is no record."""
    d = str(tmp_path)
    run_reference(d, default_specs(seed=3), scheduler="2pl", seed=3)
    index = _rewrite_log(d, edit)
    with pytest.raises(RecoveryError, match=f"record {index} .*({reason})"):
        recover(d)


def test_serve_on_a_malformed_frame_exits_with_one_line(tmp_path):
    """Regression 7 from the command line: one ``serve:`` line, exit 2,
    no traceback — for a frame that does not decode, and for a log an
    older build wrote, whose genesis has no format and whose frames
    are decisions (``fixtures/format1_wal``)."""
    d = str(tmp_path / "malformed")
    run_reference(d, default_specs(seed=3), scheduler="2pl", seed=3)
    index = _rewrite_log(
        d, lambda payloads, i: payloads.__setitem__(i, b"not a pickle")
    )
    assert _serve_refuses(d).startswith(f"serve: record {index} ")
    old = str(tmp_path / "format1")
    shutil.copytree(FORMAT1, old)
    assert _serve_refuses(old) == (
        f"serve: write-ahead log in {old!r} has format 1; this build "
        f"reads format 2 only\n"
    )


def _serve_refuses(directory: str) -> str:
    """``repro serve --wal directory``'s stderr, asserted to be one
    line and exit 2."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["repro"].__file__
    )))
    done = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--wal", directory],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
    return done.stderr
