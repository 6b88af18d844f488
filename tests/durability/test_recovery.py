"""Recovery = snapshot + deterministic WAL-suffix replay, asserted
bitwise-identical to the uncrashed run."""

from __future__ import annotations

import asyncio
import os
import pickle
import tracemalloc

import pytest

from repro.durability import recover
from repro.durability.fuzz import default_specs, run_reference
from repro.durability.wal import EngineWal
from repro.errors import RecoveryError
from repro.service import AdmissionConfig, ServiceConfig, TransactionService
from repro.workloads.traffic import TrafficConfig, traffic_submissions

SCHEDULERS = ["serial", "2pl", "timestamp", "mla-detect", "mla-prevent",
              "mla-nested-lock"]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_full_replay_matches_live_run(tmp_path, scheduler):
    d = str(tmp_path)
    _, result = run_reference(d, default_specs(seed=3), scheduler=scheduler,
                              seed=3)
    report = recover(d)
    recovered = report.engine.run(until_tick=report.engine.tick)
    assert recovered.history_digest() == result.history_digest()
    assert recovered.commit_order == result.commit_order
    assert recovered.results == result.results
    assert report.replayed > 0
    assert not report.truncated


@pytest.mark.parametrize("scheduler", ["2pl", "mla-detect"])
def test_snapshot_plus_suffix_matches_full_replay(tmp_path, scheduler):
    specs = default_specs(seed=5)
    snap_dir = str(tmp_path / "snap")
    _, result = run_reference(snap_dir, specs, scheduler=scheduler, seed=5,
                              snapshot_every=10)
    with_snap = recover(snap_dir)
    assert with_snap.snapshot_tick is not None  # the shortcut was taken
    without_snap = recover(snap_dir, use_snapshot=False)
    assert without_snap.snapshot_tick is None
    a = with_snap.engine.run(until_tick=with_snap.engine.tick)
    b = without_snap.engine.run(until_tick=without_snap.engine.tick)
    assert a.history_digest() == b.history_digest() == \
        result.history_digest()
    assert with_snap.engine.store.snapshot() == \
        without_snap.engine.store.snapshot()


def test_round_up_appends_torn_tick_remainder(tmp_path):
    """A cut mid-tick replays the logged prefix of that tick, then the
    re-executed remainder is appended to the same log: a second recovery
    over the rounded-up log replays it in full."""
    d = str(tmp_path / "ref")
    cut_dir = str(tmp_path / "cut")
    _, result = run_reference(d, default_specs(seed=1), scheduler="2pl",
                              seed=1)
    wal = EngineWal(d)
    offsets = list(wal.log.offsets)
    wal.close()
    os.makedirs(cut_dir)
    # Cut three records before the end: mid-history, usually mid-tick.
    cut = offsets[-3]
    with open(os.path.join(d, "engine.wal"), "rb") as fh:
        blob = fh.read(cut)
    with open(os.path.join(cut_dir, "engine.wal"), "wb") as fh:
        fh.write(blob)
    first = recover(cut_dir)
    first.engine.advance()  # continue to quiescence, appending as it goes
    first.wal.sync()
    first.wal.close()
    second = recover(cut_dir)
    final = second.engine.run(until_tick=second.engine.tick)
    assert final.history_digest() == result.history_digest()
    assert final.commit_order == result.commit_order


def test_empty_log_raises(tmp_path):
    EngineWal(str(tmp_path)).close()
    with pytest.raises(RecoveryError, match="empty"):
        recover(str(tmp_path))


def test_log_without_genesis_raises(tmp_path):
    wal = EngineWal(str(tmp_path))
    wal.append({"t": "perform", "tick": 1, "txn": "a"})
    wal.sync()
    wal.close()
    with pytest.raises(RecoveryError, match="genesis"):
        recover(str(tmp_path))


def test_generator_workload_requires_programs(tmp_path):
    """Genesis entries without declarative specs (closed-system native
    generators) cannot be rebuilt from the log alone."""
    wal = EngineWal(str(tmp_path))
    wal.log_genesis(
        seed=0, scheduler="2pl", recovery="transaction", stall_limit=500,
        backoff=4, max_ticks=1000, initial={"x": 0},
        programs=[("gen", 0)], specs={}, meta={"nest_depth": 1},
    )
    wal.close()
    with pytest.raises(RecoveryError, match=r"no program spec .*'gen'"):
        recover(str(tmp_path))


def test_recovered_metrics_match_modulo_wall_time(tmp_path):
    d = str(tmp_path)
    engine, _ = run_reference(d, default_specs(seed=2),
                              scheduler="mla-detect", seed=2)
    report = recover(d)
    assert report.engine.metrics.summary() == engine.metrics.summary()


def test_recovery_peak_memory_per_logged_record(tmp_path):
    """Recovery holds each logged record only as long as it needs it:
    a frame's bytes until it is decoded, a decision as a positional row
    with shared strings until replay matches it, an ``add`` as the four
    fields its callers read.  On this 800-transaction ``2pl`` service
    log (5 409 frames, a few hundred aborts), ``recover()``'s traced
    peak was 1.41 KB per record while it held every decoded record
    whole, and is 0.59 KB now; the bound leaves room for allocator and
    interpreter drift without letting the decoded log back in."""
    d = str(tmp_path)
    submissions = traffic_submissions(
        TrafficConfig(transactions=800, contention=0.05, seed=18)
    )

    async def serve_log():
        svc = TransactionService(ServiceConfig(
            scheduler="2pl", wal_dir=d, admission=AdmissionConfig(window=64),
        ))
        for start in range(0, len(submissions), 32):
            await asyncio.gather(
                *(svc.submit(s) for s in submissions[start:start + 32])
            )
        await svc.drain()
        svc.wal.close()

    asyncio.run(serve_log())
    log = EngineWal(d).log
    kinds = [pickle.loads(payload)["t"] for payload in log.payloads]
    log.close()
    assert kinds.count("add") == 800
    assert kinds.count("abort") > 0

    tracemalloc.start()
    try:
        report = recover(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report.wal.close()
    assert report.records == len(kinds)
    assert len(report.engine.commit_order) == 800
    assert peak / report.records <= 1000, (
        f"recover() peaked at {peak / report.records:.0f} bytes per "
        f"logged record"
    )
