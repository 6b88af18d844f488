"""Recovery = snapshot + deterministic WAL-suffix replay, asserted
bitwise-identical to the uncrashed run."""

from __future__ import annotations

import asyncio
import hashlib
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


def _file_digests(directory: str) -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("scheduler", ["2pl", "mla-detect"])
def test_a_full_replay_leaves_the_checkpoint_alone(tmp_path, scheduler):
    """``recover(d, use_snapshot=False)`` is a diagnostic replay: it
    changes no file in ``d``, so the recovery after it still restores
    the newest snapshot instead of replaying from genesis."""
    d = str(tmp_path)
    run_reference(d, default_specs(seed=5), scheduler=scheduler, seed=5,
                  snapshot_every=10)
    snapshots = sorted(n for n in os.listdir(d) if n.startswith("snap-"))
    assert snapshots
    before = _file_digests(d)
    full = recover(d, use_snapshot=False)
    full.wal.close()
    assert full.snapshot_tick is None
    assert _file_digests(d) == before
    again = recover(d)
    again.wal.close()
    assert again.snapshot_tick == int(snapshots[-1][len("snap-"):-4])
    assert again.engine.records == full.engine.records


def test_recovered_engine_extends_its_log(tmp_path):
    """A cut three frames before the end replays to the last check
    frame it kept; the recovered engine runs on from there and appends
    its own check frames to the same log, and a second recovery over
    that log replays them in full."""
    d = str(tmp_path / "ref")
    cut_dir = str(tmp_path / "cut")
    _, result = run_reference(d, default_specs(seed=1), scheduler="2pl",
                              seed=1)
    wal = EngineWal(d)
    offsets = list(wal.log.offsets)
    wal.close()
    os.makedirs(cut_dir)
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
    assert second.replayed > first.replayed
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
        seed=0, scheduler="2pl", recovery="transaction", backoff=4,
        max_ticks=1000, initial={"x": 0},
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


def test_recovery_peak_memory_per_logged_transaction(tmp_path):
    """Recovery holds each logged record only as long as it needs it:
    a frame's bytes until it is decoded, an ``add`` as the four fields
    its callers read, a check frame as three values.  On this
    800-transaction ``2pl`` service log (206 aborts), ``recover()``'s
    traced peak was 4 235 B per transaction when the log held every
    decision, and is 3 298 B now; the bound leaves room for allocator
    and interpreter drift without letting decoded records back in."""
    d = str(tmp_path)
    submissions = traffic_submissions(
        TrafficConfig(transactions=800, contention=0.05, seed=18)
    )

    async def serve_log():
        # No checkpoints: the bound is on a replay of the whole log.
        svc = TransactionService(ServiceConfig(
            scheduler="2pl", wal_dir=d, admission=AdmissionConfig(window=64),
            wal_snapshot_every=0,
        ))
        for start in range(0, len(submissions), 32):
            await asyncio.gather(
                *(svc.submit(s) for s in submissions[start:start + 32])
            )
        await svc.drain()
        svc.wal.close()
        return svc.engine.metrics.aborts

    assert asyncio.run(serve_log()) > 0
    log = EngineWal(d).log
    kinds = [pickle.loads(payload)["t"] for payload in log.payloads]
    log.close()
    assert kinds.count("add") == 800

    tracemalloc.start()
    try:
        report = recover(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report.wal.close()
    assert report.records == len(kinds)
    assert report.replayed == kinds.count("check")
    assert len(report.engine.commit_order) == 800
    assert peak / 800 <= 4300, (
        f"recover() peaked at {peak / 800:.0f} bytes per logged "
        f"transaction"
    )


#: Writes a contended ``mla-detect`` service log into ``argv[1]``, or
#: with ``argv[2] == "recover"`` recovers it and prints the commit count.
_HASH_SEED_SCRIPT = """
import asyncio, sys
from repro.durability import recover
from repro.service import AdmissionConfig, ServiceConfig, TransactionService
from repro.workloads.traffic import TrafficConfig, traffic_submissions

directory = sys.argv[1]
if sys.argv[2] == "recover":
    report = recover(directory)
    print(len(report.engine.commit_order), report.replayed)
    sys.exit(0)

async def serve():
    service = TransactionService(ServiceConfig(
        scheduler="mla-detect", wal_dir=directory,
        admission=AdmissionConfig(window=32),
    ))
    submissions = traffic_submissions(
        TrafficConfig(transactions=300, contention=0.15, seed=18)
    )
    for start in range(0, len(submissions), 32):
        await asyncio.gather(
            *(service.submit(s) for s in submissions[start:start + 32])
        )
    await service.drain()
    service.wal.close()
    print(service.engine.metrics.aborts)

asyncio.run(serve())
"""


def test_recovery_does_not_depend_on_the_hash_seed(tmp_path):
    """A check frame's digest hashes each decision's ``repr``, so it
    must not depend on anything the process's hash seed orders: a log
    written under one ``PYTHONHASHSEED`` recovers under another."""
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    d = str(tmp_path)

    def child(step: str, seed: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT, d, step],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    (aborts,) = child("write", "1")
    assert int(aborts) > 0
    commits, checks = child("recover", "2")
    assert int(commits) == 300
    assert int(checks) > 1
