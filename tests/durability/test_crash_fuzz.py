"""Crash-point fuzzing: every seeded kill of the WAL — at record
boundaries and mid-record (torn writes) — must recover to a
bitwise-identical engine and continue to the reference history.  The
sweeps below cover well over 200 kill points across all five
schedulers, both recovery units, and both snapshot regimes."""

from __future__ import annotations

import random

import pytest

from repro.api import ProgramSpec
from repro.durability.fuzz import fuzz_crash_points

SCHEDULERS = ["serial", "2pl", "timestamp", "mla-detect", "mla-prevent",
              "mla-nested-lock"]


def contended_specs(seed: int = 0, txns: int = 24):
    """High-contention workload: few entities, many transactions —
    drives aborts, restarts, rewinds, and (via the commit count)
    closure-window prunes."""
    rng = random.Random(seed)
    specs = []
    for i in range(txns):
        ops: list[tuple] = []
        steps = 4
        for s in range(steps):
            entity = rng.choice(["x", "y", "z"])
            kind = rng.randrange(3)
            if kind == 0:
                ops.append(("read", entity))
            elif kind == 1:
                ops.append(("add", entity, rng.randrange(-3, 4)))
            else:
                ops.append(("set", entity, rng.randrange(50)))
            if s < steps - 1 and rng.random() < 0.4:
                ops.append(("bp", rng.choice([2, 3])))
        specs.append(ProgramSpec(
            f"t{i:02d}", tuple(ops),
            (rng.choice(["a", "b"]), rng.choice(["p", "q"])),
        ))
    return specs


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_all_cuts_recover(tmp_path, scheduler):
    """20 kill points per scheduler, no snapshots: pure log replay."""
    report = fuzz_crash_points(
        str(tmp_path), scheduler=scheduler, seed=11, cut_limit=20
    )
    assert report.summary()["cuts"] == 20
    assert report.ok, report.failures[0].error


@pytest.mark.parametrize("scheduler", ["2pl", "mla-detect", "mla-prevent"])
def test_all_cuts_recover_via_snapshots(tmp_path, scheduler):
    """Kill points with a snapshot cadence: recovery takes the
    snapshot shortcut and replays only the suffix."""
    report = fuzz_crash_points(
        str(tmp_path), scheduler=scheduler, seed=7, cut_limit=20,
        snapshot_every=10,
    )
    assert report.ok, report.failures[0].error
    # At least one late cut actually recovered through a snapshot.
    assert any(c.snapshot_tick is not None for c in report.cuts)


@pytest.mark.parametrize("scheduler", ["mla-detect", "mla-nested-lock"])
def test_segment_recovery_unit_cuts(tmp_path, scheduler):
    """Partial rollback (rewind records) under crash-point fuzzing."""
    report = fuzz_crash_points(
        str(tmp_path), specs=contended_specs(seed=3, txns=10),
        scheduler=scheduler, seed=3, cut_limit=15,
        recovery_unit="segment",
    )
    assert report.ok, report.failures[0].error


def test_contended_workload_with_prunes(tmp_path):
    """Enough commits to trigger closure-window pruning; prune records
    are decisions and must verify on replay like any other."""
    report = fuzz_crash_points(
        str(tmp_path), specs=contended_specs(seed=1), scheduler="mla-detect",
        seed=1, cut_limit=25, snapshot_every=12,
    )
    assert report.ok, report.failures[0].error
    kinds = report.summary()["kinds"]
    assert kinds.get("torn", 0) > 0  # mid-record cuts were exercised


def test_dense_sweep_mla_detect(tmp_path):
    """The dense run: 60 kill points with double torn sampling on the
    flagship scheduler."""
    report = fuzz_crash_points(
        str(tmp_path), scheduler="mla-detect", seed=0, cut_limit=60,
        snapshot_every=8, torn_per_record=2,
    )
    kinds = report.summary()["kinds"]
    assert kinds["boundary"] + kinds["torn"] == 60
    assert {"records-torn", "records-short", "unrenamed"} <= set(kinds)
    assert report.ok, report.failures[0].error


@pytest.mark.parametrize("scheduler", ["2pl", "mla-detect"])
def test_interrupted_checkpoints_fall_back(tmp_path, scheduler):
    """A crash in the middle of a checkpoint — its records frame torn
    mid-append, the snapshot written but its records lost, or the
    snapshot never renamed from its temp file — recovers from an older
    snapshot or from genesis, to the same commits and history, and
    continues to the reference run."""
    report = fuzz_crash_points(
        str(tmp_path), specs=contended_specs(seed=4), scheduler=scheduler,
        seed=4, cut_limit=1, snapshot_every=8,
    )
    assert report.ok, report.failures[0].error
    checkpoint = [
        cut for cut in report.cuts if cut.kind not in ("boundary", "torn")
    ]
    kinds = {cut.kind for cut in checkpoint}
    assert kinds == {"records-torn", "records-short", "unrenamed"}
    # One snapshot was still there to fall back to.
    assert any(cut.snapshot_tick is not None for cut in checkpoint)


def test_reference_digest_is_stable(tmp_path):
    a = fuzz_crash_points(str(tmp_path / "a"), scheduler="2pl", seed=9,
                          cut_limit=2)
    b = fuzz_crash_points(str(tmp_path / "b"), scheduler="2pl", seed=9,
                          cut_limit=2)
    assert a.reference_digest == b.reference_digest
