"""A snapshot the parent commit wrote must not crash recovery.

``tests/durability/fixtures/parent_snapshot/mla-detect/`` holds one
``snap-*.bin`` written by a contended ``mla-detect`` service at the
commit before the step types became tuples.  Its pickle holds
``StepRecord`` dataclass instances, which cannot be unpickled into the
tuple type of the same name.  Beside it is the WAL of the same run,
re-recorded when the log became one of inputs and check frames
(regenerate the WAL — only from a commit whose logs must stay readable
— with ``PYTHONPATH=<that checkout>/src python
tests/durability/test_parent_snapshot.py``, which keeps the snapshot).

Recovery must reach the recorded history digest both ways a stale
snapshot can meet it: carrying an old stamp (skipped unread), and —
should a layout change ever ship without a stamp bump — carrying the
current one, when unpickling fails with ``TypeError`` and the snapshot
is skipped all the same.  Either way the WAL alone replays the run.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil

import pytest

from repro.durability import recover
from repro.durability import snapshot as snapshot_module
from repro.service import AdmissionConfig, ServiceConfig, TransactionService
from repro.workloads.traffic import TrafficConfig, traffic_submissions

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "fixtures", "parent_snapshot", "mla-detect",
)
TRAFFIC = TrafficConfig(
    transactions=12, families=2, entities_per_family=3, shared_entities=2,
    contention=0.3, seed=5,
)
#: The stamp the fixture's snapshot carries.
PARENT_STAMP = b"repro-snapshot-4\n"


def _summary(engine) -> dict:
    return {
        "commit_order": list(engine.commit_order),
        "history_sha256": engine.run(
            until_tick=engine.tick
        ).history_digest(),
        "aborts": engine.metrics.aborts,
        "tick": engine.tick,
    }


@pytest.mark.parametrize("stamp", ["current", "parent"])
def test_parent_snapshot_is_skipped_and_the_wal_replays(
    stamp, tmp_path, monkeypatch
):
    directory = str(tmp_path / "mla-detect")
    shutil.copytree(FIXTURE, directory)
    with open(os.path.join(directory, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    snaps = [name for name in os.listdir(directory) if name.startswith("snap-")]
    assert len(snaps) == 1
    with open(os.path.join(directory, snaps[0]), "rb") as fh:
        assert fh.read()[8:].startswith(PARENT_STAMP)
    if stamp == "parent":
        # As if the layout had changed without a stamp bump: the
        # snapshot is unpickled, and its dataclass records fail to load.
        monkeypatch.setattr(snapshot_module, "_STAMP", PARENT_STAMP)
    assert snapshot_module.load_latest_snapshot(directory) is None
    report = recover(directory)
    assert report.snapshot_tick is None
    assert not report.truncated
    assert report.replayed == expected["checks"]
    assert not report.engine.active_states()
    assert _summary(report.engine) == expected["summary"]
    report.wal.close()


if __name__ == "__main__":
    import tempfile

    from repro.durability.wal import LOG_NAME, LogFile

    with tempfile.TemporaryDirectory() as scratch:

        async def serve() -> TransactionService:
            service = TransactionService(ServiceConfig(
                scheduler="mla-detect", wal_dir=scratch,
                wal_snapshot_every=24,
                admission=AdmissionConfig(window=TRAFFIC.transactions),
            ))
            await asyncio.gather(
                *(service.submit(s) for s in traffic_submissions(TRAFFIC))
            )
            await service.drain()
            service.wal.close()
            return service

        service = asyncio.run(serve())
        # The run's own snapshots are dropped: the fixture's is the
        # parent's, which no later build can write.
        shutil.copy(
            os.path.join(scratch, LOG_NAME), os.path.join(FIXTURE, LOG_NAME)
        )
    log = LogFile(os.path.join(FIXTURE, LOG_NAME))
    checks = sum(record["t"] == "check" for record in log.records())
    with open(os.path.join(FIXTURE, "expected.json"), "w",
              encoding="utf-8") as fh:
        json.dump(
            {"checks": checks, "summary": _summary(service.engine)},
            fh, indent=1, sort_keys=True,
        )
        fh.write("\n")
    print(checks, "check frames,", service.engine.metrics.aborts, "aborts")
