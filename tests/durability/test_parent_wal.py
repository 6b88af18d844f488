"""Logs the parent commit wrote must replay under this one.

``tests/durability/fixtures/parent_wal/<scheduler>/engine.wal`` was
written by a contended in-process service run at the commit that made
the log one of inputs and check frames (regenerate — only from a
commit whose logs must stay readable — with ``PYTHONPATH=<that
checkout>/src python tests/durability/test_parent_wal.py``).  Replay
re-derives every decision and matches each check frame's digest and
commit count, so replaying to completion *is* the format check: same
record types, same fields, same decisions.  A log in the format before
that, which logged every decision, is refused
(``test_regressions.py``, ``fixtures/format1_wal``).
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil

import pytest

from repro.durability import recover
from repro.service import AdmissionConfig, ServiceConfig, TransactionService
from repro.workloads.traffic import TrafficConfig, traffic_submissions

FIXTURES = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "parent_wal"
)
SCHEDULERS = ("2pl", "mla-detect")
TRAFFIC = TrafficConfig(
    transactions=16, families=2, entities_per_family=3, shared_entities=2,
    contention=0.3, seed=5,
)


def _summary(engine) -> dict:
    return {
        "commit_order": list(engine.commit_order),
        "history_sha256": engine.run(
            until_tick=engine.tick
        ).history_digest(),
        "aborts": engine.metrics.aborts,
        "tick": engine.tick,
    }


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_parent_written_wal_replays_to_completion(scheduler, tmp_path):
    directory = str(tmp_path / scheduler)
    shutil.copytree(os.path.join(FIXTURES, scheduler), directory)
    expected_path = os.path.join(directory, "expected.json")
    with open(expected_path, encoding="utf-8") as handle:
        expected = json.load(handle)
    assert expected["summary"]["aborts"] > 0, "must exercise rollback"
    report = recover(directory)
    assert not report.truncated
    assert report.replayed == expected["checks"]
    assert not report.engine.active_states()
    assert _summary(report.engine) == expected["summary"]
    report.wal.close()


if __name__ == "__main__":
    from repro.durability.wal import LogFile

    for scheduler in SCHEDULERS:
        directory = os.path.join(FIXTURES, scheduler)
        shutil.rmtree(directory, ignore_errors=True)

        async def serve() -> TransactionService:
            service = TransactionService(ServiceConfig(
                scheduler=scheduler, wal_dir=directory,
                admission=AdmissionConfig(window=TRAFFIC.transactions),
            ))
            await asyncio.gather(
                *(service.submit(s) for s in traffic_submissions(TRAFFIC))
            )
            await service.drain()
            service.wal.close()
            return service

        service = asyncio.run(serve())
        log = LogFile(os.path.join(directory, "engine.wal"))
        checks = sum(record["t"] == "check" for record in log.records())
        with open(os.path.join(directory, "expected.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(
                {"checks": checks, "summary": _summary(service.engine)},
                fh, indent=1, sort_keys=True,
            )
            fh.write("\n")
        print(scheduler, checks, "check frames,",
              service.engine.metrics.aborts, "aborts")
