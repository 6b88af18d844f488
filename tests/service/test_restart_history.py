"""A restart with ``--history`` records what commits after it, and its
writer holds only the nest paths it can still use.

The run: 400 ``2pl`` transactions submitted in closed-loop batches of
32, and an unclean stop at the first commit of the seventh batch, so
the log holds 224 admissions and 193 commits.  A restart on that log
with a fresh history file replays it, and the same 400 submissions are
sent again: the committed keys are answered from the replayed engine,
the in-flight ones wait for the resumed transactions, and the rest run
fresh.  The restarted writer is told the paths of the in-flight
transactions only, and pops each at its commit, so once the service
has drained it holds none.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import subprocess
import sys

from repro.audit import load_history
from repro.service import (
    AdmissionConfig,
    ServiceClient,
    ServiceConfig,
    TransactionService,
)
from repro.workloads.traffic import TrafficConfig, traffic_submissions

SUBMISSIONS = traffic_submissions(
    TrafficConfig(transactions=400, contention=0.02, seed=18)
)
BATCHES = [SUBMISSIONS[i:i + 32] for i in range(0, len(SUBMISSIONS), 32)]
#: The batches that commit before the unclean stop.
CLEAN = 6
#: The restarted history's footer digest, as the previous build (whose
#: writer kept every recovered path) wrote it for the same run.
DIGEST = "dc2795c77a93eeff37ab4914192c2d3fef594c8ec6d0b8efab5fa263ebb84337"


def crash_log(directory: str) -> tuple[int, int]:
    """Serve ``CLEAN`` batches, then stop at the next batch's first
    commit without a drain or a sync; returns (admitted, committed)."""

    async def go() -> TransactionService:
        service = TransactionService(ServiceConfig(
            scheduler="2pl", wal_dir=directory, tick_batch=4,
            admission=AdmissionConfig(window=32),
        ))
        for batch in BATCHES[:CLEAN]:
            await asyncio.gather(*(service.submit(s) for s in batch))
        committed = len(service.engine.commit_order)
        unanswered = [
            asyncio.ensure_future(service.submit(s)) for s in BATCHES[CLEAN]
        ]
        while len(service.engine.commit_order) == committed:
            await asyncio.sleep(0)
        # Abandoned between two pump slices: each slice's records reach
        # the file before its replies, and nothing more is written.
        for task in unanswered:
            task.cancel()
        return service

    service = asyncio.run(go())
    service.wal.close()
    return service.admission.admitted, len(service.engine.commit_order)


def resubmit(service: TransactionService) -> list[dict]:
    async def go():
        responses = []
        for batch in BATCHES:
            responses += await asyncio.gather(
                *(service.submit(s) for s in batch)
            )
        await service.drain()
        return responses

    return asyncio.run(go())


def serve_restart(directory: str, history: str) -> tuple[dict, dict, dict]:
    """Restart a real ``repro serve`` child on ``directory`` with a new
    ``history``, resubmit every key and shut it down; returns health
    before and after the resubmission, and the shutdown reply."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["repro"].__file__
    )))
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--scheduler", "2pl", "--wal", directory, "--history", history],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        port = int(re.search(r":(\d+) ", child.stdout.readline()).group(1))
        with ServiceClient("127.0.0.1", port, timeout=60) as client:
            before = client.health()
            responses = []
            for batch in BATCHES:
                reply = client.request({
                    "op": "submit_batch",
                    "submissions": [s.to_dict() for s in batch],
                })
                assert reply["ok"]
                responses += reply["responses"]
            assert_resubmitted(responses, before["submitted"])
            after = client.health()
            summary = client.shutdown()
        assert child.wait(timeout=60) == 0
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    return before, after, summary


def assert_resubmitted(responses: list[dict], admitted: int) -> None:
    """Every logged key is answered as a duplicate, every other one
    runs fresh, and all of them commit."""
    assert [r.get("duplicate", False) for r in responses] == (
        [True] * admitted + [False] * (len(SUBMISSIONS) - admitted)
    )
    assert all(r["ok"] for r in responses)


def test_restart_history_holds_only_post_restart_commits(tmp_path):
    admitted, crashed = crash_log(str(tmp_path / "crashed"))
    assert (admitted, crashed) == (224, 193)

    # In process: the writer learns only the in-flight paths, and has
    # popped every one once the service has drained.
    in_process = str(tmp_path / "in-process")
    shutil.copytree(tmp_path / "crashed", in_process)
    service = TransactionService(ServiceConfig(
        scheduler="2pl", wal_dir=in_process,
        history_path=str(tmp_path / "in-process.jsonl"),
        admission=AdmissionConfig(window=32),
    ))
    assert len(service.history.paths) == admitted - crashed
    assert_resubmitted(resubmit(service), admitted)
    assert len(service.engine.commit_order) == len(SUBMISSIONS)
    assert service.history.paths == {}
    service.wal.close()
    in_process_digest = service.history.close()

    # A real server on the same log, driven through the client.
    served = str(tmp_path / "served")
    shutil.copytree(tmp_path / "crashed", served)
    history = str(tmp_path / "served.jsonl")
    before, after, summary = serve_restart(served, history)
    assert before["committed"] == crashed
    assert before["submitted"] == before["wal"]["recovered"] == admitted
    assert before["history"]["path"] == history
    assert after["committed"] == summary["committed"] == len(SUBMISSIONS)

    with open(history, encoding="utf-8") as handle:
        footer = json.loads(handle.readlines()[-1])
    assert footer["kind"] == "footer"
    assert footer["commits"] == len(SUBMISSIONS) - crashed
    loaded = load_history(history)
    assert len(loaded.commit_order) == len(SUBMISSIONS) - crashed
    assert loaded.digest() == footer["sha256"] == in_process_digest
    assert footer["sha256"] == DIGEST
