"""A restart finishes what the log admitted, and with ``--history`` it
writes a history of the whole run: the file is exported at close from
the engine's commit records, and a recovered engine holds every record
its run committed (the checkpoint's and the replay's).

The run: 400 ``2pl`` transactions submitted in closed-loop batches of
32, and an unclean stop at the first commit of the seventh batch, so
the log holds 224 admissions and 193 commits.  A restart on that log
with a fresh history file replays it and resumes the 31 in-flight
transactions with no client asking: a drain commits all 224.  Then the
same 400 submissions are sent again: the 224 logged keys are answered
from the engine as duplicates, and the rest run fresh.  The history
written at shutdown holds all 400 commits, the 193 from before the
crash included.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

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
#: The restarted history's footer digest: every commit of the run, the
#: ones made before the crash included.
DIGEST = "a30ec3a58867c1c040fcde241a1b6ec8d0801150d460e455a2021d9b1d6593dd"


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
    ``history``, drain it, resubmit every key and shut it down; returns
    the drain reply, health after the resubmission, and the shutdown
    reply."""
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
            before = client.drain()
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


@pytest.fixture(scope="module")
def crashed(tmp_path_factory) -> tuple[str, int, int]:
    """The crashed run's log directory, admitted and committed counts."""
    directory = str(tmp_path_factory.mktemp("crashed"))
    admitted, committed = crash_log(directory)
    assert (admitted, committed) == (224, 193)
    return directory, admitted, committed


def restart(log: str, directory: str, history: str) -> TransactionService:
    shutil.copytree(log, directory)
    return TransactionService(ServiceConfig(
        scheduler="2pl", wal_dir=directory, history_path=history,
        admission=AdmissionConfig(window=32),
    ))


def test_a_restart_commits_what_it_admitted_with_no_submission(
    crashed, tmp_path
):
    """Nobody resubmits: a drain alone commits the 31 transactions the
    log admitted but did not commit, and the restarted history's footer
    counts every commit the log admitted, before the crash and after."""
    log, admitted, committed = crashed
    history = str(tmp_path / "drained.jsonl")
    service = restart(log, str(tmp_path / "drained"), history)
    health = service.health()
    assert health["in_flight"] == admitted - committed
    assert service.registry.value("repro_service_in_flight") == (
        admitted - committed
    )
    drained = asyncio.run(service.drain())
    assert drained["committed"] == drained["submitted"] == admitted
    assert drained["in_flight"] == 0
    service.wal.close()
    digest = service.history.close()
    with open(history, encoding="utf-8") as handle:
        footer = json.loads(handle.readlines()[-1])
    assert footer["commits"] == admitted == 224
    assert footer["sha256"] == digest == service.engine.history_digest()
    assert load_history(history).commit_order == tuple(
        service.engine.commit_order
    )


def test_restart_history_covers_the_whole_run(crashed, tmp_path):
    log, admitted, crashed = crashed

    # In process: the export holds the replayed commits and the new.
    service = restart(
        log, str(tmp_path / "in-process"), str(tmp_path / "in-process.jsonl")
    )
    assert asyncio.run(service.drain())["committed"] == admitted
    assert_resubmitted(resubmit(service), admitted)
    assert len(service.engine.commit_order) == len(SUBMISSIONS)
    service.wal.close()
    in_process_digest = service.history.close()
    assert in_process_digest == service.engine.history_digest()
    assert in_process_digest == service.result().history_digest()

    # A real server on the same log, driven through the client.
    served = str(tmp_path / "served")
    shutil.copytree(log, served)
    history = str(tmp_path / "served.jsonl")
    before, after, summary = serve_restart(served, history)
    assert before["committed"] == before["submitted"] == admitted
    assert before["wal"]["recovered"] == admitted
    assert before["history"]["path"] == history
    assert after["committed"] == summary["committed"] == len(SUBMISSIONS)

    with open(history, encoding="utf-8") as handle:
        footer = json.loads(handle.readlines()[-1])
    assert footer["kind"] == "footer"
    assert footer["commits"] == summary["committed"] == len(SUBMISSIONS)
    loaded = load_history(history)
    assert len(loaded.commit_order) == len(SUBMISSIONS)
    assert loaded.digest() == footer["sha256"] == in_process_digest
    assert footer["sha256"] == DIGEST


def test_a_resubmitted_key_is_answered_before_or_after_its_commit(
    crashed, tmp_path
):
    """A key whose transaction recovery resumed gets the same envelope
    whether it comes back while the transaction is still running or
    after the pump has committed it with nobody waiting."""
    log, admitted, committed = crashed
    service = restart(
        log, str(tmp_path / "resubmitted"), str(tmp_path / "h.jsonl")
    )
    by_name = {s.program.name: s for s in SUBMISSIONS[:admitted]}
    resumed = [
        by_name[state.name] for state in service.engine.active_states()
    ]
    assert len(resumed) == admitted - committed

    async def go():
        early = asyncio.ensure_future(service.submit(resumed[0]))
        await asyncio.sleep(0)
        assert not early.done()
        await service.drain()
        late = [await service.submit(s) for s in resumed]
        return await early, late

    early, late = asyncio.run(go())
    service.wal.close()
    service.history.close()
    assert early["duplicate"] and all(r["duplicate"] for r in late)
    assert early["envelope"] == late[0]["envelope"]
    positions = [r["envelope"]["serial_position"] for r in late]
    assert sorted(positions) == list(range(committed, admitted))
    assert all(
        r["envelope"]["status"] in ("committed", "restarted") for r in late
    )
