"""The engine's decision stream against goldens the parent commit wrote.

``Engine._emit`` builds each decision once — the schedulers' included,
which report through it too — and fans it out to the history sink, the
WAL and the tracer.  The goldens pin what every sink received *before*
that rewrite, when each site spelled its fields once per sink (and the
schedulers wrote to the tracer directly): the WAL file and the history
file byte for byte (as SHA-256), and every flight-recorder event.  A
later event may carry more keys than its golden on ``txn.commit`` /
``txn.abort`` (one record now serves all sinks); nothing else may move.

Regenerate — only ever from the commit whose behaviour is the reference
— with ``PYTHONPATH=<that checkout>/src python
tests/engine/test_decision_stream.py``.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os

import pytest

from repro.audit import HistoryWriter, paths_from_nest
from repro.durability.wal import EngineWal
from repro.engine import (
    MLADetectScheduler,
    MLAPreventScheduler,
    NestedLockScheduler,
    SerialScheduler,
    TimestampScheduler,
    TwoPhaseLockingScheduler,
)
from repro.obs import RingTracer, format_timeline
from repro.obs.events import event_to_dict
from repro.workloads import BankingConfig, BankingWorkload

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "golden_decision_stream.json.gz",
)

#: Contended enough that every decision kind occurs somewhere in the
#: matrix: cascades, stalls, partial rollbacks, commit waits and (with
#: the short prune interval) window prunes.
CONFIG = BankingConfig(
    families=2, accounts_per_family=2, transfers=8, bank_audits=1,
    creditor_audits=1, seed=11,
)
SEED = 11


def short_prunes(scheduler):
    """``scheduler`` with its closure window pruning every 4 commits."""
    scheduler.window.prune_interval = 4
    return scheduler


SCHEDULERS = {
    "serial": lambda nest: SerialScheduler(),
    "2pl": lambda nest: TwoPhaseLockingScheduler(),
    "timestamp": lambda nest: TimestampScheduler(),
    "mla-detect": lambda nest: short_prunes(MLADetectScheduler(nest)),
    "mla-prevent": lambda nest: short_prunes(MLAPreventScheduler(nest)),
    "mla-nested-lock": lambda nest: short_prunes(NestedLockScheduler(nest)),
}
RECOVERY = ("transaction", "segment")
#: Keys an event may have gained over its golden.
MAY_GAIN = {
    "txn.commit": {"result", "cut_levels"},
    "txn.abort": {"unit"},
}


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def run_streams(scheduler: str, recovery: str, directory: str):
    """One run with all three sinks attached; returns the tracer and
    the SHA-256 of the WAL and history files it left in ``directory``."""
    workload = BankingWorkload(CONFIG)
    depth, paths = paths_from_nest(workload.nest, sorted(workload.nest.items))
    history_path = os.path.join(directory, "history.jsonl")
    history = HistoryWriter(
        history_path, initial=dict(workload.accounts), depth=depth,
        paths=paths,
    )
    wal = EngineWal(directory)
    tracer = RingTracer(None)
    workload.engine(
        SCHEDULERS[scheduler](workload.nest), seed=SEED, recovery=recovery,
        wal=wal, history=history, tracer=tracer,
    ).run()
    wal.sync()
    wal.close()
    history.close()
    return tracer, {
        "wal_sha256": _sha256(os.path.join(directory, "engine.wal")),
        "history_sha256": _sha256(history_path),
    }


def _load_golden() -> dict:
    with gzip.open(GOLDEN_PATH, "rt", encoding="utf-8") as handle:
        return json.load(handle)


#: ``"<scheduler>:<recovery>"`` -> file digests and the event list.
GOLDEN = _load_golden() if __name__ != "__main__" else {}


@pytest.mark.parametrize("recovery", RECOVERY)
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_sinks_receive_what_the_parent_wrote(scheduler, recovery, tmp_path):
    golden = GOLDEN[f"{scheduler}:{recovery}"]
    tracer, digests = run_streams(scheduler, recovery, str(tmp_path))
    assert digests["wal_sha256"] == golden["wal_sha256"]
    assert digests["history_sha256"] == golden["history_sha256"]
    events = [event_to_dict(event) for event in tracer.events()]
    assert len(events) == len(golden["events"])
    for position, (old, new) in enumerate(zip(golden["events"], events)):
        where = f"event {position} ({old['kind']} at {old['at']})"
        assert (new["kind"], new["at"]) == (old["kind"], old["at"]), where
        projected = {key: new["data"].get(key) for key in old["data"]}
        assert projected == old["data"], where
        gained = set(new["data"]) - set(old["data"])
        assert gained <= MAY_GAIN.get(new["kind"], set()), (where, gained)


def test_matrix_exercises_every_decision_kind():
    """The goldens are only as good as their coverage."""
    seen = {
        event["kind"] for run in GOLDEN.values() for event in run["events"]
    }
    assert {
        "step.perform", "step.undo", "txn.wait", "txn.commit-wait",
        "txn.commit", "txn.abort", "txn.restart", "txn.partial-rollback",
        "cascade.join", "engine.stall", "deadlock", "closure.rebuild",
        "closure.prune",
        # The schedulers' own, which reach the sinks through the same
        # emission point.
        "lock.acquire", "lock.wait", "lock.release", "ts.conflict",
        "closure.check", "cycle.detect", "breakpoint.wait",
        "retention.wait", "certify.fail", "park",
    } <= seen


def test_commit_events_stay_flat(tmp_path):
    """The committing attempt's ``(seq, StepRecord)`` list travels to the
    history sinks by reference; the trace ring holds flat primitives."""
    tracer, _ = run_streams("mla-detect", "transaction", str(tmp_path))
    events = tracer.events()
    commits = [event for event in events if event.kind == "txn.commit"]
    assert commits
    assert all("steps" not in event.data for event in commits)
    lines = [
        line for line in format_timeline(events) if "txn.commit " in line
    ]
    assert len(lines) == len(commits)
    for line in lines:
        assert "StepRecord" not in line and "_LogEntry" not in line


if __name__ == "__main__":
    import tempfile

    golden = {}
    for scheduler in sorted(SCHEDULERS):
        for recovery in RECOVERY:
            with tempfile.TemporaryDirectory() as directory:
                tracer, digests = run_streams(scheduler, recovery, directory)
            digests["events"] = [
                event_to_dict(event) for event in tracer.events()
            ]
            golden[f"{scheduler}:{recovery}"] = digests
    with open(GOLDEN_PATH, "wb") as raw:
        # mtime=0: the same events compress to the same bytes.
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as packed:
            packed.write(
                json.dumps(golden, sort_keys=True, indent=0).encode()
            )
    print(f"wrote {len(golden)} runs to {GOLDEN_PATH}")
