"""The engine's decision stream against goldens.

``Engine._emit`` builds each decision once — the schedulers' included,
which report through it too — and fans it out to the sinks that read
its kind: here the WAL and the tracer.  The goldens pin what they
received, and the history exported from the engine's commit records:
the WAL file and the history file byte for byte (as SHA-256), and
every flight-recorder event.  (The history file was written by a
commit sink when the goldens were recorded; its bytes did not move when
the export took over.)

They were first recorded before that rewrite, when each site spelled
its fields once per sink, and were regenerated whole when the engine's
grant waits and commit dependencies became one waits-for relation.  At
that regeneration eleven of the twelve matrix runs kept their WAL and
history bytes and every event field the old goldens held; their
``txn.commit`` and ``txn.abort`` events gained the keys one shared
record had since added (``result``, ``cut_levels``, ``unit``).  One run
moved: ``mla-prevent:segment``.  At tick 240 ``t0`` asks to wait on the
finished ``t4``, and ``t4 -> t3 -> t6 -> t0`` are commit dependencies.
Each relation alone is acyclic, so the engine used to sit idle for 500
ticks until the stall rule rolled back a random member at tick 733
(the run ended at tick 759).  The one relation finds the cycle when
``t0`` asks, reports a ``commit-dependency`` deadlock and rolls back the
same youngest member, ``t6``; the run ends at tick 278.  ``STALL_RUN``
was added then, so the stall rule stays pinned.

They were regenerated once more when a wait came to be searched from
its waiter over the one relation (with ``2pl``'s lock waits in it)
instead of searching a graph of every recorded wait from its first
node.  Every run kept its WAL and history bytes, and every event but
28 ``deadlock`` events stayed byte-identical.  Each of those 28 reports
the parent's cycle rotated to start at the waiter, with the same victim
and cause: ``2pl`` 4 + 4 (transaction + segment), ``mla-nested-lock``
3 + 5, ``mla-prevent`` 3 + 3 and ``STALL_RUN`` 6.

Their ``wal_sha256`` values alone were re-recorded when the WAL came to
log inputs and check frames instead of every decision.  A run here logs
no input, so its WAL is one check frame whose digest covers every
decision the WAL reads; every history digest and every event stayed
byte-identical.

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

from repro.audit import HistoryExport, paths_from_nest
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

#: Contended enough that every decision kind but the stall occurs
#: somewhere in the matrix: cascades, deadlocks, partial rollbacks,
#: commit waits and (with the short prune interval) window prunes.
CONFIG = BankingConfig(
    families=2, accounts_per_family=2, transfers=8, bank_audits=1,
    creditor_audits=1, seed=11,
)
SEED = 11
#: E14's contended banking workload (``benchmarks/bench_e14_fault_sweep``)
#: and engine seed: the second half of the no-stall matrix.
E14_CONFIG = BankingConfig(
    families=3, accounts_per_family=2, transfers=4, intra_family_ratio=1.0,
    bank_audits=1, creditor_audits=1, amount_range=(10, 60),
    initial_balance=1000, seed=21,
)
E14_SEED = 2


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
#: ``"<scheduler>:<recovery>"`` -> ``run_streams`` arguments: the
#: matrix, and one run that still stalls (at a low ``stall_limit``) so
#: the stall rule's events, its rng-drawn victims and the WAL and history
#: bytes they leave stay pinned now that no matrix run stalls.
RUNS = {
    f"{scheduler}:{recovery}": (scheduler, recovery, {})
    for scheduler in sorted(SCHEDULERS)
    for recovery in RECOVERY
}
STALL_RUN = "mla-prevent:segment:stall_limit=10"
RUNS[STALL_RUN] = ("mla-prevent", "segment", {"stall_limit": 10})


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def run_streams(scheduler: str, recovery: str, directory: str, **options):
    """One run with the WAL and tracer attached and its history
    exported (``options`` go to the engine); returns the tracer and the
    SHA-256 of the WAL and history files it left in ``directory``."""
    workload = BankingWorkload(CONFIG)
    depth, paths = paths_from_nest(workload.nest, sorted(workload.nest.items))
    history_path = os.path.join(directory, "history.jsonl")
    wal = EngineWal(directory)
    tracer = RingTracer(None)
    engine = workload.engine(
        SCHEDULERS[scheduler](workload.nest), seed=SEED, recovery=recovery,
        wal=wal, tracer=tracer, **options,
    )
    history = HistoryExport(
        history_path, engine, path_of=paths.__getitem__,
        initial=dict(workload.accounts), depth=depth,
    )
    engine.run()
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


def assert_sinks_match(key: str, directory: str) -> None:
    """Run ``key`` and compare what each sink received with its golden."""
    golden = GOLDEN[key]
    scheduler, recovery, options = RUNS[key]
    tracer, digests = run_streams(scheduler, recovery, directory, **options)
    assert digests["wal_sha256"] == golden["wal_sha256"]
    assert digests["history_sha256"] == golden["history_sha256"]
    # Through JSON, as the golden was written: int keys become strings.
    events = json.loads(json.dumps(
        [event_to_dict(event) for event in tracer.events()]
    ))
    assert len(events) == len(golden["events"])
    for position, (old, new) in enumerate(zip(golden["events"], events)):
        assert new == old, f"event {position} ({old['kind']} at {old['at']})"


@pytest.mark.parametrize("recovery", RECOVERY)
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_sinks_receive_what_the_parent_wrote(scheduler, recovery, tmp_path):
    assert_sinks_match(f"{scheduler}:{recovery}", str(tmp_path))


def test_a_stalling_run_receives_what_it_wrote(tmp_path):
    assert_sinks_match(STALL_RUN, str(tmp_path))


def test_matrix_exercises_every_decision_kind():
    """The goldens are only as good as their coverage.  No matrix run
    stalls (``test_no_run_stalls``): ``engine.stall`` comes from
    ``STALL_RUN``."""
    kinds = {
        key: {event["kind"] for event in run["events"]}
        for key, run in GOLDEN.items()
    }
    assert "engine.stall" in kinds[STALL_RUN]
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
    } <= set().union(*kinds.values())


@pytest.mark.parametrize("workload", ["decision-stream", "e14"])
@pytest.mark.parametrize("recovery", RECOVERY)
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_no_run_stalls(scheduler, recovery, workload):
    """No progress means a cycle of the waits-for relation, which the
    engine breaks when the wait or the commit that closes it is asked
    for: at the default ``stall_limit`` the stall rule never fires."""
    config, seed = {
        "decision-stream": (CONFIG, SEED), "e14": (E14_CONFIG, E14_SEED),
    }[workload]
    bank = BankingWorkload(config)
    tracer = RingTracer(None)
    engine = bank.engine(
        SCHEDULERS[scheduler](bank.nest), seed=seed, recovery=recovery,
        tracer=tracer,
    )
    assert engine.stall_limit == 500
    result = engine.run()
    assert [
        event.data for event in tracer.events() if event.kind == "engine.stall"
    ] == []
    assert len(result.commit_order) == len(bank.programs)


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
    for key, (scheduler, recovery, options) in RUNS.items():
        with tempfile.TemporaryDirectory() as directory:
            tracer, digests = run_streams(
                scheduler, recovery, directory, **options
            )
        digests["events"] = [
            event_to_dict(event) for event in tracer.events()
        ]
        golden[key] = digests
    with open(GOLDEN_PATH, "wb") as raw:
        # mtime=0: the same events compress to the same bytes.
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as packed:
            packed.write(
                json.dumps(golden, sort_keys=True, indent=0).encode()
            )
    print(f"wrote {len(golden)} runs to {GOLDEN_PATH}")
