"""Packing is invisible: an engine that keeps each commit as one packed
record decides and reports exactly what an engine keeping the same
records unpacked does.

The reference swaps the engine's packer for the identity and its
unpacker for naming the fields, so its committed log holds each
:class:`Commit` tuple as built.  Both engines run the same contended
traffic under both units of recovery (the segment unit reads
``Engine.log`` on every abort), and a snapshot taken mid-run is
pickled, restored with the engine's records onto a fresh engine and
continued slice by slice.  At
every observation ``Engine.log``, the history digest, the commit order
and the metrics must agree, and no committed transaction is left in
``txns`` or in the snapshot's transaction list.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import make_scheduler
from repro.core.nests import KNest
from repro.engine import runtime
from repro.engine.runtime import Engine
from repro.workloads.traffic import TrafficConfig, traffic_specs

SPECS = traffic_specs(TrafficConfig(
    transactions=24, families=2, entities_per_family=2, shared_entities=2,
    contention=0.4, seed=47,
))


def _construct(scheduler: str, recovery: str) -> Engine:
    nest = KNest(1)
    for spec in SPECS:
        nest.add(spec.name, spec.path)
    return Engine(
        [spec.compile() for spec in SPECS],
        {entity: 100 for spec in SPECS for entity in spec.entities},
        make_scheduler(scheduler, nest),
        seed=5,
        arrivals={spec.name: 3 * index for index, spec in enumerate(SPECS)},
        recovery=recovery,
        backoff=3,
    )


def _observe(engine: Engine) -> tuple:
    result = engine.run(until_tick=engine.tick)
    saved = {txn["name"] for txn in engine.snapshot_state()["txns"]}
    assert saved == set(engine.txns)
    assert not saved & set(result.commit_order)
    return (
        [(entry.seq, entry.key, entry.record) for entry in engine.log],
        result.history_digest(),
        result.commit_order,
        engine.metrics.summary(),
    )


def _play(scheduler: str, recovery: str) -> list[tuple]:
    engine = _construct(scheduler, recovery)
    seen = []
    for _ in range(4):
        engine.advance(until_tick=engine.tick + 40)
        seen.append(_observe(engine))
    snapshot = pickle.loads(pickle.dumps(engine.snapshot_state()))
    records = pickle.loads(pickle.dumps(engine.records))
    engine = _construct(scheduler, recovery)
    engine.restore_state(snapshot, records)
    seen.append(_observe(engine))
    while not engine.advance(until_tick=engine.tick + 40):
        seen.append(_observe(engine))
    seen.append(_observe(engine))
    return seen


@pytest.mark.parametrize("recovery", ["transaction", "segment"])
@pytest.mark.parametrize("scheduler", ["2pl", "mla-detect"])
def test_packed_commits_match_an_unpacked_reference(
    scheduler, recovery, monkeypatch
):
    packed = _play(scheduler, recovery)
    with monkeypatch.context() as patch:
        patch.setattr(runtime, "_Packer", lambda: lambda commit: commit)
        patch.setattr(runtime, "unpack_commit", runtime.Commit._make)
        reference = _play(scheduler, recovery)
    for step, (ours, theirs) in enumerate(zip(packed, reference)):
        assert ours == theirs, f"diverged at observation {step}"
    # The run is worth comparing: commits before the snapshot, and
    # rollbacks after them (each one reads the whole log under the
    # segment unit).
    assert packed[3][2]
    before, after = packed[3][3], packed[-1][3]
    rollbacks = ("aborts", "partial_rollbacks")
    assert sum(after[k] - before[k] for k in rollbacks) > 0, after


def test_a_commit_is_one_immutable_record():
    engine = _construct("2pl", "transaction")
    assert engine.advance()
    log = engine.records
    assert engine.snapshot_state()["commits"] == len(log)
    assert len(log) == len(SPECS)
    assert all(type(record) is bytes for record in log)
    commit = runtime.unpack_commit(log[0])
    assert commit.name == engine.commit_order[0]
    assert engine._committed((commit.name, commit.attempt))
    assert commit.commit_tick >= commit.arrival_tick
    assert commit.rows and all(len(row) == 6 for row in commit.rows)
    assert not engine.txns


@pytest.mark.parametrize("name", ["t1", "s2002", "tx-é☃", "n" * 255, "n" * 300])
def test_a_packed_name_reads_as_the_unpacked_one(name):
    """``packed_name`` reads a record's name off its front (the records
    file's scan reads one per commit); a name too long for that front
    is unpacked instead.  Either way it is the unpacked record's name,
    from ``bytes`` or from a view into a larger buffer."""
    commit = (name, 2, [(7, 0, "e", 1, 0, 5)], 3, 9, 2, 1, None, {})
    packed = runtime._Packer()(commit)
    buffer = memoryview(b"head" + packed + b"tail")
    assert runtime.unpack_commit(packed).name == name
    assert runtime.packed_name(packed) == name
    assert runtime.packed_name(buffer[4:4 + len(packed)]) == name
