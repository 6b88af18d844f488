"""The arrival queue is invisible: an engine that scans only arrived
transactions decides exactly what an engine scanning all of ``txns``
(every uncommitted transaction) every tick decides.

``FullScanEngine`` is the reference — the engine as it was before the
arrival queue and the name-ranked candidate list, kept here (never in
``src/``) by overriding the two places that read the arrived set.  The
hypothesis differential drives both through the same script:
non-monotone up-front arrivals, programs added at arbitrary future
ticks between ``advance`` slices, and a snapshot/restore onto a fresh
engine mid-run, under all five schedulers and both recovery units.
The engine under test checks, on every tick, that its ranked list is
its arrived set in name order and that its candidates are the awake
entries of it: the attention pick draws from that list unsorted.

The scaling test is a count, not a timer: replaying a 2 000-transaction
service log, the set the tick loop walks never outgrows the admission
window the log was written under.
"""

from __future__ import annotations

import asyncio
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Submission, make_scheduler
from repro.core.nests import KNest
from repro.durability import recover
from repro.engine.runtime import Engine
from repro.service import AdmissionConfig, ServiceConfig, TransactionService
from repro.workloads.traffic import TrafficConfig, traffic_specs

SCHEDULERS = ("2pl", "timestamp", "mla-detect", "mla-prevent", "mla-nested-lock")


class FullScanEngine(Engine):
    """Every tick scans every uncommitted transaction, arrived or not,
    and sorts the awake ones by name — the list the pick draws from."""

    def _candidates(self):
        return sorted(
            (t for t in self.txns.values() if t.wake_tick <= self.tick),
            key=lambda t: t.name,
        )

    def arrived_states(self):
        return self.active_states()


def _snapshot_bytes(engine) -> bytes:
    """``snapshot_state()`` pickled whole, with the committed records it
    covers."""
    return pickle.dumps((engine.snapshot_state(), engine.records))


class RankedEngine(Engine):
    """The engine itself, asserting the ranked-list contract each tick:
    ``_ranked`` is ``_arrived`` in name order, and the candidates are
    its awake entries, in that order."""

    def _candidates(self):
        candidates = super()._candidates()
        assert [t.name for t in self._ranked] == sorted(self._arrived)
        assert [t.name for t in candidates] == [
            t.name for t in self._ranked if t.wake_tick <= self.tick
        ]
        return candidates


def _observe(engine) -> tuple:
    if isinstance(engine, RankedEngine):
        assert [t.name for t in engine._ranked] == sorted(engine._arrived)
    result = engine.run(until_tick=engine.tick)
    return (
        result.history_digest(),
        result.commit_order,
        engine.metrics.summary(),
        engine.rng.getstate(),
        [state.name for state in engine.active_states()],
        _snapshot_bytes(engine),
    )


@st.composite
def scripts(draw):
    count = draw(st.integers(3, 9))
    specs = traffic_specs(TrafficConfig(
        transactions=count,
        families=2,
        entities_per_family=2,
        shared_entities=2,
        contention=draw(st.sampled_from([0.2, 0.6])),
        seed=draw(st.integers(0, 10_000)),
    ))
    upfront = draw(st.integers(0, count))
    arrivals = draw(st.lists(
        st.integers(0, 60), min_size=upfront, max_size=upfront
    ))
    # Each later program: the slice after which it is added, and how far
    # past the clock it arrives.
    slices = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    late = [
        (draw(st.integers(0, len(slices) - 1)), draw(st.integers(1, 50)))
        for _ in range(count - upfront)
    ]
    return {
        "specs": specs,
        "upfront": upfront,
        "arrivals": arrivals,
        "slices": slices,
        "late": late,
        "restore_after": draw(st.integers(0, len(slices) - 1)),
        "seed": draw(st.integers(0, 50)),
        "recovery": draw(st.sampled_from(["transaction", "segment"])),
    }


def _play(engine_class, scheduler: str, script: dict) -> list[tuple]:
    specs = script["specs"]
    upfront = script["upfront"]

    def construct(registered, arrivals):
        nest = KNest(1)
        for spec in registered:
            nest.add(spec.name, spec.path)
        engine = engine_class(
            [spec.compile() for spec in registered],
            {entity: 100 for spec in specs for entity in spec.entities},
            make_scheduler(scheduler, nest),
            seed=script["seed"],
            arrivals=arrivals,
            recovery=script["recovery"],
            backoff=3,
        )
        return engine, nest

    registered = list(specs[:upfront])
    arrivals = {
        spec.name: tick for spec, tick in zip(registered, script["arrivals"])
    }
    engine, nest = construct(registered, arrivals)
    seen = []
    for index, ticks in enumerate(script["slices"]):
        engine.advance(until_tick=engine.tick + ticks)
        seen.append(_observe(engine))
        for spec, (after, ahead) in zip(specs[upfront:], script["late"]):
            if after == index:
                nest.add(spec.name, spec.path)
                state = engine.add_program(
                    spec.compile(), arrival_tick=engine.tick + ahead
                )
                registered.append(spec)
                arrivals[spec.name] = state.arrival_tick
        if index == script["restore_after"]:
            snapshot = pickle.loads(pickle.dumps(engine.snapshot_state()))
            records = list(engine.records)
            engine, nest = construct(registered, arrivals)
            engine.restore_state(snapshot, records)
            seen.append(_observe(engine))
    engine.advance(until_tick=engine.tick + 1500)
    seen.append(_observe(engine))
    return seen


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(script=scripts())
def test_arrival_queue_matches_full_scan(scheduler, script):
    queued = _play(RankedEngine, scheduler, script)
    scanned = _play(FullScanEngine, scheduler, script)
    for step, (ours, reference) in enumerate(zip(queued, scanned)):
        assert ours == reference, f"diverged at observation {step}"


def test_unarrived_fallback_victim_keeps_its_early_wake():
    """The schedulers' fallback victim sets draw from *all* active
    transactions, so a victim may not have arrived; its backoff can then
    end before its arrival tick, and the full scan attends it from its
    wake tick on.  The queue must as well."""
    specs = traffic_specs(TrafficConfig(transactions=2, seed=3))
    for engine_class in (Engine, FullScanEngine):
        nest = KNest(1)
        for spec in specs:
            nest.add(spec.name, spec.path)
        engine = engine_class(
            [spec.compile() for spec in specs],
            {entity: 100 for spec in specs for entity in spec.entities},
            make_scheduler("2pl", nest),
            arrivals={specs[0].name: 0, specs[1].name: 400},
            backoff=1,
        )
        engine.advance(until_tick=2)
        engine._rollback([specs[1].name], "fallback victim")
        assert engine.txns[specs[1].name].wake_tick == 3
        engine.advance(until_tick=40)
        # Committed long before its arrival tick came round.
        assert engine.position_of(specs[1].name) is not None
        engine.advance(until_tick=450)
        assert not engine.active_states()


def test_replay_walks_only_the_admission_window(tmp_path, monkeypatch):
    """Replaying a service log registers all 2 000 programs up front;
    the tick loop must still walk only those that have arrived and not
    committed — at most the admission window of the run that wrote the
    log — however long the log is."""
    window, count = 32, 2000
    submissions = [
        Submission(program=spec, idempotency_key=f"k{index}")
        for index, spec in enumerate(traffic_specs(TrafficConfig(
            transactions=count, families=32, entities_per_family=8,
            contention=0.02, seed=15,
        )))
    ]

    async def serve() -> None:
        service = TransactionService(ServiceConfig(
            scheduler="2pl",
            admission=AdmissionConfig(window=window),
            wal_dir=str(tmp_path),
            wal_snapshot_every=0,  # replay the whole log
        ))
        for start in range(0, count, window):
            replies = await asyncio.gather(*(
                service.submit(s) for s in submissions[start:start + window]
            ))
            assert all(reply["ok"] for reply in replies)
        service.wal.sync()
        service.wal.close()

    asyncio.run(serve())

    walked: list[int] = []
    scan = Engine._candidates

    def counting(self):
        candidates = scan(self)
        walked.append(len(self._arrived))
        assert set(self._arrived) == {
            name for name, state in self.txns.items()
            if state.arrival_tick <= self.tick or state.attempt
        }
        return candidates

    monkeypatch.setattr(Engine, "_candidates", counting)
    report = recover(str(tmp_path))
    report.wal.close()
    assert len(report.engine.commit_order) == count
    assert len(walked) == report.horizon
    assert 0 < max(walked) <= window
