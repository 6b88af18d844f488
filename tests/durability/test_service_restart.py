"""Service durability: the WAL survives a restart, recovery rebuilds
the engine by replay, and idempotency keys span process incarnations —
a resubmission after restart is answered from the log, never re-run."""

from __future__ import annotations

import asyncio
import os

from repro.api import ProgramSpec, Submission, make_scheduler
from repro.core.nests import KNest
from repro.durability import recover
from repro.engine.runtime import Engine
from repro.obs import RingTracer, explain_abort
from repro.service import AdmissionConfig, ServiceConfig, TransactionService
from repro.workloads.traffic import TrafficConfig, traffic_submissions


def run(coro):
    return asyncio.run(coro)


def spec(i: int) -> ProgramSpec:
    return ProgramSpec(
        f"p{i}", (("add", "x", i), ("bp", 1), ("read", "y")), ("fam",)
    )


def config(wal_dir: str, **kw) -> ServiceConfig:
    kw.setdefault("scheduler", "2pl")
    kw.setdefault("nest_depth", 1)
    return ServiceConfig(wal_dir=wal_dir, **kw)


async def submit_in_batches(svc, submissions, batch=32) -> list[dict]:
    responses: list[dict] = []
    for start in range(0, len(submissions), batch):
        responses.extend(await asyncio.gather(
            *(svc.submit(s) for s in submissions[start:start + batch])
        ))
    return responses


class TestServiceRestart:
    def test_resubmitted_key_gets_the_first_runs_envelope(self, tmp_path):
        """Abort causes are kept per rollback until the victim's envelope
        is built, and replay refills them: a key resubmitted after a
        restart is answered with the envelope the first incarnation
        gave — ``abort_causes`` included — and those causes are what
        ``explain_abort`` reads off a complete recording.  (A lossy ring
        answered 598 of these 679 restarted envelopes differently after
        the restart, 591 of them with no cause at all.)"""
        d = str(tmp_path)
        contended = config(
            d, scheduler="mla-detect", admission=AdmissionConfig(window=32)
        )
        submissions = traffic_submissions(
            TrafficConfig(transactions=1500, contention=0.15, seed=18)
        )

        async def incarnation():
            svc = TransactionService(contended)
            responses = await submit_in_batches(svc, submissions)
            await svc.drain()
            svc.wal.close()
            return svc, responses

        first, originals = run(incarnation())
        second, answers = run(incarnation())
        assert second.engine.tick == first.engine.tick  # nothing re-ran
        assert all(answer["duplicate"] for answer in answers)
        restarted = [
            r["envelope"] for r in originals
            if r["envelope"]["status"] == "restarted"
        ]
        assert len(restarted) > 500
        assert all(envelope["abort_causes"] for envelope in restarted)
        for original, answer in zip(originals, answers):
            assert answer["envelope"] == original["envelope"]

        # The library replay at the recorded arrival ticks (the E15
        # differential path), recorded completely.
        specs = {s.program.name: s.program for s in submissions}
        nest = KNest(contended.nest_depth)
        initial: dict = {}
        for name in first.arrivals:
            nest.add(name, specs[name].path)
            for entity in sorted(specs[name].entities):
                initial.setdefault(entity, contended.initial_value)
        tracer = RingTracer(capacity=None)
        replay = Engine(
            [specs[name].compile() for name in first.arrivals], initial,
            make_scheduler(contended.scheduler, nest), seed=contended.seed,
            arrivals=dict(first.arrivals), max_ticks=1 << 62, tracer=tracer,
        ).run()
        assert replay.history_digest() == first.result().history_digest()
        events = tracer.events()
        for envelope in restarted:
            assert envelope["abort_causes"] == explain_abort(
                events, envelope["name"]
            ), envelope["name"]
        # Everything kept was handed over with its envelope.
        assert first.tracer.events() == second.tracer.events() == []

    def test_service_counts_survive_a_restart(self, tmp_path):
        """``admitted`` is in the log (one ``add`` record each), so a
        restarted service reports it; it used to restart at 0 beside
        ``committed: 300``."""
        d = str(tmp_path)
        restart = config(d, admission=AdmissionConfig(window=32))
        submissions = traffic_submissions(
            TrafficConfig(transactions=300, contention=0.02, seed=18)
        )

        async def first():
            svc = TransactionService(restart)
            await submit_in_batches(svc, submissions)
            await svc.drain()
            svc.wal.close()

        run(first())
        svc = TransactionService(restart)
        health = svc.health()
        assert health["committed"] == 300
        assert health["submitted"] >= health["committed"]
        assert (
            health["submitted"]
            == health["admission"]["admitted"]
            == svc.admission.admitted
            == len(svc.arrivals)
            == 300
        )
        assert svc.registry.value(
            "repro_service_submissions_total", outcome="admitted"
        ) == 300
        # Not logged, so they restart at 0.
        assert svc.registry.value("repro_service_pump_batches_total") == 0
        assert svc.registry.value(
            "repro_service_submissions_total", outcome="rejected_load"
        ) == 0
        svc.wal.close()

    def test_restart_recovers_engine_state(self, tmp_path):
        d = str(tmp_path)

        async def first():
            svc = TransactionService(config(d))
            for i in range(4):
                await svc.submit(Submission(program=spec(i)))
            await svc.drain()
            svc.wal.sync()
            svc.wal.close()
            return (svc.engine.commit_order[:],
                    dict(svc.engine.store.snapshot()))

        order, store = run(first())

        async def second():
            svc = TransactionService(config(d))
            return (svc.engine.commit_order[:],
                    dict(svc.engine.store.snapshot()),
                    dict(svc.arrivals))

        order2, store2, arrivals = run(second())
        assert order2 == order
        assert store2 == store
        assert set(arrivals) == {f"p{i}" for i in range(4)}

    def test_idempotency_spans_restart(self, tmp_path):
        """The ISSUE's differential: resubmitting the same idempotency
        key to the restarted service returns the original envelope
        content without re-executing anything."""
        d = str(tmp_path)

        async def first():
            svc = TransactionService(config(d))
            responses = [
                await svc.submit(Submission(program=spec(i),
                                            idempotency_key=f"k{i}"))
                for i in range(4)
            ]
            await svc.drain()
            svc.wal.sync()
            svc.wal.close()
            return [r["envelope"] for r in responses], svc.engine.tick

        envelopes, final_tick = run(first())

        async def second():
            svc = TransactionService(config(d))
            tick_before = svc.engine.tick
            replies = [
                await svc.submit(Submission(program=spec(i),
                                            idempotency_key=f"k{i}"))
                for i in range(4)
            ]
            # Answered from the log: no engine work happened.
            assert svc.engine.tick == tick_before
            return replies

        replies = run(second())
        for reply, envelope in zip(replies, envelopes):
            assert reply["ok"] and reply.get("duplicate") is True
            got = reply["envelope"]
            for field in ("name", "status", "serial_position", "result",
                          "commit_tick", "arrival_tick", "attempts"):
                assert got[field] == envelope[field], field

    def test_new_work_extends_recovered_log(self, tmp_path):
        d = str(tmp_path)

        async def first():
            svc = TransactionService(config(d))
            await svc.submit(Submission(program=spec(0)))
            await svc.drain()
            svc.wal.sync()
            svc.wal.close()

        run(first())

        async def second():
            svc = TransactionService(config(d))
            reply = await svc.submit(Submission(program=spec(1)))
            assert reply["ok"] and not reply.get("duplicate")
            await svc.drain()
            svc.wal.sync()
            svc.wal.close()
            return svc.engine.commit_order[:]

        order = run(second())
        assert order == ["p0", "p1"]
        # A third incarnation sees both commits in one log.
        report = recover(d)
        assert report.engine.commit_order == ["p0", "p1"]

    def test_double_restart_chain(self, tmp_path):
        """Three incarnations, each adding work: replay composes."""
        d = str(tmp_path)

        async def incarnation(i):
            svc = TransactionService(config(d, wal_snapshot_every=3))
            await svc.submit(Submission(program=spec(i)))
            await svc.drain()
            svc.wal.sync()
            svc.wal.close()
            return svc.engine.commit_order[:]

        orders = [run(incarnation(i)) for i in range(3)]
        assert orders[-1] == ["p0", "p1", "p2"]

    def test_drain_syncs_the_log(self, tmp_path):
        """The drain reply's durability promise: everything drained is
        on disk before the ack (readable by an independent recovery,
        no close needed)."""
        d = str(tmp_path)

        async def go():
            svc = TransactionService(config(d))
            await svc.submit(Submission(program=spec(0)))
            await svc.drain()
            # No sync/close after drain: the log must already be durable.
            report = recover(d)
            assert report.engine.commit_order == ["p0"]

        run(go())
        assert os.path.exists(os.path.join(d, "engine.wal"))

    def test_health_reports_wal(self, tmp_path):
        async def go():
            svc = TransactionService(config(str(tmp_path)))
            health = svc.health()
            assert health["wal"]["directory"] == str(tmp_path)
            assert health["wal"]["offset"] > 0  # genesis is down

        run(go())

    def test_without_wal_dir_nothing_is_written(self, tmp_path):
        async def go():
            svc = TransactionService(ServiceConfig(nest_depth=0))
            await svc.submit(Submission(program=ProgramSpec(
                "t", (("read", "x"),))))
            await svc.drain()
            health = svc.health()
            assert "wal" not in health

        run(go())
        assert os.listdir(str(tmp_path)) == []

    def test_metrics_agree_with_health_after_snapshot_restart(self, tmp_path):
        """A restart that restores a snapshot replays only the log's
        suffix.  The registry's engine series are derived from the
        restored ``Metrics`` on read, so ``/metrics`` reports everything
        ever committed — not just what was re-executed (2 and 2 when the
        engine pushed counters as it ran)."""
        d = str(tmp_path)
        restart = config(
            d, wal_snapshot_every=300, admission=AdmissionConfig(window=32)
        )

        async def first():
            svc = TransactionService(restart)
            await submit_in_batches(svc, traffic_submissions(
                TrafficConfig(transactions=400, contention=0.02, seed=18)
            ))
            await svc.drain()
            svc.wal.close()
            assert any(name.startswith("snap-") for name in os.listdir(d))

        run(first())

        svc = TransactionService(restart)
        registry = svc.registry
        metrics = svc.engine.metrics
        assert (
            registry.value("repro_commits_total", scheduler="2pl")
            == svc.health()["committed"]
            == 400
        )
        assert registry.value(
            "repro_steps_total", scheduler="2pl"
        ) == metrics.steps_performed
        assert registry.value(
            "repro_lock_acquires_total", scheduler="2pl"
        ) >= metrics.steps_performed
        assert registry.value(
            "repro_commit_latency_ticks", scheduler="2pl"
        ).count == 400
        assert (
            'repro_commits_total{scheduler="2pl"} 400\n' in svc.metrics_text()
        )
        svc.wal.close()


class TestRetiredCommits:
    """A commit a checkpoint covers leaves memory: its record, its nest
    entry and its abort causes are read back from the records file.
    What a client can ask of it does not change."""

    def test_duplicates_of_retired_keys(self, tmp_path):
        """A key whose commit has been retired is answered with its
        first envelope — serial position, ticks, attempts, result and a
        restarted transaction's abort causes — in the same process and
        after a kill and recovery; a new key under a retired name is
        still refused."""
        d = str(tmp_path)
        contended = config(
            d, scheduler="mla-detect", admission=AdmissionConfig(window=32),
            wal_snapshot_every=64,
        )
        submissions = traffic_submissions(
            TrafficConfig(transactions=400, contention=0.15, seed=18)
        )
        stranger = Submission(
            program=submissions[0].program, idempotency_key="another-key"
        )

        def assert_answers(svc, originals, replies, refusal) -> None:
            assert all(reply["duplicate"] for reply in replies)
            for original, reply in zip(originals, replies):
                assert reply["envelope"] == original["envelope"]
            assert not refusal["ok"] and refusal["rejection"] == "schema"
            assert "already used" in refusal["error"]

        async def first():
            svc = TransactionService(contended)
            originals = await submit_in_batches(svc, submissions)
            retired = svc.wal.recorded
            replies = await submit_in_batches(svc, submissions)
            refusal = await svc.submit(stranger)
            # Killed: the slices' flushes are all the log gets.
            svc.wal.close()
            return svc, originals, retired, replies, refusal

        svc, originals, retired, replies, refusal = run(first())
        assert retired >= 0.8 * len(submissions)
        restarted = [
            r["envelope"] for r in originals
            if r["envelope"]["status"] == "restarted"
            and r["envelope"]["serial_position"] < retired
        ]
        assert len(restarted) > 20
        assert all(envelope["abort_causes"] for envelope in restarted)
        assert not svc._causes and len(svc.engine._committed_log) < 40
        assert_answers(svc, originals, replies, refusal)

        async def second():
            svc = TransactionService(contended)
            assert svc.health()["wal"]["snapshot_tick"] is not None
            tick = svc.engine.tick
            replies = await submit_in_batches(svc, submissions)
            assert svc.engine.tick == tick  # answered, not re-run
            refusal = await svc.submit(stranger)
            svc.wal.close()
            return svc, replies, refusal

        svc, replies, refusal = run(second())
        assert svc.wal.recorded == retired
        assert_answers(svc, originals, replies, refusal)
