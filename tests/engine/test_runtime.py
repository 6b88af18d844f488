"""Engine runtime tests: commits, rollback, cascades, recoverability."""

from __future__ import annotations

import pytest

from repro.core import check_correctability
from repro.engine import Engine, MLADetectScheduler, Scheduler, SerialScheduler
from repro.errors import EngineError
from repro.model import TransactionProgram, read, update, write
from tests.engine.conftest import audit, transfer


class TestBasicRuns:
    def test_single_transaction_commits(self):
        program = transfer("t", "A", "B", 10)
        engine = Engine([program], {"A": 100, "B": 0}, SerialScheduler())
        result = engine.run()
        assert result.metrics.commits == 1
        assert result.results["t"] == 10
        assert result.execution.entity_value_sequences()["A"][-1] == 90

    def test_duplicate_names_rejected(self):
        program = transfer("t", "A", "B", 10)
        with pytest.raises(EngineError, match="duplicate"):
            Engine([program, program], {"A": 0, "B": 0}, SerialScheduler())

    def test_commit_order_and_latency(self, bank_programs):
        programs, accounts = bank_programs
        engine = Engine(programs, accounts, SerialScheduler(), seed=1)
        result = engine.run()
        assert sorted(result.commit_order) == sorted(p.name for p in programs)
        assert result.metrics.mean_latency > 0

    def test_arrivals_stagger_start(self, bank_programs):
        programs, accounts = bank_programs
        engine = Engine(
            programs,
            accounts,
            SerialScheduler(),
            arrivals={"aud": 50},
            seed=0,
        )
        result = engine.run()
        # The audit arrived last and so committed last under serial.
        assert result.commit_order[-1] == "aud"

    def test_runs_are_deterministic(self, bank_programs):
        programs, accounts = bank_programs
        runs = [
            Engine(programs, accounts, SerialScheduler(), seed=9).run()
            for _ in range(2)
        ]
        assert runs[0].execution.steps == runs[1].execution.steps
        assert runs[0].metrics.ticks == runs[1].metrics.ticks

    def test_final_execution_validates(self, bank_programs):
        programs, accounts = bank_programs
        result = Engine(programs, accounts, Scheduler(), seed=3).run()
        result.execution.validate()  # also done internally; idempotent

    def test_livelock_guard(self):
        class NeverScheduler(Scheduler):
            """Rolls every request back: each tick progresses (a
            rollback), and nothing ever commits."""

            def on_request(self, txn, access):
                from repro.engine.schedulers.base import Decision

                return Decision.abort([txn.name], "never")

        program = transfer("t", "A", "B", 1)
        engine = Engine(
            [program], {"A": 1, "B": 0}, NeverScheduler(), max_ticks=2000
        )
        with pytest.raises(EngineError, match="livelock"):
            engine.run()


class TestRollback:
    def test_cascading_abort_of_dirty_reader(self):
        """writer updates X; reader reads X dirty; writer is rolled back;
        reader must cascade (and both eventually commit via restart)."""
        from repro.engine.schedulers.base import Decision

        class AbortWriterOnce(Scheduler):
            def __init__(self):
                super().__init__()
                self.fired = False

            def may_commit(self, txn):
                if txn.name == "writer" and not self.fired:
                    self.fired = True
                    return Decision.abort(["writer"], "test")
                return Decision.perform()

        def writer_body():
            yield update("X", lambda v: v + 1)

        def reader_body():
            value = yield read("X")
            yield write("Y", value)

        programs = [
            TransactionProgram("writer", writer_body),
            TransactionProgram("reader", reader_body),
        ]
        # Schedule: writer writes, reader reads dirty, writer hits the
        # abort at commit -> reader cascades.
        engine = Engine(programs, {"X": 0, "Y": 0}, AbortWriterOnce(), seed=0)
        result = engine.run()
        assert result.metrics.aborts >= 2 or result.metrics.cascade_aborts >= 0
        assert result.metrics.commits == 2
        # Final values reflect a clean re-execution.
        assert result.execution.entity_value_sequences()["Y"][-1] == 1
        result.execution.validate()

    def test_undo_restores_values(self):
        from repro.engine.schedulers.base import Decision

        class AbortAtCommit(Scheduler):
            def __init__(self):
                super().__init__()
                self.aborted = 0

            def may_commit(self, txn):
                if self.aborted < 3:
                    self.aborted += 1
                    return Decision.abort([txn.name], "test")
                return Decision.perform()

        def body():
            yield update("X", lambda v: v + 5)

        engine = Engine(
            [TransactionProgram("t", body)], {"X": 1}, AbortAtCommit(), seed=0
        )
        result = engine.run()
        assert result.metrics.aborts == 3
        # Exactly one surviving increment despite three undone attempts.
        assert engine.store.value("X") == 6

    def test_abort_of_committed_transaction_rejected(self):
        from repro.engine.schedulers.base import Decision

        class BadScheduler(Scheduler):
            def may_commit(self, txn):
                if txn.name == "t1":
                    return Decision.abort(["t0"], "illegal")
                return Decision.perform()

        programs = [
            transfer("t0", "A", "B", 1),
            transfer("t1", "B", "A", 1),
        ]
        # t1 arrives after t0 has committed alone.
        engine = Engine(
            programs, {"A": 10, "B": 10}, BadScheduler(), seed=0,
            arrivals={"t1": 20},
        )
        with pytest.raises(
            EngineError, match="abort committed transaction 't0'"
        ):
            engine.run()


class TestRestoreAfterRelease:
    """A commit drops the transaction's state, program included.
    Restoring an engine to a snapshot taken before that commit needs the
    program back, and takes it from ``programs=``."""

    def test_restore_onto_the_engine_that_committed(self, bank_programs):
        programs, accounts = bank_programs

        def engine():
            return Engine(programs, accounts, SerialScheduler(), seed=4)

        reference = engine().run().history_digest()
        running = engine()
        running.advance(until_tick=5)
        snapshot = running.snapshot_state()
        pending = list(running.txns)
        assert pending
        running.advance()
        assert not running.txns

        with pytest.raises(EngineError, match=repr(pending[0])):
            running.restore_state(snapshot, running.records)
        running.restore_state(
            snapshot, running.records, programs={p.name: p for p in programs}
        )
        assert running.run().history_digest() == reference


class TestOneSnapshotForm:
    def test_one_snapshot_restores_onto_two_engines(
        self, bank_programs, bank_nest
    ):
        """A snapshot shares nothing with its engine, and a restore
        mutates nothing in it: the same dict, restored twice after its
        source has run on, continues to the uninterrupted run twice."""
        programs, accounts = bank_programs

        def engine():
            return Engine(
                programs, accounts, MLADetectScheduler(bank_nest), seed=3,
            )

        reference = engine().run()
        source = engine()
        source.advance(until_tick=6)
        assert source.txns
        snapshot = source.snapshot_state()
        records = list(source.records)
        source.advance()
        assert source.metrics.commits == len(programs)
        for _ in range(2):
            restored = engine()
            restored.restore_state(snapshot, records)
            result = restored.run()
            assert result.history_digest() == reference.history_digest()
            for metrics in (result.metrics, reference.metrics):
                assert metrics.commits == len(programs)
            assert result.metrics.summary() == reference.metrics.summary()
            assert result.metrics.detail == reference.metrics.detail
            for histogram in ("latency_histogram", "wait_histogram"):
                assert getattr(result.metrics, histogram).counts == getattr(
                    reference.metrics, histogram
                ).counts


class TestSchedulerZoo:
    def test_all_schedulers_complete_and_are_correctable(
        self, bank_programs, bank_nest, zoo
    ):
        programs, accounts = bank_programs
        for label, scheduler in zoo:
            result = Engine(programs, accounts, scheduler, seed=5).run()
            assert result.metrics.commits == len(programs), label
            report = check_correctability(
                result.spec(bank_nest), result.execution.dependency_edges()
            )
            assert report.correctable, label
            assert result.results["aud"] == 400, label

    def test_serial_never_aborts(self, bank_programs):
        programs, accounts = bank_programs
        for seed in range(5):
            result = Engine(programs, accounts, SerialScheduler(), seed=seed).run()
            assert result.metrics.aborts == 0

    def test_uncontrolled_runs_break_the_audit(self, bank_programs, bank_nest):
        programs, accounts = bank_programs
        bad = 0
        for seed in range(12):
            result = Engine(programs, accounts, Scheduler(), seed=seed).run()
            report = check_correctability(
                result.spec(bank_nest), result.execution.dependency_edges()
            )
            if not report.correctable:
                bad += 1
        assert bad > 0


class TestDecisionStream:
    def test_perform_carries_a_field_named_kind(self, bank_programs):
        """``step.perform`` records the access kind under the key
        ``kind`` — the same name as ``_emit``'s first parameter, which is
        why that parameter is positional-only."""
        from repro.obs import RingTracer

        programs, accounts = bank_programs
        tracer = RingTracer(None)
        engine = Engine(programs, accounts, SerialScheduler(), tracer=tracer)
        engine.run()
        performs = [e for e in tracer.events() if e.kind == "step.perform"]
        assert len(performs) == engine.metrics.steps_performed
        kinds = {e.data["kind"] for e in performs}
        assert kinds == {"read", "write", "update"}
        engine._emit("txn.wait", kind="not the event kind", txn="t0")
        last = tracer.events()[-1]
        assert last.kind == "txn.wait"
        assert last.data["kind"] == "not the event kind"

    def test_sinks_are_read_on_every_advance(self, bank_programs):
        """A sink assigned between two ``advance`` calls sees the
        decisions of the second."""
        programs, accounts = bank_programs
        engine = Engine(programs, accounts, SerialScheduler())
        engine.advance(until_tick=6)
        early = len(engine.commit_order)
        assert 0 < early < len(programs)
        engine.history = reader = _CommitReader()
        engine.advance()
        assert [fields["txn"] for _, _, fields in reader.seen] == (
            engine.commit_order[early:]
        )


class _CommitReader:
    """A sink whose read set is the commits alone."""

    enabled = True
    reads = frozenset({"txn.commit"})

    def __init__(self) -> None:
        self.seen: list[tuple[str, int, dict]] = []

    def on_decision(self, kind, tick, fields) -> None:
        self.seen.append((kind, tick, fields))


def _contended_bank(seed: int = 11):
    from repro.workloads import BankingConfig, BankingWorkload

    return BankingWorkload(BankingConfig(
        families=2, transfers=8, bank_audits=1, creditor_audits=1,
        seed=seed,
    ))


class TestRouting:
    """Each sink declares the kinds it reads; the engine hands it those
    and builds no record that nobody reads."""

    def test_a_commit_reader_receives_exactly_the_commits(self):
        from repro.engine import MLADetectScheduler
        from repro.obs import RingTracer

        workload = _contended_bank()
        reader, tracer = _CommitReader(), RingTracer(None)
        engine = workload.engine(
            MLADetectScheduler(workload.nest), seed=3,
            history=reader, tracer=tracer,
        )
        engine.run()
        assert engine.metrics.aborts > 0
        commits = [e for e in tracer.events() if e.kind == "txn.commit"]
        assert [kind for kind, _, _ in reader.seen] == ["txn.commit"] * len(
            engine.commit_order
        )
        # The tracer's copy of each record is the reader's minus the
        # committed steps, which only the history sinks keep.
        assert [
            (tick, {k: v for k, v in fields.items() if k != "steps"})
            for _, tick, fields in reader.seen
        ] == [(event.at, event.data) for event in commits]
        log = {(e.key[0], e.seq): e.record for e in engine.log}
        for _, _, fields in reader.seen:
            assert set(fields) == {
                "txn", "attempt", "latency", "waits", "result",
                "cut_levels", "steps",
            }
            assert fields["steps"] and all(
                log[fields["txn"], seq] == record
                for seq, record in fields["steps"]
            )

    def test_only_what_abort_causes_read_is_built(self):
        """2PL with waits and deadlocks, observed by ``AbortCauses``
        alone: no perform, lock or wait record is ever built."""
        from collections import Counter

        from repro.engine import TwoPhaseLockingScheduler
        from repro.obs import AbortCauses

        workload = _contended_bank()
        causes = AbortCauses()
        engine = workload.engine(
            TwoPhaseLockingScheduler(), seed=1, tracer=causes
        )
        built = Counter()
        emit = engine._emit

        def counted(kind, /, **fields):
            built[kind] += 1
            emit(kind, **fields)

        engine._emit = counted
        engine.run()
        metrics = engine.metrics
        assert metrics.waits > 0 and metrics.detail["lock_deadlocks"] > 0
        assert built["deadlock"] == metrics.detail["lock_deadlocks"]
        assert built["txn.abort"] > 0
        assert not [
            kind for kind in built
            if kind in ("step.perform", "txn.wait") or kind.startswith("lock.")
        ]
        assert set(built) <= AbortCauses.reads
        assert causes.dropped == 0
