"""Tests for transaction programs and interleaved system runs."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.errors import EngineError, ExecutionError, SpecificationError
from repro.model import (
    Breakpoint,
    EntityStore,
    StepKind,
    System,
    TransactionProgram,
    read,
    straight_line_program,
    update,
    write,
)


def transfer_program(name, src, dst, amount):
    def body():
        balance = yield read(src)
        moved = min(balance, amount)
        yield write(src, balance - moved)
        yield Breakpoint(2)
        yield update(dst, lambda v: v + moved)
        return moved

    return TransactionProgram(name, body)


@pytest.fixture()
def bank():
    return System(
        [
            transfer_program("t1", "A", "B", 30),
            transfer_program("t2", "B", "C", 50),
        ],
        {"A": 100, "B": 40, "C": 0},
    )


class TestEntityStore:
    def test_apply(self):
        store = EntityStore({"X": 1})
        before, after, result = store.apply("X", lambda v: (v + 1, v))
        assert (before, after, result) == (1, 2, 1)
        assert store.value("X") == 2
        assert store.initial_value("X") == 1
        assert store.snapshot() == {"X": 2}

    def test_unknown_entity(self):
        store = EntityStore({})
        with pytest.raises(EngineError):
            store.value("nope")
        with pytest.raises(EngineError):
            store.apply("nope", lambda v: (v, v))
        with pytest.raises(EngineError):
            store.restore("nope", 1)

    def test_restore(self):
        store = EntityStore({"X": 1})
        store.apply("X", lambda v: (9, None))
        store.restore("X", 5)
        assert store.value("X") == 5
        assert store.initial_value("X") == 1

    def test_declare(self):
        store = EntityStore({"X": 1})
        store.declare("Y", 7)
        store.declare("Y", 7)  # idempotent with the same initial value
        assert "Y" in store
        assert store.entities == ("X", "Y")
        assert store.value("Y") == 7
        assert store.initial_snapshot() == {"X": 1, "Y": 7}
        store.apply("Y", lambda v: (v + 1, None))
        store.declare("Y", 7)  # judged by the initial value, not the current
        assert store.value("Y") == 8
        with pytest.raises(EngineError, match="already declared"):
            store.declare("Y", 8)

    def test_snapshot_round_trip(self):
        store = EntityStore({"X": 1, "Y": 2})
        store.apply("X", lambda v: (v * 10, None))
        store.declare("Z", 0)
        state = pickle.loads(pickle.dumps(store.snapshot_state()))
        assert state == {
            "initial": {"X": 1, "Y": 2, "Z": 0},
            "values": {"X": 10, "Y": 2, "Z": 0},
        }
        restored = EntityStore({"X": 99})
        restored.restore_state(state)
        assert restored.entities == ("X", "Y", "Z")
        assert restored.snapshot() == store.snapshot()
        assert restored.initial_snapshot() == store.initial_snapshot()
        # The restored store owns its dicts: later writes do not leak back.
        restored.apply("Y", lambda v: (-1, None))
        assert state["values"]["Y"] == 2
        assert store.value("Y") == 2


class TestPrograms:
    def test_read_write_update_kinds(self):
        assert read("X").kind is StepKind.READ
        assert write("X", 1).kind is StepKind.WRITE
        assert update("X", lambda v: v).kind is StepKind.UPDATE

    def test_read_access_must_not_write(self):
        lying = TransactionProgram(
            "liar",
            lambda: iter(
                [
                    # Declared READ but mutates the value.
                    type(read("X"))("X", lambda v: (v + 1, v), StepKind.READ),
                ]
            ),
        )
        system = System([lying], {"X": 0})
        with pytest.raises(SpecificationError, match="READ"):
            system.run(schedule=["liar"])

    def test_bad_effect_rejected(self):
        bad = TransactionProgram("bad", lambda: iter(["not-an-effect"]))
        system = System([bad], {})
        with pytest.raises(SpecificationError, match="expected"):
            system.run(schedule=["bad"], allow_partial=True)

    def test_straight_line_program(self):
        prog = straight_line_program(
            "p", [write("X", 1), Breakpoint(2), write("Y", 2)]
        )
        system = System([prog], {"X": 0, "Y": 0})
        run = system.run(schedule=["p", "p"])
        assert run.execution.entity_value_sequences() == {"X": [1], "Y": [2]}
        assert run.cut_levels["p"] == {0: 2}

    def test_straight_line_rejects_junk(self):
        with pytest.raises(SpecificationError):
            straight_line_program("p", ["junk"])


class TestSystemRuns:
    def test_serial_run_results(self, bank):
        run = bank.serial_run(order=["t1", "t2"])
        assert run.results == {"t1": 30, "t2": 50}
        assert run.execution.entity_value_sequences()["A"] == [100, 70]
        # B: t1 reads 40.. wait t1 writes A then updates B; t2 then reads B.
        assert run.complete

    def test_scheduled_run(self, bank):
        run = bank.run(schedule=["t1", "t2", "t1", "t2", "t1", "t2"])
        assert run.complete
        # t2 read B before t1's deposit arrived: only 40 available.
        assert run.results["t2"] == 40

    def test_breakpoints_recorded(self, bank):
        run = bank.serial_run(order=["t1", "t2"])
        # Transfer programs declare a level-2 breakpoint after step 1
        # (between the source write and the destination update).
        assert run.cut_levels["t1"] == {1: 2}
        assert run.cut_levels["t2"] == {1: 2}

    def test_schedule_overrun_raises(self, bank):
        with pytest.raises(ExecutionError, match="finished"):
            bank.run(schedule=["t1"] * 5)

    def test_unknown_transaction_in_schedule(self, bank):
        with pytest.raises(SpecificationError):
            bank.run(schedule=["zz"])

    def test_partial_run_requires_flag(self, bank):
        with pytest.raises(ExecutionError, match="did not finish"):
            bank.run(schedule=["t1"])
        run = bank.run(schedule=["t1"], allow_partial=True)
        assert run.finished == set()
        assert len(run.execution) == 1

    def test_random_run_deterministic(self, bank):
        run_a = bank.run(rng=random.Random(7))
        run_b = bank.run(rng=random.Random(7))
        assert run_a.execution.steps == run_b.execution.steps

    def test_random_runs_differ_across_seeds(self, bank):
        orders = {
            tuple(bank.run(rng=random.Random(seed)).execution.steps)
            for seed in range(8)
        }
        assert len(orders) > 1

    def test_duplicate_program_name_rejected(self):
        prog = straight_line_program("p", [write("X", 1)])
        with pytest.raises(SpecificationError, match="duplicate"):
            System([prog, prog], {"X": 0})

    def test_leading_breakpoint_is_vacuous(self):
        prog = straight_line_program(
            "p", [Breakpoint(2), write("X", 1)]
        )
        run = System([prog], {"X": 0}).run(schedule=["p"])
        assert run.cut_levels["p"] == {}

    def test_repeated_breakpoint_takes_min_level(self):
        prog = straight_line_program(
            "p", [write("X", 1), Breakpoint(3), Breakpoint(2), write("Y", 1)]
        )
        run = System([prog], {"X": 0, "Y": 0}).run(schedule=["p", "p"])
        assert run.cut_levels["p"] == {0: 2}

    def test_conditional_branching(self):
        """Programs may branch on values read (the paper's Section 4.3
        transfer examines accounts sequentially)."""

        def body():
            a = yield read("A")
            if a >= 100:
                yield update("D", lambda v: v + a)
            else:
                b = yield read("B")
                yield update("D", lambda v: v + a + b)

        prog = TransactionProgram("t", body)
        rich = System([prog], {"A": 100, "B": 5, "D": 0})
        poor = System([prog], {"A": 7, "B": 5, "D": 0})
        assert len(rich.serial_run(["t"]).execution) == 2
        assert len(poor.serial_run(["t"]).execution) == 3
        assert poor.serial_run(["t"]).execution.entity_value_sequences()["D"] == [12]
