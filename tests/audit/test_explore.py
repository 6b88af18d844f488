"""The bounded exhaustive interleaving explorer.

A tiny two-transaction crossing config keeps the full sweep fast enough
to run every scheduler here; the large canned ``SMALL_CONFIGS`` pairs
are the E17 benchmark's job (each takes seconds to half a minute).
"""

from __future__ import annotations

import pytest

import repro.audit.explore as explore_module
from repro.api import ProgramSpec
from repro.audit import SMALL_CONFIGS, explore, make_config
from repro.engine.runtime import Engine
from repro.engine.schedulers.base import Action, Decision, Scheduler
from repro.errors import EngineError, SpecificationError
from tests.audit.conftest import SCHEDULERS

#: Schedulers that promise correctability (everything but "none").
GUARDED = tuple(s for s in SCHEDULERS)

TINY = make_config(
    "tiny-cross",
    [
        ProgramSpec("writer", (("set", "x", 7), ("set", "y", 7)), ()),
        ProgramSpec("reader", (("read", "x"), ("read", "y")), ()),
    ],
    {"x": 0, "y": 0},
)

TINY_NESTED = make_config(
    "tiny-nested",
    [
        ProgramSpec(
            "t1", (("add", "x", -5), ("bp", 2), ("add", "y", 5)), ("fam",)
        ),
        ProgramSpec(
            "t2", (("add", "x", -3), ("bp", 2), ("add", "y", 3)), ("fam",)
        ),
    ],
    {"x": 100, "y": 100},
)


class TestProofs:
    @pytest.mark.parametrize("scheduler", GUARDED)
    def test_tiny_cross_all_schedulers_correctable(self, scheduler):
        report = explore(TINY, scheduler)
        assert report.complete, f"{scheduler}: frontier not exhausted"
        assert report.all_correctable, report.violations
        assert report.terminals >= 1
        assert report.distinct_histories >= 1
        assert report.violations == []

    @pytest.mark.parametrize("scheduler", GUARDED)
    def test_tiny_nested_all_schedulers_correctable(self, scheduler):
        report = explore(TINY_NESTED, scheduler)
        assert report.complete and report.all_correctable, report.violations

    def test_breakpoints_admit_extra_histories(self):
        """An MLA scheduler exploits the declared breakpoints: it admits
        strictly more distinct histories on the nested config than a
        serializability-enforcing one admits interleavings the closure
        would reject."""
        report = explore(TINY_NESTED, "mla-detect")
        assert report.complete and report.all_correctable
        # Crossing at the breakpoint yields non-serializable-but-correct
        # histories beyond the two serial orders.
        assert report.distinct_histories > 2


class TestNegativeControl:
    def test_unguarded_scheduler_admits_violation(self):
        report = explore(TINY, "none")
        assert report.complete
        assert not report.all_correctable
        assert report.violations
        assert any("->" in line for line in report.violations)

    def test_violation_vanishes_without_the_crossing(self):
        solo = make_config(
            "solo",
            [ProgramSpec("w", (("set", "x", 7),), ())],
            {"x": 0},
        )
        report = explore(solo, "none")
        assert report.complete and report.all_correctable


class Courteous(Scheduler):
    """Lets each transaction take one step, then refuses the rest while
    another is uncommitted, and records none of those waits in the
    waits-for relation: every run wedges with no cycle to break."""

    name = "courteous"

    def on_request(self, txn, access):
        if txn.steps_taken == 0 or len(self.engine.txns) == 1:
            return Decision.perform()
        return Decision.wait("after you")


class Recording(Courteous):
    """``Courteous``, recording each refusal as a wait on nobody: the
    first refusal changes the state key, so the explorer reaches the
    state where the engine itself raises."""

    def on_request(self, txn, access):
        decision = super().on_request(txn, access)
        if decision.action is Action.WAIT:
            self.engine.waits.wait(txn.name, [], "courtesy")
        return decision


class TestNoProgress:
    @pytest.mark.parametrize("scheduler, raised", [
        (Courteous, False), (Recording, True),
    ])
    def test_explorer_reports_a_wedge(self, monkeypatch, scheduler, raised):
        monkeypatch.setattr(
            explore_module, "make_scheduler", lambda name, nest: scheduler()
        )
        report = explore(TINY, "courteous")
        assert report.complete
        assert report.terminals == 0
        assert report.stuck >= 1
        assert any("no progress" in line for line in report.violations)
        assert raised == any(
            "since the last step" in line for line in report.violations
        )

    @staticmethod
    def wedged() -> Engine:
        return Engine(
            [spec.compile() for spec in TINY.specs], dict(TINY.initial),
            Courteous(), seed=0,
        )

    def test_engine_raises_on_a_wedge(self):
        with pytest.raises(EngineError, match="no progress") as raised:
            self.wedged().run()
        # Both were refused with no recorded wait: the rows are empty.
        assert "{'reader': [], 'writer': []}" in str(raised.value)

    def test_a_restored_run_raises_at_the_same_tick(self):
        """The refused set is in the snapshot: a run cut one tick before
        the raise and restored onto a fresh engine raises at that tick."""
        with pytest.raises(EngineError) as whole:
            self.wedged().run()
        tick = int(str(whole.value).split()[4].rstrip(":"))
        first = self.wedged()
        first.advance(until_tick=tick - 1)
        assert first.snapshot_state()["refused"]
        second = self.wedged()
        second.restore_state(first.snapshot_state(), first.records)
        with pytest.raises(EngineError) as resumed:
            second.run()
        assert str(resumed.value) == str(whole.value)


class TestBounds:
    def test_node_cap_marks_incomplete(self):
        report = explore(SMALL_CONFIGS[0], "2pl", max_nodes=50)
        assert not report.complete
        assert report.nodes == 51  # stopped the moment the cap tripped

    def test_restart_bound_is_reported(self):
        report = explore(TINY, "2pl", restart_bound=2)
        assert report.restart_bound == 2
        assert report.pruned >= 0

    def test_rejects_raw_specs(self):
        with pytest.raises(SpecificationError, match="make_config"):
            explore([TINY.specs[0]], "2pl")

    def test_rejects_unknown_scheduler(self):
        with pytest.raises(SpecificationError, match="unknown scheduler"):
            explore(TINY, "optimism")


class TestDeterminism:
    def test_reports_are_reproducible(self):
        first = explore(TINY, "timestamp")
        second = explore(TINY, "timestamp")
        assert first.to_dict() == second.to_dict()

    def test_report_dict_shape(self):
        data = explore(TINY, "serial").to_dict()
        assert data["config"] == "tiny-cross"
        assert data["scheduler"] == "serial"
        assert set(data) == {
            "config", "scheduler", "nodes", "transitions", "terminals",
            "distinct_histories", "complete", "all_correctable",
            "restart_bound", "pruned", "stuck", "violations",
        }


def test_small_configs_are_well_formed():
    names = [config.name for config in SMALL_CONFIGS]
    assert len(names) == len(set(names)) >= 2
    for config in SMALL_CONFIGS:
        config.nest()  # constructible
        assert config.specs
