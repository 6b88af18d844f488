"""Stateful property test: the closure window against a fresh-recompute
oracle through arbitrary observe/commit/drop/truncate interleavings."""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.core import KNest
from repro.engine import ClosureWindow
from repro.model import StepId, StepKind
from tests.engine.oracle import FullClosureWindow

NAMES = ["t0", "t1", "t2", "t3"]
ENTITIES = [f"x{i}" for i in range(4)]


def _nest():
    return KNest.from_paths({
        "t0": ("a", "p"),
        "t1": ("a", "p"),
        "t2": ("a", "q"),
        "t3": ("b", "q"),
    })


class WindowMachine(RuleBasedStateMachine):
    """Drives an incremental window and a full-recompute oracle with the
    same event stream; their acyclicity verdicts must always agree.

    Pruning is disabled on both (it intentionally over-approximates) and
    both windows see identical drops/truncations.
    """

    def __init__(self):
        super().__init__()
        self.window = ClosureWindow(_nest(), prune_interval=10**9)
        self.oracle = FullClosureWindow(_nest(), prune_interval=10**9)
        self.steps = {name: 0 for name in NAMES}
        self.cuts = {name: {} for name in NAMES}
        self.cyclic = False

    @precondition(lambda self: not self.cyclic)
    @rule(
        name=st.sampled_from(NAMES),
        entity=st.sampled_from(ENTITIES),
        kind=st.sampled_from([StepKind.READ, StepKind.UPDATE]),
        breakpoint_level=st.one_of(st.none(), st.integers(2, 4)),
    )
    def observe(self, name, entity, kind, breakpoint_level):
        index = self.steps[name]
        self.steps[name] += 1
        if index > 0 and breakpoint_level is not None:
            self.cuts[name][index - 1] = breakpoint_level
        args = (name, StepId(name, index), entity, kind, dict(self.cuts[name]))
        r1 = self.window.observe(*args)
        r2 = self.oracle.observe(*args)
        assert r1.is_partial_order == r2.is_partial_order
        self.cyclic = not r1.is_partial_order

    @rule(name=st.sampled_from(NAMES))
    def drop(self, name):
        self.window.drop(name)
        self.oracle.drop(name)
        self.steps[name] = 0
        self.cuts[name] = {}
        self.cyclic = False  # the offending steps may be gone

        # After a drop the two must still agree on the remaining state.
        if self.window.size:
            r1 = self.window.closure()
            r2 = self.oracle.closure()
            assert r1.is_partial_order == r2.is_partial_order

    @precondition(lambda self: any(v > 1 for v in self.steps.values()))
    @rule(data=st.data())
    def truncate(self, data):
        candidates = [n for n, v in self.steps.items() if v > 1]
        name = data.draw(st.sampled_from(candidates))
        keep = data.draw(st.integers(1, self.steps[name] - 1))
        self.window.truncate(name, keep)
        self.oracle.truncate(name, keep)
        self.steps[name] = keep
        self.cuts[name] = {
            g: lv for g, lv in self.cuts[name].items() if g < keep - 1
        }
        self.cyclic = False

    @rule(name=st.sampled_from(NAMES))
    def hypothetical_consistency(self, name):
        """Hypothetical never mutates and agrees with the oracle."""
        step = StepId(name, self.steps[name])
        size_before = self.window.size
        a1, _, _ = self.window.hypothetical(
            name, step, ENTITIES[0], StepKind.UPDATE
        )
        a2, _, _ = self.oracle.hypothetical(
            name, step, ENTITIES[0], StepKind.UPDATE
        )
        assert a1 == a2
        assert self.window.size == size_before


WindowMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None
)
TestWindowMachine = WindowMachine.TestCase
