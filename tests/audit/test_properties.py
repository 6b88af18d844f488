"""Properties of the audit plane, over random workloads:

* export → import is bit-identical (JSON and JSONL both);
* the online monitor's verdict equals the offline checker's on the very
  same committed history;
* attaching any audit sink never changes the run.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ProgramSpec
from repro.audit import History, OnlineMonitor, load_history
from repro.core import check_correctability
from repro.core.nests import KNest
from tests.audit.conftest import captured, export_file, run_specs

SCHEDULERS = ["serial", "2pl", "timestamp", "mla-detect", "mla-prevent",
              "mla-nested-lock", "none"]
ENTITIES = ["x", "y", "z"]


@st.composite
def workloads(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    specs = []
    for i in range(n):
        steps = draw(st.integers(min_value=1, max_value=3))
        ops: list[tuple] = []
        for s in range(steps):
            entity = draw(st.sampled_from(ENTITIES))
            kind = draw(st.integers(min_value=0, max_value=2))
            if kind == 0:
                ops.append(("read", entity))
            elif kind == 1:
                ops.append(("add", entity,
                            draw(st.integers(min_value=-3, max_value=3))))
            else:
                ops.append(("set", entity,
                            draw(st.integers(min_value=0, max_value=50))))
            if s < steps - 1 and draw(st.booleans()):
                ops.append(("bp", draw(st.sampled_from([2, 3]))))
        path = (draw(st.sampled_from(["a", "b"])),)
        specs.append(ProgramSpec(f"t{i}", tuple(ops), path))
    return tuple(specs)


def initial_for(specs):
    return {e: 100 for spec in specs for e in spec.entities}


@settings(max_examples=25, deadline=None)
@given(
    specs=workloads(),
    scheduler=st.sampled_from(SCHEDULERS),
    seed=st.integers(min_value=0, max_value=999),
)
def test_export_import_bit_identical(specs, scheduler, seed):
    initial = initial_for(specs)
    result, history = captured(specs, initial, scheduler, seed)
    text = history.to_json()
    again = History.from_json(text)
    assert again.to_json() == text
    assert again.digest() == history.digest() == result.history_digest()


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    specs=workloads(),
    scheduler=st.sampled_from(SCHEDULERS),
    seed=st.integers(min_value=0, max_value=999),
)
def test_jsonl_stream_reloads_identically(tmp_path_factory, specs,
                                          scheduler, seed):
    initial = initial_for(specs)
    path = str(tmp_path_factory.mktemp("hist") / "run.jsonl")
    _, _, history = export_file(path, specs, initial, scheduler, seed)
    assert load_history(path).to_json() == history.to_json()


@settings(max_examples=25, deadline=None)
@given(
    specs=workloads(),
    scheduler=st.sampled_from(SCHEDULERS),
    seed=st.integers(min_value=0, max_value=999),
)
def test_monitor_agrees_with_offline_checker(specs, scheduler, seed):
    initial = initial_for(specs)
    nest = KNest.from_paths({s.name: s.path for s in specs})
    monitor = OnlineMonitor(nest)
    result, _ = run_specs(specs, initial, scheduler, seed, history=monitor)
    monitor.close()
    offline = check_correctability(
        result.spec(nest), result.execution.dependency_pairs()
    )
    assert monitor.correctable == offline.correctable
    if scheduler != "none":
        assert monitor.correctable


@settings(max_examples=15, deadline=None)
@given(
    specs=workloads(),
    scheduler=st.sampled_from(SCHEDULERS),
    seed=st.integers(min_value=0, max_value=999),
)
def test_audit_sinks_never_change_the_run(specs, scheduler, seed):
    initial = initial_for(specs)
    bare, nest = run_specs(specs, initial, scheduler, seed)
    observed, _ = captured(
        specs, initial, scheduler, seed, history=OnlineMonitor(nest)
    )
    assert observed.history_digest() == bare.history_digest()
    assert observed.metrics.ticks == bare.metrics.ticks
    assert observed.commit_order == bare.commit_order
