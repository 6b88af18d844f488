"""Property: for any workload, scheduler, crash point and snapshot
cadence — snapshot@k + WAL-suffix replay ≡ full-WAL replay ≡ the live
run, and the recovered history is correctable."""

from __future__ import annotations

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ProgramSpec
from repro.core import is_correctable
from repro.durability import recover
from repro.durability.fuzz import run_reference
from repro.durability.wal import EngineWal

SCHEDULERS = ["serial", "2pl", "timestamp", "mla-detect", "mla-prevent",
              "mla-nested-lock"]
ENTITIES = ["x", "y", "z"]


@st.composite
def workloads(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    specs = []
    for i in range(n):
        steps = draw(st.integers(min_value=1, max_value=4))
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
        path = (draw(st.sampled_from(["a", "b"])),
                draw(st.sampled_from(["p", "q"])))
        specs.append(ProgramSpec(f"t{i}", tuple(ops), path))
    return specs


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    specs=workloads(),
    scheduler=st.sampled_from(SCHEDULERS),
    seed=st.integers(min_value=0, max_value=999),
    snapshot_every=st.sampled_from([0, 4, 9]),
)
def test_replay_equivalence(tmp_path_factory, specs, scheduler, seed,
                            snapshot_every):
    d = str(tmp_path_factory.mktemp("wal"))
    _, live = run_reference(
        d, specs, scheduler=scheduler, seed=seed,
        snapshot_every=snapshot_every,
    )
    via_snapshot = recover(d)
    full_replay = recover(d, use_snapshot=False)
    a = via_snapshot.engine.run(until_tick=via_snapshot.engine.tick)
    b = full_replay.engine.run(until_tick=full_replay.engine.tick)
    assert a.history_digest() == live.history_digest()
    assert b.history_digest() == live.history_digest()
    assert a.commit_order == b.commit_order == live.commit_order
    assert a.results == b.results == live.results
    assert via_snapshot.engine.store.snapshot() == \
        full_replay.engine.store.snapshot()
    # Theorem 2 holds on the recovered history exactly as on the live
    # one (the "none" scheduler is excluded above: it makes no
    # correctness promise).
    nest = via_snapshot.nest
    assert is_correctable(a.spec(nest), a.execution.dependency_edges())


def test_replay_equivalence_through_closure_snapshots(tmp_path):
    """A dense ``mla-detect`` run snapshotted every 6 ticks replays to
    the live history: the pickled closure window restores exactly."""
    from repro.durability.fuzz import default_specs

    d = str(tmp_path)
    _, live = run_reference(
        d, default_specs(seed=8), scheduler="mla-detect", seed=8,
        snapshot_every=6,
    )
    report = recover(d)
    recovered = report.engine.run(until_tick=report.engine.tick)
    assert recovered.history_digest() == live.history_digest()
    assert recovered.commit_order == live.commit_order


def test_mid_log_cut_property(tmp_path):
    """Cutting the log at every 7th record boundary of one dense run
    recovers and continues to the reference history (the cheap,
    deterministic slice of the full fuzz sweep)."""
    from repro.durability.fuzz import crash_recover_diff, default_specs

    ref = str(tmp_path / "ref")
    _, result = run_reference(ref, default_specs(seed=13),
                              scheduler="mla-prevent", seed=13)
    wal = EngineWal(ref)
    offsets = list(wal.log.offsets)
    wal.close()
    for i, offset in enumerate(offsets[1::7]):
        cut = crash_recover_diff(
            ref, offset, "boundary", str(tmp_path / f"cut{i}"),
            reference_result=result,
        )
        assert cut.ok, cut.error
    assert os.path.exists(os.path.join(ref, "engine.wal"))
