"""The distributed runtime's event stream and registry against goldens.

``Network.emit`` is the runtime's one emission point and every series
of its registry is set by a source when the registry is read.  The
goldens pin every event — kind, time, data, order — and the JSON
snapshot of the registry, for one fault-free and one faulty banking run
per scheduler the sequencer hosts.  Phase *seconds* are wall time and
left out; phase *calls* are counts and stay.

They were re-recorded when the sequencer began to host the engine's
schedulers instead of its own copies of three of them.  Against the
goldens before that, the ``none`` and ``2pl`` runs and the fault-free
``mla-prevent`` run keep every event once the scheduler kinds now
emitted (``lock.*``, ``closure.check``, ``breakpoint.wait``, ...) are
left out, and every message count; their registries gain only the
hosted scheduler's series and differ in phase call counts.  The faulty
``none`` and ``mla-prevent`` runs move at 11.7, where a grant is now
performed behind the earlier grant on its entity that the network lost,
and ``mla-prevent``'s also where a requester with nothing to wait for
performs and is rolled back instead of aborting before its grant.

Regenerate — only ever from a commit whose behaviour is the reference —
with ``PYTHONPATH=<that checkout>/src python
tests/distributed/test_event_stream.py``.
"""

from __future__ import annotations

import gzip
import json
import os

import pytest

from repro.api import SCHEDULER_FACTORIES, make_scheduler
from repro.distributed import (
    CrashEvent,
    DistributedRuntime,
    FaultPlan,
    LinkFaults,
)
from repro.obs import MetricsRegistry, PhaseProfiler, RingTracer, json_snapshot
from repro.obs.events import event_to_dict
from repro.workloads import BankingConfig, BankingWorkload

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "golden_event_stream.json.gz",
)

#: Contended enough that the uncontrolled and the prevention runs
#: cascade and break commit-dependency deadlocks.
CONFIG = BankingConfig(
    families=2, accounts_per_family=2, transfers=5, bank_audits=1,
    creditor_audits=1, seed=7,
)
SEED = 2
#: Drop + duplicate on every link and one crash/recover: the at-least-
#: once protocol, the undo barrier and ``seq.recover`` all run.
FAULTS = FaultPlan(
    default=LinkFaults(drop=0.05, duplicate=0.05),
    crashes=(CrashEvent("node1", at=12.0, duration=10.0),),
    seed=5,
)
#: Every scheduler the sequencer can host.
CONTROLS = sorted(SCHEDULER_FACTORIES)
PLANS = {"clean": None, "faulty": FAULTS}


def build_cluster(control: str, plan: str):
    """A traced, metered, profiled cluster; nothing has run yet."""
    workload = BankingWorkload(CONFIG)
    tracer = RingTracer(None)
    registry = MetricsRegistry()
    runtime = DistributedRuntime(
        workload.programs, workload.accounts,
        make_scheduler(control, workload.nest), nodes=3, seed=SEED,
        faults=PLANS[plan], tracer=tracer, registry=registry,
    )
    profiler = PhaseProfiler().install(runtime)
    return runtime, tracer, registry, profiler


def observed(tracer, registry, result) -> dict:
    """What one finished run left behind, as the golden stores it."""
    snapshot = json_snapshot(registry)
    snapshot["families"] = [
        family for family in snapshot["families"]
        if family["name"] != "repro_phase_seconds_total"
    ]
    return {
        "events": [event_to_dict(event) for event in tracer.events()],
        "registry": snapshot,
        "messages_by_kind": result.messages_by_kind,
        "timers_by_kind": result.timers_by_kind,
        "summary": result.summary(),
        "faults": result.faults,
    }


def run_cluster(control: str, plan: str) -> dict:
    runtime, tracer, registry, profiler = build_cluster(control, plan)
    registry.derive("phases", profiler.publish)
    return observed(tracer, registry, runtime.run())


def _load_golden() -> dict:
    with gzip.open(GOLDEN_PATH, "rt", encoding="utf-8") as handle:
        return json.load(handle)


#: ``"<control>:<plan>"`` -> what :func:`observed` returned at the parent.
GOLDEN = _load_golden() if __name__ != "__main__" else {}


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("control", CONTROLS)
def test_recorder_and_registry_hold_what_the_parent_wrote(control, plan):
    golden = GOLDEN[f"{control}:{plan}"]
    # Through JSON, as the golden went: tuples become lists, int keys
    # strings.
    seen = json.loads(json.dumps(run_cluster(control, plan)))
    assert len(seen["events"]) == len(golden["events"])
    for position, (old, new) in enumerate(
        zip(golden["events"], seen["events"])
    ):
        assert new == old, f"event {position} ({old['kind']} at {old['at']})"
    for key in sorted(golden):
        assert seen[key] == golden[key], key


def test_matrix_exercises_every_distributed_kind():
    """The goldens are only as good as their coverage."""
    seen = {
        event["kind"] for run in GOLDEN.values() for event in run["events"]
    }
    assert {
        "msg.send", "msg.recv", "msg.drop", "msg.dup", "msg.lost-down",
        "node.crash", "node.recover", "node.park", "seq.grant", "seq.deny",
        "seq.commit", "seq.abort", "seq.recover", "step.perform",
        "step.undo", "cascade.join", "deadlock", "closure.rebuild",
    } <= seen
    families = {
        family["name"]
        for run in GOLDEN.values()
        for family in run["registry"]["families"]
    }
    assert {
        "repro_net_messages_total", "repro_net_deliveries_total",
        "repro_node_parks_total", "repro_node_steps_performed_total",
        "repro_node_undos_total", "repro_seq_grants_total",
        "repro_seq_denies_total", "repro_seq_commits_total",
        "repro_seq_aborts_total", "repro_seq_deadlocks_total",
        "repro_seq_recoveries_total", "repro_phase_calls_total",
    } <= families


def write_golden(run=run_cluster) -> None:
    golden = {
        f"{control}:{plan}": run(control, plan)
        for control in CONTROLS
        for plan in sorted(PLANS)
    }
    with open(GOLDEN_PATH, "wb") as raw:
        # mtime=0: the same runs compress to the same bytes.
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as packed:
            packed.write(
                json.dumps(golden, sort_keys=True, indent=0).encode()
            )
    print(f"wrote {len(golden)} runs to {GOLDEN_PATH}")


if __name__ == "__main__":
    write_golden()
