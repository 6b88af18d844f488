"""Tracing must not change behaviour.

The recorder's core promise: a traced run and an untraced run of the
same seeded workload are *identical* — same commit order, same metrics
summary, and for the distributed runtime the same message/fault counters.  Emission never
consumes engine or network randomness, and these tests are the fence.
"""

from __future__ import annotations

import pytest

from repro.distributed import DistributedRuntime
from repro.obs import EVENT_KINDS, RingTracer

from .conftest import SCHEDULER_ZOO


class TestEngineDifferential:
    @pytest.mark.parametrize("name", sorted(SCHEDULER_ZOO))
    def test_traced_run_identical(self, bank, name):
        tracer = RingTracer(capacity=None)
        traced = bank.engine(
            SCHEDULER_ZOO[name](bank.nest), seed=5, tracer=tracer
        ).run()
        untraced = bank.engine(SCHEDULER_ZOO[name](bank.nest), seed=5).run()

        assert traced.commit_order == untraced.commit_order
        assert traced.metrics.summary() == untraced.metrics.summary()
        # And the recording itself is complete and schema-clean.
        events = tracer.events()
        assert events and tracer.dropped == 0
        assert {e.kind for e in events} <= EVENT_KINDS

    @pytest.mark.parametrize("name", sorted(SCHEDULER_ZOO))
    def test_recording_ignores_the_other_sinks(self, bank, name, tmp_path):
        """Routing hands the tracer every kind whatever else listens: a
        recording next to a WAL and a history is the lone recording,
        event for event."""
        from repro.audit import OnlineMonitor
        from repro.durability.wal import EngineWal

        alone, shared = RingTracer(capacity=None), RingTracer(capacity=None)
        bank.engine(
            SCHEDULER_ZOO[name](bank.nest), seed=5, tracer=alone
        ).run()
        wal = EngineWal(str(tmp_path))
        bank.engine(
            SCHEDULER_ZOO[name](bank.nest), seed=5, tracer=shared,
            wal=wal, history=OnlineMonitor(bank.nest),
        ).run()
        wal.close()
        assert [(e.kind, e.at, e.data) for e in shared.events()] == [
            (e.kind, e.at, e.data) for e in alone.events()
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_seed_sweep_mla_detect(self, bank, seed):
        tracer = RingTracer(capacity=None)
        traced = bank.engine(
            SCHEDULER_ZOO["mla-detect"](bank.nest), seed=seed, tracer=tracer
        ).run()
        untraced = bank.engine(
            SCHEDULER_ZOO["mla-detect"](bank.nest), seed=seed
        ).run()
        assert traced.commit_order == untraced.commit_order
        assert traced.metrics.summary() == untraced.metrics.summary()


class TestDistributedDifferential:
    def test_traced_cluster_identical(self, bank):
        def cluster(tracer=None):
            return DistributedRuntime(
                bank.programs,
                bank.accounts,
                SCHEDULER_ZOO["mla-prevent"](bank.nest),
                nodes=3,
                seed=4,
                tracer=tracer,
            ).run()

        tracer = RingTracer(capacity=None)
        traced = cluster(tracer)
        untraced = cluster()

        assert traced.commits == untraced.commits
        assert traced.aborts == untraced.aborts
        assert traced.makespan == untraced.makespan
        assert traced.messages == untraced.messages
        assert traced.messages_by_kind == untraced.messages_by_kind
        events = tracer.events()
        assert events and tracer.dropped == 0
        assert {e.kind for e in events} <= EVENT_KINDS
        # The distributed layer actually traced its own vocabulary.
        kinds = {e.kind for e in events}
        assert "msg.send" in kinds
        assert "msg.recv" in kinds
        assert "seq.grant" in kinds
        assert "seq.commit" in kinds
