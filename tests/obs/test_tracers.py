"""Tracer sinks and the disabled-mode guard contract.

The most important test here is :class:`TestGuardContract`: a tracer
whose ``emit`` raises but whose ``enabled`` is False is driven through
full engine and distributed runs.  Any call site that forgot the
``if tr.enabled`` guard (or the NULL_TRACER no-op) would blow up the
run — this is how the <3% disabled-overhead budget stays honest.
"""

from __future__ import annotations

import io
import json
from typing import Any

import pytest

from repro.distributed import DistributedRuntime
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    RingTracer,
    StreamTracer,
    Tracer,
    load_jsonl,
)

from .conftest import SCHEDULER_ZOO


class TestNullTracer:
    def test_disabled_and_silent(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit("txn.commit", 1.0, txn="t0")
        assert NULL_TRACER.events() == []
        NULL_TRACER.close()

    def test_fresh_instances_equivalent_to_singleton(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        tracer.emit("txn.commit", 1.0)
        assert tracer.events() == []

    def test_unvalidated_kind_is_free(self):
        # emit is a pure no-op: not even the kind is validated, because
        # the disabled path must do no work at all.
        NULL_TRACER.emit("not.a.kind", 0.0)


class _BoomTracer(Tracer):
    """Disabled tracer whose emit raises: proves every site is guarded."""

    enabled = False

    def emit(self, kind: str, at: float, /, **data: Any) -> None:
        raise AssertionError(
            f"emit({kind!r}) called while tracer.enabled is False"
        )


class TestGuardContract:
    @pytest.mark.parametrize("name", sorted(SCHEDULER_ZOO))
    def test_engine_sites_all_guarded(self, bank, name):
        scheduler = SCHEDULER_ZOO[name](bank.nest)
        result = bank.engine(
            scheduler, seed=3, tracer=_BoomTracer()
        ).run()
        assert result.metrics.commits == len(bank.programs)

    def test_distributed_sites_all_guarded(self, bank):
        runtime = DistributedRuntime(
            bank.programs,
            bank.accounts,
            SCHEDULER_ZOO["mla-prevent"](bank.nest),
            nodes=3,
            seed=2,
            tracer=_BoomTracer(),
        )
        assert runtime.run().commits == len(bank.programs)


class TestRingTracer:
    def test_records_in_order(self):
        tracer = RingTracer()
        tracer.emit("txn.commit", 1, txn="t0")
        tracer.emit("txn.commit", 2, txn="t1")
        assert [(e.kind, e.at, e.data["txn"]) for e in tracer.events()] == [
            ("txn.commit", 1, "t0"),
            ("txn.commit", 2, "t1"),
        ]

    def test_bounded_ring_counts_drops(self):
        tracer = RingTracer(capacity=2)
        for tick in range(5):
            tracer.emit("txn.commit", tick, txn=f"t{tick}")
        assert tracer.dropped == 3
        assert [e.at for e in tracer.events()] == [3, 4]

    def test_unbounded_never_drops(self):
        tracer = RingTracer(capacity=None)
        for tick in range(1000):
            tracer.emit("txn.commit", tick)
        assert tracer.dropped == 0
        assert len(tracer.events()) == 1000

    def test_clear_resets(self):
        tracer = RingTracer(capacity=1)
        tracer.emit("txn.commit", 1)
        tracer.emit("txn.commit", 2)
        tracer.clear()
        assert tracer.events() == []
        assert tracer.dropped == 0


class TestStreamTracer:
    def test_streams_jsonl_to_handle(self):
        sink = io.StringIO()
        tracer = StreamTracer(sink)
        tracer.emit("txn.commit", 4, txn="t2", latency=3)
        tracer.emit("txn.abort", 5, victims=["t3"])
        assert tracer.written == 2
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [rec["kind"] for rec in lines] == ["txn.commit", "txn.abort"]
        tracer.close()  # does not own the handle
        assert not sink.closed

    def test_file_sink_parses_back(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        tracer = StreamTracer(path)
        tracer.emit("seq.grant", 1.5, txn="t0", node="node1")
        tracer.close()
        events = load_jsonl(path)
        assert len(events) == 1
        assert events[0].kind == "seq.grant"
        assert events[0].data == {"txn": "t0", "node": "node1"}
