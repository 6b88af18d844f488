"""The resumable pump surface: ``advance`` slicing, open-system
``add_program``, and the dynamic-ingest ≡ up-front-arrivals equivalence
the service's differential guarantee is built on."""

from __future__ import annotations

import pytest

from repro.api import ProgramSpec, make_scheduler
from repro.core import KNest
from repro.engine.runtime import Engine
from repro.errors import EngineError

INITIAL = {"x": 100, "y": 100, "z": 100}


def specs() -> list[ProgramSpec]:
    return [
        ProgramSpec("t0", (("add", "x", 5), ("read", "x"), ("add", "y", 1))),
        ProgramSpec("t1", (("read", "x"), ("bp", 1), ("add", "x", -2))),
        ProgramSpec("t2", (("add", "y", 3), ("read", "y"), ("read", "z"))),
        ProgramSpec("t3", (("read", "z"), ("add", "z", 7), ("read", "x"))),
    ]


def build(arrivals=None, names=None) -> Engine:
    chosen = [s for s in specs() if names is None or s.name in names]
    nest = KNest.flat([s.name for s in chosen])
    return Engine(
        [s.compile() for s in chosen],
        dict(INITIAL),
        make_scheduler("2pl", nest),
        seed=11,
        arrivals=arrivals,
    )


class TestAdvanceSlicing:
    @pytest.mark.parametrize("batch", [1, 3, 64])
    def test_sliced_advance_equals_one_shot_run(self, batch):
        oneshot = build().run()
        sliced_engine = build()
        while not sliced_engine.advance(
            until_tick=sliced_engine.tick + batch
        ):
            pass
        sliced = sliced_engine.run()
        assert sliced.history_digest() == oneshot.history_digest()
        assert sliced.commit_order == oneshot.commit_order
        assert sliced.results == oneshot.results
        assert not sliced.partial

    def test_advance_reports_quiescence(self):
        engine = build()
        assert engine.advance() is True
        assert engine.advance() is True  # idempotent once quiesced

    def test_log_is_seq_sorted_at_every_slice(self):
        engine = build()
        while not engine.advance(until_tick=engine.tick + 2):
            seqs = [entry.seq for entry in engine.log]
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)


class TestAddProgram:
    def test_duplicate_name_rejected(self):
        engine = build()
        with pytest.raises(EngineError, match="duplicate"):
            engine.add_program(specs()[0].compile())

    def test_past_arrival_rejected(self):
        engine = build(names={"t0"})
        engine.run()
        with pytest.raises(EngineError, match="already processed"):
            engine.add_program(
                specs()[1].compile(), arrival_tick=engine.tick
            )

    def test_result_of_uncommitted_rejected(self):
        engine = build()
        with pytest.raises(EngineError, match="has not committed"):
            engine.result_of("t0")

    def test_dynamic_ingest_equals_upfront_arrivals(self):
        """Feed programs into a live engine mid-run, then replay the
        recorded arrival ticks through up-front construction: identical
        committed history.  This is the property the ingest service's
        bit-identical differential stands on."""
        all_specs = {s.name: s for s in specs()}
        nest = KNest.flat(sorted(all_specs))

        dynamic = Engine(
            [], dict(INITIAL), make_scheduler("2pl", nest), seed=11
        )
        dynamic.add_program(all_specs["t0"].compile())
        dynamic.add_program(all_specs["t1"].compile())
        dynamic.advance(until_tick=dynamic.tick + 3)
        dynamic.add_program(all_specs["t2"].compile())
        dynamic.advance(until_tick=dynamic.tick + 2)
        dynamic.add_program(all_specs["t3"].compile())
        while not dynamic.advance(until_tick=dynamic.tick + 4):
            pass
        dynamic_result = dynamic.run()

        assert not dynamic.txns  # a commit leaves only its record
        ingested = ["t0", "t1", "t2", "t3"]
        arrivals = {
            name: dynamic.commit_of(name).arrival_tick for name in ingested
        }
        upfront = Engine(
            [all_specs[name].compile() for name in ingested],
            dict(INITIAL),
            make_scheduler("2pl", nest),
            seed=11,
            arrivals=arrivals,
        )
        upfront_result = upfront.run()

        assert (
            dynamic_result.history_digest()
            == upfront_result.history_digest()
        )
        assert dynamic_result.commit_order == upfront_result.commit_order
        assert dynamic_result.results == upfront_result.results
        assert dynamic.tick == upfront.tick
