"""The portable history format: exact round-trips, strict rejection of
malformed input, streaming capture agreement, and the zero-interference
guarantee of the engine seam."""

from __future__ import annotations

import json
import os

import pytest

from repro.audit import (
    HISTORY_FORMAT_VERSION,
    History,
    HistoryRecorder,
    HistoryStep,
    HistoryWriter,
    NULL_HISTORY,
    TeeHistory,
    history_from_result,
    load_history,
)
from repro.cli import main
from repro.errors import SpecificationError
from tests.audit.conftest import recorder_for, run_specs

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def simple_history(**overrides) -> History:
    """A tiny valid history: one committed transaction, one read."""
    fields = dict(
        commit_order=("t",),
        steps=(HistoryStep(0, "t", 0, "x", "read", 1, 1),),
        initial={"x": 1},
    )
    fields.update(overrides)
    return History(**fields)


class TestRoundTrip:
    def test_json_round_trip_is_exact(self, mixed_specs, mixed_initial):
        recorder = recorder_for(mixed_specs, mixed_initial)
        run_specs(mixed_specs, mixed_initial, history=recorder)
        history = recorder.history()
        text = history.to_json()
        again = History.from_json(text)
        assert again.to_json() == text
        assert again.digest() == history.digest()
        assert again == history

    def test_digest_matches_engine(self, mixed_specs, mixed_initial):
        recorder = recorder_for(mixed_specs, mixed_initial)
        result, _ = run_specs(mixed_specs, mixed_initial, history=recorder)
        assert recorder.history().digest() == result.history_digest()

    def test_history_from_result_same_digest(self, mixed_specs,
                                             mixed_initial):
        recorder = recorder_for(mixed_specs, mixed_initial)
        result, nest = run_specs(mixed_specs, mixed_initial, history=recorder)
        converted = history_from_result(result, nest)
        assert converted.digest() == recorder.history().digest()
        # Seq values differ (positions vs engine seqs) but the canonical
        # content — and therefore every audit verdict — is identical.
        assert converted.commit_order == recorder.history().commit_order

    def test_jsonl_writer_agrees_with_recorder(self, tmp_path, mixed_specs,
                                               mixed_initial):
        path = str(tmp_path / "run.jsonl")
        depth = len(mixed_specs[0].path)
        writer = HistoryWriter(path, initial=dict(mixed_initial), depth=depth)
        recorder = recorder_for(mixed_specs, mixed_initial)
        for spec in mixed_specs:
            writer.declare_path(spec.name, spec.path)
        run_specs(
            mixed_specs, mixed_initial, history=TeeHistory(writer, recorder)
        )
        digest = writer.close()
        assert digest == recorder.history().digest()
        loaded = load_history(path)
        assert loaded.to_json() == recorder.history().to_json()

    def test_writer_close_is_idempotent(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        writer = HistoryWriter(path, initial={})
        assert writer.close() is not None
        assert writer.close() is None

    def test_single_object_file_loads(self, tmp_path, mixed_specs,
                                      mixed_initial):
        recorder = recorder_for(mixed_specs, mixed_initial)
        run_specs(mixed_specs, mixed_initial, history=recorder)
        history = recorder.history()
        path = tmp_path / "run.json"
        path.write_text(history.to_json() + "\n")
        assert load_history(str(path)).digest() == history.digest()

    def test_nest_and_spec_views(self, mixed_specs, mixed_initial):
        recorder = recorder_for(mixed_specs, mixed_initial)
        run_specs(mixed_specs, mixed_initial, history=recorder)
        history = recorder.history()
        assert history.depth == 1
        nest = history.nest()
        assert nest.k == 3
        history.spec()  # computable without error

    def test_flat_history_uses_flat_nest(self):
        history = simple_history()
        assert history.nest().k == 2


class TestCaptureSeam:
    def test_capture_does_not_change_the_run(self, mixed_specs,
                                             mixed_initial):
        bare, _ = run_specs(mixed_specs, mixed_initial, seed=3)
        recorder = recorder_for(mixed_specs, mixed_initial)
        captured, _ = run_specs(
            mixed_specs, mixed_initial, seed=3, history=recorder
        )
        assert captured.history_digest() == bare.history_digest()
        assert captured.execution.steps == bare.execution.steps
        assert captured.metrics.ticks == bare.metrics.ticks

    def test_null_history_is_disabled(self):
        assert NULL_HISTORY.enabled is False

    def test_tee_of_nothing_is_disabled(self):
        assert TeeHistory().enabled is False
        assert TeeHistory(NULL_HISTORY).enabled is False


class TestRejection:
    def test_unknown_top_level_key(self):
        data = simple_history().to_dict()
        data["surprise"] = 1
        with pytest.raises(SpecificationError, match="unknown keys"):
            History.from_dict(data)

    def test_missing_required_key(self):
        data = simple_history().to_dict()
        del data["commit_order"]
        with pytest.raises(SpecificationError, match="missing keys"):
            History.from_dict(data)

    def test_unknown_step_key(self):
        data = simple_history().to_dict()
        data["steps"][0]["extra"] = True
        del data["sha256"]
        with pytest.raises(SpecificationError, match="unknown keys"):
            History.from_dict(data)

    def test_wrong_version(self):
        data = simple_history().to_dict()
        data["version"] = HISTORY_FORMAT_VERSION + 1
        del data["sha256"]
        with pytest.raises(SpecificationError, match="version"):
            History.from_dict(data)

    def test_digest_tamper_detected(self):
        data = simple_history(initial={"x": 2}, steps=(
            HistoryStep(0, "t", 0, "x", "read", 2, 2),
        )).to_dict()
        # Flip a value but keep the recorded sha256.
        data["steps"][0]["before"] = 7
        data["steps"][0]["after"] = 7
        data["initial"] = {"x": 7}
        with pytest.raises(SpecificationError, match="digest mismatch"):
            History.from_dict(data)

    def test_step_for_uncommitted_transaction(self):
        with pytest.raises(SpecificationError, match="uncommitted"):
            simple_history(commit_order=("other",)).validate()

    def test_seqs_must_increase(self):
        steps = (
            HistoryStep(5, "t", 0, "x", "read", 1, 1),
            HistoryStep(5, "t", 1, "x", "read", 1, 1),
        )
        with pytest.raises(SpecificationError, match="strictly increase"):
            simple_history(steps=steps).validate()

    def test_depth_without_paths(self):
        with pytest.raises(SpecificationError, match="together"):
            simple_history(depth=1).validate()

    def test_paths_must_cover_commits(self):
        with pytest.raises(SpecificationError, match="exactly"):
            simple_history(depth=1, paths={"other": ("a",)}).validate()

    def test_broken_value_chain_rejected(self):
        # The read claims x=9 but the initial value is 1.
        steps = (HistoryStep(0, "t", 0, "x", "read", 9, 9),)
        with pytest.raises(SpecificationError):
            simple_history(steps=steps).validate()

    @staticmethod
    def fixture(name: str) -> dict:
        path = os.path.join(FIXTURES, name)
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        data.pop("sha256", None)
        return data

    def test_names_must_be_strings(self):
        data = self.fixture("clean-serial.json")
        data["commit_order"][0] = ["x"]
        with pytest.raises(SpecificationError, match="strings"):
            History.from_dict(data)
        data = self.fixture("clean-serial.json")
        data["steps"][0]["transaction"] = {"a": 1}
        with pytest.raises(SpecificationError, match="strings"):
            History.from_dict(data)

    def test_entities_must_be_strings(self):
        data = self.fixture("clean-serial.json")
        data["steps"][0]["entity"] = {"a": 1}
        with pytest.raises(SpecificationError, match="strings"):
            History.from_dict(data)

    def test_index_must_be_an_int_not_a_bool(self):
        data = self.fixture("clean-serial.json")
        data["steps"][1]["index"] = True
        with pytest.raises(SpecificationError, match="not an int"):
            History.from_dict(data)

    def test_depth_and_cut_levels_must_be_ints_not_bools(self, tmp_path):
        """``"depth": true`` is not depth 1: a single-object file and a
        JSONL header carrying it are refused, and ``repro audit`` exits
        2 on both; a ``true`` breakpoint level or gap is refused too."""
        placed = simple_history(depth=1, paths={"t": ("a",)})
        data = placed.to_dict()
        data["depth"] = True
        single = tmp_path / "single.json"
        single.write_text(json.dumps(data) + "\n")
        step = {"seq": 0, "index": 0, "entity": "x", "kind": "read",
                "before": 1, "after": 1}
        lines = [
            {"kind": "header", "version": HISTORY_FORMAT_VERSION,
             "meta": {}, "initial": {"x": 1}, "depth": True},
            {"kind": "commit", "txn": "t", "attempt": 0, "tick": 0,
             "position": 0, "path": ["a"], "cut_levels": {},
             "result": None, "steps": [step]},
            {"kind": "footer", "commits": 1, "steps": 1,
             "sha256": placed.digest()},
        ]
        stream = tmp_path / "stream.jsonl"
        stream.write_text("".join(json.dumps(line) + "\n" for line in lines))
        for path in (single, stream):
            with pytest.raises(SpecificationError, match="nest depth"):
                load_history(str(path))
            assert main(["audit", str(path)]) == 2
        with pytest.raises(SpecificationError, match="breakpoint level"):
            simple_history(cut_levels={"t": {0: True}}).validate()
        with pytest.raises(SpecificationError, match="gap index"):
            simple_history(cut_levels={"t": {False: 1}}).validate()

    def test_paths_must_be_arrays(self):
        data = self.fixture("mixed-level-ok.json")
        data["paths"]["t1"] = 5
        with pytest.raises(SpecificationError, match="must be an array"):
            History.from_dict(data)

    def test_stream_step_entity_must_be_a_string(self, tmp_path,
                                                 mixed_specs, mixed_initial):
        path = str(tmp_path / "run.jsonl")
        depth = len(mixed_specs[0].path)
        writer = HistoryWriter(path, initial=dict(mixed_initial), depth=depth)
        for spec in mixed_specs:
            writer.declare_path(spec.name, spec.path)
        run_specs(mixed_specs, mixed_initial, history=writer)
        writer.close()
        lines = open(path, encoding="utf-8").read().splitlines()
        commit = next(i for i, l in enumerate(lines)
                      if json.loads(l)["kind"] == "commit")
        record = json.loads(lines[commit])
        record["steps"][0]["entity"] = {"a": 1}
        lines[commit] = json.dumps(record, sort_keys=True)
        (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(SpecificationError, match="strings"):
            load_history(str(tmp_path / "bad.jsonl"))

    def test_truncated_stream_rejected(self, tmp_path, mixed_specs,
                                       mixed_initial):
        path = str(tmp_path / "run.jsonl")
        depth = len(mixed_specs[0].path)
        writer = HistoryWriter(path, initial=dict(mixed_initial), depth=depth)
        for spec in mixed_specs:
            writer.declare_path(spec.name, spec.path)
        run_specs(mixed_specs, mixed_initial, history=writer)
        writer.close()
        lines = open(path, encoding="utf-8").read().splitlines()
        assert json.loads(lines[-1])["kind"] == "footer"
        (tmp_path / "cut.jsonl").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(SpecificationError, match="footer"):
            load_history(str(tmp_path / "cut.jsonl"))

    def test_footer_count_mismatch_rejected(self, tmp_path, mixed_specs,
                                            mixed_initial):
        path = str(tmp_path / "run.jsonl")
        depth = len(mixed_specs[0].path)
        writer = HistoryWriter(path, initial=dict(mixed_initial), depth=depth)
        for spec in mixed_specs:
            writer.declare_path(spec.name, spec.path)
        run_specs(mixed_specs, mixed_initial, history=writer)
        writer.close()
        lines = open(path, encoding="utf-8").read().splitlines()
        commit = next(i for i, l in enumerate(lines)
                      if json.loads(l)["kind"] == "commit")
        del lines[commit]
        (tmp_path / "cut.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(SpecificationError, match="commits"):
            load_history(str(tmp_path / "cut.jsonl"))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(SpecificationError, match="empty"):
            load_history(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SpecificationError, match="cannot read"):
            load_history(str(tmp_path / "nope.json"))

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json\n")
        with pytest.raises(SpecificationError, match="not valid JSON"):
            load_history(str(path))

    def test_deeply_nested_rejected(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000 + "\n")
        with pytest.raises(SpecificationError, match="nested too deeply"):
            load_history(str(path))
        with pytest.raises(SpecificationError, match="nested too deeply"):
            History.from_json("{\"a\": " * 200_000)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00\n\x00")
        with pytest.raises(SpecificationError, match="not UTF-8"):
            load_history(str(path))
