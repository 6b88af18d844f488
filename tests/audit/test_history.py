"""The portable history format: exact round-trips, strict rejection of
malformed input, agreement of the file export with the in-memory one
and with the engine, and exports that leave the run alone."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.audit import (
    HISTORY_FORMAT_VERSION,
    History,
    HistoryExport,
    HistoryStep,
    NULL_HISTORY,
    load_history,
)
from repro.cli import main
from repro.errors import SpecificationError
from tests.audit.conftest import (
    build_engine,
    captured,
    export_args,
    export_file,
    run_specs,
    write_stream,
)

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
        _, history = captured(mixed_specs, mixed_initial)
        text = history.to_json()
        again = History.from_json(text)
        assert again.to_json() == text
        assert again.digest() == history.digest()
        assert again == history

    def test_digest_matches_engine(self, mixed_specs, mixed_initial):
        result, history = captured(mixed_specs, mixed_initial)
        assert history.digest() == result.history_digest()

    def test_jsonl_writer_agrees_with_recorder(self, tmp_path, mixed_specs,
                                               mixed_initial):
        """The file export and the in-memory export of one engine are
        the same history."""
        path = str(tmp_path / "run.jsonl")
        result, digest, history = export_file(
            path, mixed_specs, mixed_initial
        )
        assert digest == history.digest() == result.history_digest()
        loaded = load_history(path)
        assert loaded.to_json() == history.to_json()

    def test_writer_close_validates_what_it_wrote(self, tmp_path,
                                                  mixed_specs,
                                                  mixed_initial):
        """``close`` checks the digest of the steps it wrote against the
        engine's digest of its committed execution: on a mismatch it
        raises, and the file gets no footer."""
        path = str(tmp_path / "bad.jsonl")
        engine, _ = build_engine(mixed_specs, mixed_initial)
        writer = HistoryExport(
            path, engine, **export_args(mixed_specs, mixed_initial)
        )
        engine.run()
        engine.history_digest = lambda: "0" * 64
        with pytest.raises(SpecificationError, match="committed execution"):
            writer.close()
        with pytest.raises(SpecificationError, match="no footer"):
            load_history(path)

    def test_writer_close_is_idempotent(self, tmp_path, mixed_specs,
                                        mixed_initial):
        path = str(tmp_path / "run.jsonl")
        engine, _ = build_engine(mixed_specs, mixed_initial)
        writer = HistoryExport(
            path, engine, **export_args(mixed_specs, mixed_initial)
        )
        engine.run()
        assert writer.close() is not None
        assert writer.close() is None

    def test_single_object_file_loads(self, tmp_path, mixed_specs,
                                      mixed_initial):
        _, history = captured(mixed_specs, mixed_initial)
        path = tmp_path / "run.json"
        path.write_text(history.to_json() + "\n")
        assert load_history(str(path)).digest() == history.digest()

    def test_nest_and_spec_views(self, mixed_specs, mixed_initial):
        _, history = captured(mixed_specs, mixed_initial)
        assert history.depth == 1
        nest = history.nest()
        assert nest.k == 3
        history.spec()  # computable without error

    def test_flat_history_uses_flat_nest(self):
        history = simple_history()
        assert history.nest().k == 2


class TestCaptureSeam:
    def test_capture_does_not_change_the_run(self, tmp_path, mixed_specs,
                                             mixed_initial):
        bare, _ = run_specs(mixed_specs, mixed_initial, seed=3)
        exported, _, _ = export_file(
            str(tmp_path / "run.jsonl"), mixed_specs, mixed_initial, seed=3
        )
        assert exported.history_digest() == bare.history_digest()
        assert exported.execution.steps == bare.execution.steps
        assert exported.metrics.ticks == bare.metrics.ticks

    def test_null_history_is_disabled(self):
        assert NULL_HISTORY.enabled is False


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
        export_file(path, mixed_specs, mixed_initial)
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
        export_file(path, mixed_specs, mixed_initial)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert json.loads(lines[-1])["kind"] == "footer"
        (tmp_path / "cut.jsonl").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(SpecificationError, match="footer"):
            load_history(str(tmp_path / "cut.jsonl"))

    def test_footer_count_mismatch_rejected(self, tmp_path, mixed_specs,
                                            mixed_initial):
        path = str(tmp_path / "run.jsonl")
        export_file(path, mixed_specs, mixed_initial)
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


def placed_dict() -> dict:
    """``simple_history`` placed in a 3-nest, as a dict without its
    digest (the single-object form may omit it; ``write_stream``
    computes the footer's)."""
    data = simple_history(depth=1, paths={"t": ("a",)}).to_dict()
    del data["sha256"]
    return data


def _set(*where_and_value):
    """A mutation that sets ``data[k1][k2]... = value``."""
    *where, value = where_and_value

    def mutate(data):
        target = data
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value

    return mutate


def _drop(key):
    return lambda data: data.pop(key)


def _add_step_key(data):
    data["steps"][0]["extra"] = True


def _tamper(data):
    data["sha256"] = "0" * 64


def _repeat_seq(data):
    data["steps"] = [
        {**data["steps"][0], "seq": 5},
        {**data["steps"][0], "seq": 5, "index": 1},
    ]


#: Hostile single-object histories, each refused with the same error
#: by both forms: the ``TestRejection`` cases a stream can express
#: (a stream places each step and path on its commit's line, so steps
#: of an uncommitted transaction cannot be written), then the cases the
#: stream decoder used to accept.
BOTH_FORMS = [
    pytest.param(_set("surprise", 1), "unknown keys", id="unknown-key"),
    pytest.param(_drop("version"), "missing keys", id="missing-key"),
    pytest.param(_add_step_key, "unknown keys", id="unknown-step-key"),
    pytest.param(_set("version", HISTORY_FORMAT_VERSION + 1), "version",
                 id="wrong-version"),
    pytest.param(_tamper, "digest mismatch", id="digest-tamper"),
    pytest.param(_repeat_seq, "strictly increase", id="repeated-seq"),
    pytest.param(_set("paths", "t", None), "must be an array",
                 id="missing-path"),
    pytest.param(_set("steps", 0, "before", 9), "not a valid execution",
                 id="broken-value-chain"),
    pytest.param(_set("commit_order", 0, ["x"]), "string",
                 id="name-not-a-string"),
    pytest.param(_set("steps", 0, "entity", {"a": 1}), "strings",
                 id="entity-not-a-string"),
    pytest.param(_set("steps", 0, "index", True), "not an int",
                 id="index-a-bool"),
    pytest.param(_set("depth", True), "nest depth", id="depth-a-bool"),
    pytest.param(_set("cut_levels", {"t": {"0": True}}), "breakpoint level",
                 id="level-a-bool"),
    pytest.param(_set("paths", "t", 5), "must be an array",
                 id="path-not-an-array"),
    pytest.param(_set("version", 99), "version", id="version-99"),
    pytest.param(_set("version", True), "version", id="version-a-bool"),
    pytest.param(_set("paths", "t", [7]), "string labels", id="int-label"),
    pytest.param(_set("paths", "t", [{"a": 1}]), "string labels",
                 id="dict-label"),
    pytest.param(_set("depth", None), "together", id="paths-without-depth"),
]


class TestBothForms:
    """The JSONL stream and the single-object form are read by one
    validator: whatever one refuses, the other refuses too."""

    @pytest.mark.parametrize("mutate, match", BOTH_FORMS)
    def test_rejected_in_both_forms(self, tmp_path, mutate, match):
        data = placed_dict()
        mutate(data)
        single = tmp_path / "single.json"
        single.write_text(json.dumps(data) + "\n")
        stream = tmp_path / "stream.jsonl"
        write_stream(stream, data)
        for path in (single, stream):
            with pytest.raises(SpecificationError, match=match):
                load_history(str(path))
            assert main(["audit", str(path)]) == 2

    def test_footer_step_count_is_checked(self, tmp_path):
        stream = tmp_path / "stream.jsonl"
        write_stream(stream, placed_dict(), steps=99)
        with pytest.raises(SpecificationError, match="99 steps"):
            load_history(str(stream))
        assert main(["audit", str(stream)]) == 2

    @staticmethod
    def per_commit(history: History) -> History:
        """``history`` with a cut-level map and a result for every
        commit: a stream's commit line always carries both, where the
        single-object form may leave them out."""
        order = history.commit_order
        return dataclasses.replace(
            history,
            cut_levels={t: history.cut_levels.get(t, {}) for t in order},
            results={t: history.results.get(t) for t in order},
        )

    @pytest.mark.parametrize("name", sorted(
        n for n in os.listdir(FIXTURES) if n.endswith(".json")
    ))
    def test_fixtures_load_equal_in_both_forms(self, tmp_path, name):
        single = load_history(os.path.join(FIXTURES, name))
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
            data = json.load(handle)
        stream = tmp_path / "stream.jsonl"
        write_stream(stream, data)
        assert load_history(str(stream)) == self.per_commit(single)

    def test_stream_fixture_is_the_single_object_fixture(self, capsys):
        single = os.path.join(FIXTURES, "clean-serial.json")
        stream = os.path.join(FIXTURES, "clean-serial.jsonl")
        assert load_history(stream) == self.per_commit(load_history(single))
        reports = []
        for path in (single, stream):
            assert main(["audit", "--json", path]) == 0
            report = json.loads(capsys.readouterr().out)
            del report["path"]
            reports.append(report)
        assert reports[0] == reports[1]
