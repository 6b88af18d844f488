"""End-to-end audit plane: ``repro run --history`` → ``repro audit``
exit codes, JSON payloads, and service-mode streaming capture."""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.api import ProgramSpec, Submission
from repro.audit import audit_history, load_history
from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


class TestCli:
    def capture(self, tmp_path, capsys, scheduler="mla-detect"):
        path = str(tmp_path / "run.jsonl")
        code = main([
            "run", "--workload", "banking", "--scheduler", scheduler,
            "--transfers", "4", "--seed", "1", "--history", path,
        ])
        capsys.readouterr()
        assert code == 0
        return path

    def test_run_then_audit_passes(self, tmp_path, capsys):
        path = self.capture(tmp_path, capsys)
        assert main(["audit", path]) == 0
        out = capsys.readouterr().out
        assert "multilevel" in out
        assert "sha256=" in out

    def test_run_json_reports_history(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        code = main([
            "run", "--workload", "banking", "--scheduler", "mla-detect",
            "--transfers", "4", "--seed", "1", "--history", path, "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["history"]["path"] == path
        assert payload["history"]["format_version"] == 1
        assert payload["history_sha256"] == load_history(path).digest()

    def test_audit_json_payload(self, tmp_path, capsys):
        path = self.capture(tmp_path, capsys)
        assert main(["audit", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["require"] == "multilevel"
        assert payload["ok"]["multilevel"] is True
        assert payload["commits"] > 0
        assert payload["sha256"] == load_history(path).digest()

    def test_audit_validates_and_hashes_once(
        self, tmp_path, capsys, monkeypatch
    ):
        """``repro audit --json`` reuses the execution ``load_history``
        validated and the digest it checked, instead of validating the
        history again in ``audit_history`` and hashing it again for the
        payload."""
        from repro.audit import history as history_module
        from repro.model.execution import Execution

        path = self.capture(tmp_path, capsys)
        calls = {"validate": 0, "digest": 0}
        validate, digest = Execution.validate, history_module.canonical_digest

        def counted_validate(execution):
            calls["validate"] += 1
            return validate(execution)

        def counted_digest(rows):
            calls["digest"] += 1
            return digest(rows)

        monkeypatch.setattr(Execution, "validate", counted_validate)
        monkeypatch.setattr(history_module, "canonical_digest", counted_digest)
        assert main(["audit", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sha256"]
        assert calls == {"validate": 1, "digest": 1}

    def test_require_failing_criterion_exits_one(self, capsys):
        fixture = os.path.join(FIXTURES, "lost-update.json")
        assert main(["audit", fixture]) == 1  # multilevel fails
        assert main([
            "audit", fixture, "--require", "snapshot_isolation",
        ]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        assert "witness" in out

    def test_mixed_level_fixture_splits_criteria(self, capsys):
        fixture = os.path.join(FIXTURES, "mixed-level-ok.json")
        assert main(["audit", fixture]) == 0  # multilevel holds
        assert main([
            "audit", fixture, "--require", "serializable",
        ]) == 1
        capsys.readouterr()

    def test_corrupt_history_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1}\n')
        assert main(["audit", str(path)]) == 2
        assert "audit:" in capsys.readouterr().err

    def test_mistyped_history_exits_two(self, tmp_path, capsys):
        """A wrongly typed field is malformed input (2), not a crash
        reported as a violated criterion (1)."""
        with open(os.path.join(FIXTURES, "clean-serial.json"),
                  encoding="utf-8") as handle:
            data = json.load(handle)
        data["commit_order"][0] = ["x"]
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps(data) + "\n")
        assert main(["audit", str(path)]) == 2
        assert "must be strings" in capsys.readouterr().err

    def test_deeply_nested_history_exits_two(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000 + "\n")
        assert main(["audit", str(path)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_tampered_capture_exits_two(self, tmp_path, capsys):
        path = self.capture(tmp_path, capsys)
        lines = open(path, encoding="utf-8").read().splitlines()
        record = json.loads(lines[1])
        assert record["kind"] == "commit"
        record["steps"][0]["after"] = 10**9
        lines[1] = json.dumps(record, sort_keys=True)
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        assert main(["audit", path]) == 2
        # The chain validator or the digest check — either must reject.
        assert "audit:" in capsys.readouterr().err


class TestServiceCapture:
    def test_service_streams_history(self, tmp_path):
        from repro.service import ServiceConfig, TransactionService

        path = str(tmp_path / "service.jsonl")

        async def go():
            service = TransactionService(
                ServiceConfig(nest_depth=1, history_path=path)
            )
            for name, delta in (("t1", 5), ("t2", -3)):
                response = await service.submit(Submission(
                    program=ProgramSpec(
                        name, (("add", "x", delta), ("read", "x")), ("fam",)
                    )
                ))
                assert response["ok"]
            await service.drain()
            health = service.health()
            assert health["history"]["path"] == path
            assert health["history"]["format_version"] == 1
            service.history.close()
            return service

        service = asyncio.run(go())
        history = load_history(path)
        assert list(history.commit_order) == service.engine.commit_order
        assert history.depth == 1
        report = audit_history(history)
        assert report.passes("multilevel")

    def test_service_without_history_is_null(self):
        from repro.service import ServiceConfig, TransactionService

        service = TransactionService(ServiceConfig(nest_depth=0))
        assert service.history.enabled is False
        assert "history" not in service.health()
