"""Tests for the command-line interface."""

from __future__ import annotations

import os
import socket
import subprocess
import sys

import pytest

from repro.api import SCHEDULER_FACTORIES
from repro.cli import SCHEDULERS, build_parser, main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


class TestParser:
    def test_schedulers_listed(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        for name in SCHEDULERS:
            assert name in out

    def test_scheduler_names_are_the_factory_table(self):
        # The parser's choices, kept as names so the CLI's top imports no
        # engine, must be the service's table, in its order.
        assert SCHEDULERS == tuple(SCHEDULER_FACTORIES)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRun:
    @pytest.mark.parametrize("scheduler", ["mla-detect", "2pl", "serial"])
    def test_run_controlled(self, capsys, scheduler):
        code = main([
            "run", "--workload", "banking", "--scheduler", scheduler,
            "--transfers", "4", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mla-correctable" in out
        assert "invariants       ok" in out

    def test_run_cad(self, capsys):
        assert main([
            "run", "--workload", "cad", "--scheduler", "mla-prevent",
            "--transfers", "4",
        ]) == 0

    def test_run_fgl(self, capsys):
        assert main([
            "run", "--workload", "fgl", "--scheduler", "mla-detect",
            "--transfers", "3",
        ]) == 0


class TestTrace:
    def test_trace_prints_timeline(self, capsys):
        assert main([
            "trace", "--workload", "banking", "--transfers", "4",
            "--families", "2", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out
        assert "events over" in out
        assert "t=" in out  # per-tick timeline headers

    def test_trace_dumps_jsonl_and_explains(self, capsys, tmp_path):
        from repro.obs import load_jsonl

        path = str(tmp_path / "trace.jsonl")
        assert main([
            "trace", "--workload", "banking", "--transfers", "4",
            "--seed", "1", "--out", path, "--limit", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and path in out
        events = load_jsonl(path)
        assert events
        # The run either explains an abort or states there were none.
        assert ("why did" in out) or ("no aborts in this run" in out)

    def test_trace_explain_unknown_txn(self, capsys):
        assert main([
            "trace", "--transfers", "3", "--families", "2",
            "--explain", "ghost",
        ]) == 0
        out = capsys.readouterr().out
        assert "no abort of 'ghost'" in out


class TestSweepAndAdmission:
    def test_sweep_table(self, capsys):
        assert main(["sweep", "--transfers", "3", "--families", "2"]) == 0
        out = capsys.readouterr().out
        assert "scheduler" in out
        assert "mla-detect" in out

    def test_admission_table(self, capsys):
        assert main([
            "admission", "--workload", "banking", "--transfers", "3",
            "--families", "1", "--samples", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "nest depth" in out


class TestMetricsCommand:
    def test_prometheus_output(self, capsys):
        assert main([
            "metrics", "--transfers", "4", "--families", "2", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_commits_total counter" in out
        assert 'scheduler="mla-detect"' in out
        assert "# TYPE repro_phase_seconds_total counter" in out

    def test_json_output_round_trips(self, capsys):
        import json

        from repro.obs import registry_from_snapshot

        assert main([
            "metrics", "--transfers", "4", "--families", "2",
            "--format", "json",
        ]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        registry = registry_from_snapshot(snapshot)
        assert registry.value("repro_commits_total", scheduler="mla-detect")

    def test_out_file(self, capsys, tmp_path):
        path = str(tmp_path / "metrics.prom")
        assert main([
            "metrics", "--transfers", "4", "--families", "2", "--out", path,
        ]) == 0
        with open(path, encoding="utf-8") as handle:
            assert "repro_commits_total" in handle.read()

    def test_distributed_mode_merges_node_registries(self, capsys):
        assert main([
            "metrics", "--distributed", "--scheduler", "mla-prevent",
            "--transfers", "4", "--families", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "repro_seq_commits_total" in out
        assert "repro_node_steps_performed_total" in out
        assert 'node="node0"' in out

    def test_distributed_rejects_unknown_control(self):
        with pytest.raises(SystemExit):
            main([
                "metrics", "--distributed", "--scheduler", "timestamp",
                "--transfers", "3",
            ])


class TestSpansCommand:
    def test_engine_spans_file_validates(self, capsys, tmp_path):
        import json

        from repro.obs import validate_trace

        path = str(tmp_path / "trace.json")
        assert main([
            "spans", "--transfers", "4", "--families", "2", "--out", path,
        ]) == 0
        out = capsys.readouterr().out
        assert "perfetto" in out.lower()
        with open(path, encoding="utf-8") as handle:
            trace = json.load(handle)
        validate_trace(trace)
        assert trace["traceEvents"]

    def test_distributed_spans(self, capsys, tmp_path):
        path = str(tmp_path / "trace.json")
        assert main([
            "spans", "--distributed", "--scheduler", "2pl",
            "--transfers", "4", "--families", "2", "--out", path,
        ]) == 0
        assert "trace events" in capsys.readouterr().out


class TestTopCommand:
    def test_engine_dashboard_runs_to_completion(self, capsys):
        assert main([
            "top", "--transfers", "4", "--families", "2", "--no-clear",
            "--batch", "32",
        ]) == 0
        out = capsys.readouterr().out
        assert "commits" in out
        assert "phase time (exclusive):" in out
        assert "schedule" in out
        assert "finished at tick" in out

    def test_engine_dashboard_respects_max_frames(self, capsys):
        assert main([
            "top", "--transfers", "6", "--no-clear", "--batch", "1",
            "--max-frames", "2",
        ]) == 1
        assert "stopped after 2 frames" in capsys.readouterr().out

    def test_distributed_dashboard(self, capsys):
        assert main([
            "top", "--distributed", "--scheduler", "mla-prevent",
            "--transfers", "4", "--families", "2", "--no-clear",
            "--batch", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "node" in out
        assert "quiesced" in out or "commits" in out


def _unused_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestServeAndSubmitFailures:
    """A service that cannot start, and a submission that cannot be
    made, end in one line on stderr and an exit code, never a hang or a
    traceback: 2 for bad input or configuration, 1 for the network."""

    @staticmethod
    def serve(*argv: str) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run(
            [sys.executable, "-m", "repro", "serve", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    def test_serve_on_a_busy_port_exits(self):
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            done = self.serve("--port", str(busy.getsockname()[1]))
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("serve: ")
        assert done.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv, reason", [
        pytest.param(["--nest-depth", "-1"], "depth", id="nest-depth"),
        pytest.param(["--window", "0"], "window", id="window"),
        pytest.param(["--batch", "0"], "tick_batch", id="batch"),
    ])
    def test_serve_with_a_bad_configuration_exits(self, argv, reason):
        done = self.serve("--port", "0", *argv)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("serve: ")
        assert reason in done.stderr
        assert done.stderr.count("\n") == 1

    @pytest.mark.parametrize("program, code, reason", [
        pytest.param("{not json", 2, "not valid JSON", id="malformed"),
        pytest.param("@" + os.path.join(os.devnull, "program.json"), 2,
                     "cannot read program", id="missing-file"),
        pytest.param('{"name": "t", "ops": [["read", "x"]]}', 1,
                     "cannot reach", id="refused"),
    ])
    def test_submit_failure_is_one_line(self, capsys, program, code, reason):
        port = str(_unused_port())
        assert main(["submit", "--port", port, "--program", program]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("submit: ")
        assert reason in captured.err
        assert captured.err.count("\n") == 1

    def test_submit_needs_a_program(self, capsys):
        assert main(["submit", "--port", str(_unused_port())]) == 2
        assert capsys.readouterr().err.startswith("submit: needs --program")
