"""The serve path imports neither ``networkx`` nor ``numpy``.

Cold start is part of every restart, and an import that lands inside a
server's first batch is paid by its clients; so what a served, logged
and recovered batch leaves in ``sys.modules`` is pinned here, one fresh
interpreter per case.  The analysis surfaces may import what they like —
they only have to keep working.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
FIXTURES = os.path.join(os.path.dirname(__file__), "audit", "fixtures")

SERVE_AND_RECOVER = """
    import asyncio, sys, tempfile

    import repro.cli
    from repro.api import Submission
    from repro.durability import recover
    from repro.service import ServiceConfig, TransactionService
    from repro.workloads.traffic import TrafficConfig, traffic_specs

    scheduler = {scheduler!r}
    specs = traffic_specs(TrafficConfig(transactions=64, contention=0.3, seed=5))

    async def serve(wal_dir):
        service = TransactionService(
            ServiceConfig(scheduler=scheduler, wal_dir=wal_dir)
        )
        for start in range(0, len(specs), 16):
            replies = await asyncio.gather(*(
                service.submit(Submission(program=spec))
                for spec in specs[start:start + 16]
            ))
            assert all(reply["ok"] for reply in replies)
        await service.drain()
        service.wal.close()
        return service

    with tempfile.TemporaryDirectory() as wal_dir:
        service = asyncio.run(serve(wal_dir))
        report = recover(wal_dir)
        report.wal.close()
    assert len(report.engine.commit_order) == 64
    if scheduler == "mla-detect":
        # The run must have reached the code that used to need networkx:
        # a window that holds fewer steps than were committed was pruned.
        metrics = service.engine.metrics
        committed_steps = metrics.steps_performed - metrics.steps_undone
        assert service.engine.scheduler.window.size < committed_steps
    for module in {absent!r}:
        assert module not in sys.modules, module + " was imported"
"""


def _python(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "scheduler, absent",
    [("2pl", ("networkx", "numpy")), ("mla-detect", ("networkx", "numpy"))],
)
def test_serve_and_recover_leave_the_graph_libraries_out(scheduler, absent):
    done = _python(SERVE_AND_RECOVER.format(scheduler=scheduler, absent=absent))
    assert done.returncode == 0, done.stderr


def test_audit_command_and_analysis_still_work():
    done = _python(
        """
        import sys

        from repro.cli import main

        assert main(["audit", sys.argv[1]]) == 0
        assert main([
            "run", "--workload", "banking", "--scheduler", "mla-detect",
            "--transfers", "4", "--seed", "1",
        ]) == 0

        from repro.analysis import dependency_dot
        from repro.api import run_workload
        from repro.core import coherent_closure
        from repro.workloads import BankingConfig, BankingWorkload

        workload = BankingWorkload(BankingConfig(transfers=3, seed=2))
        result = run_workload(workload, "2pl", seed=2)
        assert "digraph" in dependency_dot(result.execution)
        closure = coherent_closure(
            result.spec(workload.nest), result.execution.dependency_edges()
        )
        assert closure.graph.number_of_nodes() == len(result.execution.steps)
        """,
        os.path.join(FIXTURES, "clean-serial.json"),
    )
    assert done.returncode == 0, done.stderr
    assert "multilevel" in done.stdout and "mla-correctable" in done.stdout
