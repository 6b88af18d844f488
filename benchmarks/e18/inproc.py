"""In-process runs for E18: the traced run behind the per-layer table,
and the deterministic capture that feeds ``audit-batch``.

This is the only E18 module that imports ``repro``.  The service is
driven exactly as the socket front end drives it — decode each
submission from its wire JSON, ``await service.submit``, encode each
batch response as ``_Server._write`` does — over the same two closed-loop
lanes, but on one event loop with no I/O, so ticks, aborts and the
history digest repeat exactly for a given seed.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.normpath(os.path.join(_HERE, os.pardir, os.pardir, "src"))
for _path in (_HERE, _SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import loadgen  # noqa: E402
from spans import Recorder  # noqa: E402

from repro import cli  # noqa: E402
from repro.api import ProgramSpec, ResultEnvelope, Submission, make_scheduler
from repro.audit import classify
from repro.audit.history import History
from repro.core.nests import PathNest
from repro.durability import recover
from repro.engine.runtime import Engine
from repro.model.execution import Execution
from repro.service import AdmissionConfig, ServiceConfig
from repro.service import server as service_server
from repro.service.server import TransactionService
import repro.audit

CLOSURE_CALLS = ("observe", "hypothetical", "truncate", "drop", "mark_committed")
SCHEDULER_HOOKS = (
    "on_request", "after_performed", "may_commit", "on_commit", "on_abort",
    "on_rollback", "on_stall",
)


def lane_lines(seed: int, contention: float, count: int,
               lanes: int = loadgen.LANES) -> list[list[bytes]]:
    """Per lane, the request lines the socket client would send."""
    batch = loadgen.WINDOW // lanes
    lines = []
    for source, share in loadgen.lane_sources(seed, contention, count, lanes):
        subs = [next(source) for _ in range(share)]
        lines.append([
            loadgen.batch_line(subs[i:i + batch])
            for i in range(0, share, batch)
        ])
    return lines


def _install(recorder: Recorder, service: TransactionService) -> None:
    """Swap timing proxies in around the public callables of each layer."""
    swap = recorder.swap
    swap(ProgramSpec, "compile", "api.compile")
    swap(ResultEnvelope, "to_dict", "api.encode")
    swap(service, "submit", "service.self", coroutine=True)
    # The pump is the one private seam: it is where the service's own
    # work (ingest loop, commit resolution) runs between the engine calls.
    swap(service, "_pump", "service.self", coroutine=True)
    swap(service.admission, "check", "service.admission")
    engine = service.engine
    swap(engine, "add_program", "engine.add_program")
    swap(engine, "advance", "engine.advance")
    for hook in SCHEDULER_HOOKS:
        swap(engine.scheduler, hook, "engine.scheduler")
    window = getattr(engine.scheduler, "window", None)
    if window is not None:
        for call in CLOSURE_CALLS:
            swap(window, call, "engine.closure")
    if service.wal.enabled:
        swap(service.wal, "append", "durability.wal_append")
        swap(service.wal, "flush", "durability.wal_flush")
    if service.history.enabled:
        swap(service.history, "on_commit", "audit.capture")
    swap(service_server, "explain_abort", "obs.explain_abort")


async def _drive(service, lines, recorder) -> dict:
    span = recorder.span if recorder is not None else contextlib.nullcontext
    stats = {"request_bytes": 0, "response_bytes": 0, "responses": []}

    async def lane(requests: list[bytes]) -> None:
        for line in requests:
            with span("api.decode"):
                request = json.loads(line)
                subs = [Submission.from_dict(s) for s in request["submissions"]]
            responses = await asyncio.gather(
                *(service.submit(s) for s in subs)
            )
            with span("api.encode"):
                payload = json.dumps(
                    {"ok": True, "responses": list(responses)}, sort_keys=True
                ).encode() + b"\n"
            stats["request_bytes"] += len(line)
            stats["response_bytes"] += len(payload)
            stats["responses"].extend(responses)

    await asyncio.gather(*(lane(requests) for requests in lines))
    return stats


def run_service(scheduler, lines, recorder=None, wal_dir=None,
                history_path=None) -> tuple[TransactionService, dict]:
    """One in-process service run over ``lines``; traced when a recorder
    is given.  The caller closes ``service.wal`` / ``service.history``."""
    service = TransactionService(ServiceConfig(
        scheduler=scheduler,
        admission=AdmissionConfig(window=loadgen.WINDOW),
        wal_dir=wal_dir,
        history_path=history_path,
    ))
    if recorder is not None:
        _install(recorder, service)
    try:
        stats = asyncio.run(_drive(service, lines, recorder))
    finally:
        if recorder is not None:
            recorder.restore()
    return service, stats


def close_service(service) -> None:
    service.wal.sync()
    service.wal.close()
    service.history.close()


def library_replay_digest(service, lines) -> str:
    """The E15 differential: replay the submissions through the library
    path at the arrival ticks the service recorded."""
    specs = {}
    for requests in lines:
        for line in requests:
            for sub in json.loads(line)["submissions"]:
                spec = ProgramSpec.from_dict(sub["program"])
                specs[spec.name] = spec
    config = service.config
    nest = PathNest(config.nest_depth)
    initial: dict = {}
    for name in service.arrivals:  # ingest order
        nest.add(name, specs[name].path)
        for entity in sorted(specs[name].entities):
            initial.setdefault(entity, config.initial_value)
    engine = Engine(
        [specs[name].compile() for name in service.arrivals],
        initial,
        make_scheduler(config.scheduler, nest),
        seed=config.seed,
        arrivals=dict(service.arrivals),
        max_ticks=1 << 62,
    )
    return engine.run().history_digest()


def capture_history(seed: int, contention: float, commits: int, path: str) -> dict:
    """``audit-batch`` input: a history captured from a deterministic
    in-process ``mla-detect`` run.  Returns its digest and shape."""
    lines = lane_lines(seed, contention, commits)
    service, stats = run_service("mla-detect", lines, history_path=path)
    result = service.result()
    close_service(service)
    attempts = sum(r["envelope"]["attempts"] for r in stats["responses"])
    return {
        "sha256": result.history_digest(),
        "commits": len(result.commit_order),
        "steps": len(result.execution.records),
        "attempts": attempts,
    }


def traced_audit(path: str, recorder: Recorder) -> dict:
    """``repro audit PATH --json`` in this process under timing proxies."""
    swap = recorder.swap
    swap(repro.audit, "load_history", "audit.load")
    swap(History, "validate", "audit.validate")
    swap(repro.audit, "audit_history", "audit.audit_history")
    swap(classify, "check_correctability", "core.check_correctability")
    swap(classify, "spec_for_execution", "model.spec_for_execution")
    swap(Execution, "dependency_pairs", "model.dependency_pairs")
    sink = io.StringIO()
    try:
        with recorder.span("audit.command"), contextlib.redirect_stdout(sink):
            code = cli.main(["audit", path, "--json"])
    finally:
        recorder.restore()
    return {"exit": code, "report": json.loads(sink.getvalue())}


def traced_recover(wal_dir: str, recorder: Recorder):
    """``repro.durability.recover()`` on a directory a run left."""
    with recorder.span("durability.recover"):
        report = recover(wal_dir)
    report.wal.close()
    return report


def main(argv: list[str]) -> int:
    """``inproc.py capture SEED CONTENTION COMMITS PATH`` — the set-up
    step of ``audit-batch``, run as a child so it is timed and
    calibrated like any other program."""
    if len(argv) != 5 or argv[0] != "capture":
        print(main.__doc__, file=sys.stderr)
        return 2
    shape = capture_history(int(argv[1]), float(argv[2]), int(argv[3]), argv[4])
    json.dump(shape, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
