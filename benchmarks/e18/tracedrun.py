"""The traced run: per-layer metrics for one workload.

Runs in the benchmark process.  Service workloads are driven in-process
twice over the same input — untraced, then with timing proxies swapped
in (``spans.py``) — so the overhead of tracing is itself measured, and
because the in-process path is deterministic the two runs must produce
the same history digest, which must also equal a library replay at the
recorded arrival ticks (the E15 differential).
"""

from __future__ import annotations

import os
import time

import inproc
import loadgen
import procs
from loadgen import percentile
from spans import Recorder

SERVICE_SPANS = (
    "api.decode", "api.compile", "api.encode", "service.admission",
    "service.self", "engine.add_program", "engine.advance",
    "engine.scheduler", "engine.closure", "durability.wal_append",
    "durability.wal_flush", "audit.capture", "obs.explain_abort",
)
PHASES = ("schedule", "closure", "rollback", "certify")
MAX_UNATTRIBUTED_PCT = 10.0


def run(name, config, seed, txns, directory, calibrator, rtt_samples) -> dict:
    kind = {"service": _service, "recover": _recover, "audit": _audit}
    state = _State(config, seed, txns, directory, calibrator)
    kind[config["kind"]](state)
    if config["kind"] == "service":
        _round_trip(state, rtt_samples)
    calibrator.stop()
    metrics = {key: compute(calibrator.window)
               for key, compute in state.metrics.items()}
    if config["kind"] == "service":
        unattributed = metrics["trace.unattributed_pct"]
        if unattributed > MAX_UNATTRIBUTED_PCT:
            state.failures.append(
                f"spans leave {unattributed:.1f} % of the traced wall "
                f"unattributed (limit {MAX_UNATTRIBUTED_PCT} %)"
            )
    if state.recorder is not None:
        out = os.path.join(procs.OUT, f"trace-{name}.json")
        state.recorder.dump(out, {"workload": name, "seed": seed})
        state.info["trace_file"] = os.path.relpath(out, procs.ROOT)
    return {
        "metrics": metrics,
        "info": state.info,
        "attempted": state.attempted,
        "failures": state.failures,
    }


class _State:
    def __init__(self, config, seed, txns, directory, calibrator):
        self.config = config
        self.seed = seed
        self.txns = txns
        self.directory = directory
        self.calibrator = calibrator
        #: metric name -> callable(window function) -> value
        self.metrics: dict = {}
        self.info: dict = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.recorder: Recorder | None = None

    def path(self, leaf: str) -> str:
        return os.path.join(self.directory, leaf)

    def constant(self, name: str, value: float) -> None:
        self.metrics[name] = lambda window: value

    def span_metrics(self, totals, names, start, end, txns, as_ms=False):
        """``<span>.us_per_txn`` / ``.calls_per_txn`` (or ``<span>_ms``)
        from self times, calibrated over the traced run's window."""
        for span in names:
            row = totals.get(span, {"calls": 0, "self_seconds": 0.0})
            seconds = row["self_seconds"]
            if as_ms:
                self.metrics[f"{span}_ms"] = (
                    lambda window, s=seconds: 1e3 * window(start, end).wall(s)
                )
                continue
            self.metrics[f"{span}.us_per_txn"] = (
                lambda window, s=seconds:
                1e6 * window(start, end).wall(s) / txns
            )
            self.constant(f"{span}.calls_per_txn", row["calls"] / txns)


def _timed(call):
    start = time.perf_counter()
    value = call()
    return value, start, time.perf_counter()


def _service(state: _State) -> None:
    config, txns = state.config, state.txns
    durable = bool(config.get("durable"))
    lines = inproc.lane_lines(state.seed, config["contention"], txns,
                              config.get("lanes", loadgen.LANES))

    def one(tag, recorder):
        kwargs = {}
        if durable:
            kwargs = {"wal_dir": state.path(f"wal-{tag}"),
                      "history_path": state.path(f"history-{tag}.jsonl")}
        (service, stats), start, end = _timed(
            lambda: inproc.run_service(
                config["scheduler"], lines, recorder=recorder, **kwargs)
        )
        result = service.result()
        inproc.close_service(service)
        return service, stats, result, start, end

    _, _, plain_result, plain_start, plain_end = one("plain", None)
    state.recorder = recorder = Recorder()
    service, stats, result, start, end = one("traced", recorder)

    digest = result.history_digest()
    state.attempted = txns
    committed = len(result.commit_order)
    if committed != txns:
        state.failures.append(f"{committed} of {txns} submissions committed")
    if any(not response.get("ok") for response in stats["responses"]):
        state.failures.append("a submission was refused in the traced run")
    if digest != plain_result.history_digest():
        state.failures.append(
            "traced and untraced in-process runs differ: counts do not repeat"
        )
    if digest != inproc.library_replay_digest(service, lines):
        state.failures.append(
            "service history differs from the library replay (E15 differential)"
        )

    totals = recorder.totals()
    state.span_metrics(totals, SERVICE_SPANS, start, end, txns)
    raw_wall = end - start
    covered = recorder.covered_seconds()
    state.constant("trace.unattributed_pct",
                   100.0 * (raw_wall - covered) / raw_wall)
    state.metrics["trace.overhead_pct"] = lambda window: 100.0 * (
        window(start, end).wall()
        / window(plain_start, plain_end).wall() - 1.0
    )
    phases = service.profiler.snapshot()
    for phase in PHASES:
        state.metrics[f"profiler.{phase}.us_per_txn"] = (
            lambda window, s=phases[phase]["seconds"]:
            1e6 * window(start, end).wall(s) / txns
        )

    engine = service.engine.metrics
    envelopes = [r["envelope"] for r in stats["responses"]]
    tracer = service.tracer
    for name, value in {
        "api.request_bytes_per_txn": stats["request_bytes"] / txns,
        "api.response_bytes_per_txn": stats["response_bytes"] / txns,
        "service.load_rejects_per_txn": service.admission.rejected_load / txns,
        "engine.ticks_per_txn": engine.ticks / txns,
        "engine.steps_per_txn": engine.steps_performed / txns,
        "engine.waits_per_txn": engine.waits / txns,
        "engine.aborts_per_txn": engine.aborts / txns,
        "engine.useful_step_ratio":
            len(result.execution.records) / max(engine.steps_performed, 1),
        "engine.latency_ticks_p99":
            percentile([e["latency_ticks"] for e in envelopes], 0.99),
        "obs.tracer_events_per_txn":
            (len(tracer.events()) + tracer.dropped) / txns,
        "obs.tracer_dropped_per_txn": tracer.dropped / txns,
    }.items():
        state.constant(name, value)
    state.info.update({
        "txns": txns, "history_sha256": digest,
        "aborts": engine.aborts, "ticks": engine.ticks,
    })
    if durable:
        wal_dir = state.path("wal-traced")
        state.constant(
            "durability.wal_bytes_per_txn",
            os.path.getsize(os.path.join(wal_dir, "engine.wal")) / txns,
        )
        state.constant(
            "audit.history_bytes_per_txn",
            os.path.getsize(state.path("history-traced.jsonl")) / txns,
        )
        _traced_recover(state, wal_dir, txns)


def _traced_recover(state: _State, wal_dir: str, txns: int) -> None:
    if state.recorder is None:
        state.recorder = Recorder()
    report, start, end = _timed(
        lambda: inproc.traced_recover(wal_dir, state.recorder)
    )
    replayed = len(report.engine.commit_order)
    if replayed != txns:
        state.failures.append(
            f"recover() replayed {replayed} commits, the log holds {txns}"
        )
    seconds = end - start
    state.metrics["durability.recover.us_per_txn"] = (
        lambda window: 1e6 * window(start, end).wall(seconds) / txns
    )
    state.constant("durability.recover_records_per_txn", report.records / txns)


def _recover(state: _State) -> None:
    config, txns = state.config, state.txns
    lines = inproc.lane_lines(state.seed, config["contention"], txns)
    wal_dir = state.path("wal")
    service, _ = inproc.run_service(config["scheduler"], lines, wal_dir=wal_dir)
    inproc.close_service(service)
    state.attempted = txns
    state.constant(
        "durability.wal_bytes_per_txn",
        os.path.getsize(os.path.join(wal_dir, "engine.wal")) / txns,
    )
    _traced_recover(state, wal_dir, txns)
    state.info["txns"] = txns


AUDIT_SPANS = (
    "audit.load", "audit.validate", "audit.audit_history",
    "core.check_correctability", "model.dependency_pairs",
    "model.spec_for_execution",
)


def _audit(state: _State) -> None:
    config, commits = state.config, state.txns
    path = state.path("history.jsonl")
    shape = inproc.capture_history(
        state.seed, config["contention"], commits, path
    )
    state.recorder = recorder = Recorder()
    outcome, start, end = _timed(lambda: inproc.traced_audit(path, recorder))
    report = outcome["report"]
    state.attempted = shape["commits"]
    if (outcome["exit"] != 0 or report["ok"].get("multilevel") is not True
            or report["sha256"] != shape["sha256"]):
        state.failures.append(
            f"in-process audit: exit {outcome['exit']}, verdict "
            f"{report['ok']}, digest "
            f"{'matches' if report['sha256'] == shape['sha256'] else 'differs'}"
        )
    totals = recorder.totals()
    state.span_metrics(totals, AUDIT_SPANS, start, end, commits, as_ms=True)
    other = totals["audit.command"]["self_seconds"]
    whole = totals["audit.command"]["seconds"]
    state.metrics["audit.other_ms"] = (
        lambda window: 1e3 * window(start, end).wall(other)
    )
    state.constant("trace.unattributed_pct", 100.0 * other / whole)
    state.constant("core.closure_steps", report["steps"])
    state.constant("audit.history_bytes_per_txn",
                   os.path.getsize(path) / shape["commits"])
    state.info.update({"commits": shape["commits"], "steps": report["steps"],
                       "history_sha256": shape["sha256"]})


def _round_trip(state: _State, samples: int) -> None:
    """``service.rtt_us``: median ``health`` round trip on an idle socket
    server — the transport floor under every batch latency."""
    server = procs.Server(state.config["scheduler"], state.calibrator)
    try:
        request = b'{"op": "health"}\n'
        times = []
        begin = time.perf_counter()
        for _ in range(samples):
            start = time.perf_counter()
            server.control.send(request)
            server.control.recv_line()
            times.append(time.perf_counter() - start)
        end = time.perf_counter()
    finally:
        server.kill()
    middle = percentile(times, 0.50)
    state.metrics["service.rtt_us"] = (
        lambda window: 1e6 * window(begin, end).wall(middle)
    )
