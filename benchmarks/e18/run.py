#!/usr/bin/env python3
"""E18 — the benchmark of the service path.

Two ways to run it (README.md has the full story):

``run.py --workload W --seed S --seconds T --trace 0|1``
    One run of one workload; the last stdout line is the result object
    (``BENCHMARK.json`` names the metrics).  ``--trace 0`` measures the
    real programs end to end; ``--trace 1`` makes the in-process traced
    run behind the per-layer table.

``run.py --seed S [--repeats R] [--quick]``
    The whole suite: every workload ``R`` times, repeats interleaved,
    then the traced runs; prints every metric with median, min, IQR and
    sample count and writes ``out/result-seed<S>.json`` for
    ``compare.py``.  Exits non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
import traceback
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import loadgen  # noqa: E402
import procs  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from loadgen import percentile  # noqa: E402

#: ``mla-detect`` wedges for good on some inputs (README, "A defect E18
#: found"; of generator seeds 0-15, seeds 2 and 6 wedge ``soak-mla-hot``),
#: and a benchmark's workloads must be ones on which no operation fails.
#: Until that is fixed the mla-detect workloads draw their input from
#: these generator seeds, each checked clean at every size E18 uses;
#: ``--seed`` selects among them.  Both workloads are exactly
#: deterministic (``soak-mla-hot`` because it sends over one lane), so a
#: stream that was clean once stays clean.
MLA_STREAMS = (0, 1, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15)

#: Sizes are for ``--seconds 10`` (about ten seconds of measured work on
#: the box E18 was defined on) and scale linearly with ``--seconds``.
#: They are counts, not deadlines, so every run does the same work; the
#: cost of recovery and of the batch audit grows faster than their input,
#: so those two scale the number of requests, not the input.
WORKLOADS = {
    "soak-2pl": {
        "kind": "service", "scheduler": "2pl", "contention": 0.02,
        "txns": 24000, "traced_txns": 6000,
    },
    "soak-mla-hot": {
        "kind": "service", "scheduler": "mla-detect", "contention": 0.15,
        "txns": 10000, "traced_txns": 3000, "streams": MLA_STREAMS,
        "lanes": 1,
    },
    "durable-2pl": {
        "kind": "service", "scheduler": "2pl", "contention": 0.02,
        "txns": 16000, "traced_txns": 4000, "durable": True,
    },
    "recover-2pl": {
        "kind": "recover", "scheduler": "2pl", "contention": 0.02,
        "log_txns": 3000, "requests": 5, "traced_txns": 2000,
    },
    "audit-batch": {
        "kind": "audit", "scheduler": "mla-detect", "contention": 0.3,
        "commits": 600, "requests": 2, "traced_txns": 600,
        "streams": MLA_STREAMS,
    },
}
SETUPS = 3  # servers spawned per service run; setup_s is their median
RESUBMITTED_KEYS = 16
RTT_SAMPLES = 2000


def load_spec() -> dict:
    with open(os.path.join(procs.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def stream_seed(config: dict, seed: int) -> int:
    """The generator seed a run uses: ``--seed`` itself, or one of the
    workload's vetted streams chosen by it."""
    streams = config.get("streams")
    return seed if streams is None else streams[seed % len(streams)]


def input_size(count: int, scale: float) -> int:
    """An input whose cost is superlinear: shrinks with ``--seconds``
    (``--quick``) but never grows past its declared size."""
    return max(loadgen.WINDOW, int(round(count * min(scale, 1.0))))


def traced_size(config: dict, scale: float) -> int:
    """Transactions in the traced run (reduced sizes: it runs twice)."""
    if config["kind"] == "service":
        return max(loadgen.WINDOW, int(round(config["traced_txns"] * scale)))
    return input_size(config["traced_txns"], scale)


def request_count(count: int, scale: float) -> int:
    return max(1, int(round(count * max(scale, 1.0))))


# ----------------------------------------------------------------------
# end-to-end runs (--trace 0)
# ----------------------------------------------------------------------


class Run:
    """One end-to-end run: the calibrator, the per-run directory, what
    was measured and what went wrong.

    Timings are recorded as raw ``perf_counter`` intervals while the run
    lasts; ``metric()`` registers how each becomes a calibrated value
    once the calibrator has been stopped and its samples are in."""

    def __init__(self, name: str, seed: int, scale: float) -> None:
        self.config = WORKLOADS[name]
        self.seed = stream_seed(self.config, seed)
        self.scale = scale
        self.directory = procs.make_run_dir()
        self.calibrator = Calibrator()
        self.failures: list[str] = []
        self.attempted = 0
        self.raw: dict[str, float] = {}
        self.info: dict[str, object] = {}
        self._metrics: dict = {}

    def path(self, leaf: str) -> str:
        return os.path.join(self.directory, leaf)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def metric(self, name: str, compute, raw=None) -> None:
        """``compute(window)`` gets ``Calibrator.window``; ``raw`` is the
        uncalibrated value, printed beside it."""
        self._metrics[name] = compute
        if raw is not None:
            self.raw[name] = raw

    def finish(self) -> dict:
        self.calibrator.stop()
        window = self.calibrator.window
        return {name: compute(window) for name, compute in self._metrics.items()}


def request_metrics(run: Run, units: int, spans, cpus) -> None:
    """Metrics of a workload whose requests are whole processes
    (``spans``: their ``(start, end)``; ``cpus``: their CPU seconds);
    ``units`` is the transactions one request covers."""
    seconds = [end - start for start, end in spans]

    def walls(window):
        return [window(start, end).wall() for start, end in spans]

    run.metric("throughput_txn_s",
               lambda w: units / median(walls(w)), units / median(seconds))
    run.metric("batch_latency_ms_p50",
               lambda w: 1e3 * percentile(walls(w), 0.50),
               1e3 * percentile(seconds, 0.50))
    run.metric("batch_latency_ms_p95",
               lambda w: 1e3 * percentile(walls(w), 0.95),
               1e3 * percentile(seconds, 0.95))
    run.metric(
        "server_cpu_us_per_txn",
        lambda w: 1e6 / units * median(
            w(start, end).cpu(cpu) for (start, end), cpu in zip(spans, cpus)),
        1e6 * median(cpus) / units,
    )


def run_service(run: Run) -> None:
    config = run.config
    kwargs = {}
    if config.get("durable"):
        kwargs = {"wal": run.path("wal"), "history": run.path("history.jsonl")}
    spans = []
    server = None
    for _ in range(SETUPS):
        if server is not None:
            server.kill()
            shutil.rmtree(run.path("wal"), ignore_errors=True)
        start = time.perf_counter()
        server = procs.Server(config["scheduler"], run.calibrator, **kwargs)
        spans.append((start, time.perf_counter()))
    run.metric(
        "setup_s",
        lambda w: median(w(start, end).wall() for start, end in spans),
        median(end - start for start, end in spans),
    )

    count = max(loadgen.WINDOW, int(round(config["txns"] * run.scale)))
    drive = loadgen.drive(server, run.seed, config["contention"], count,
                          config.get("lanes", loadgen.LANES))
    rss = server.rss_peak_mb()
    committed, failures = loadgen.check_envelopes(drive)
    run.failures.extend(failures[:20])
    run.attempted = len(drive["sent"])
    run.check(drive["gave_up"] == 0,
              f"{drive['gave_up']} submissions gave up under backpressure")
    latencies = drive["latencies_s"]
    if not latencies:
        raise RuntimeError(f"no request was answered: {failures[:1]}")
    start, end, cpu_s = drive["start"], drive["end"], drive["cpu_s"]
    p50, p95 = percentile(latencies, 0.50), percentile(latencies, 0.95)
    attempts = sum(e.get("attempts", 1) for e in drive["envelopes"].values())
    done = max(committed, 1)
    run.metric("throughput_txn_s",
               lambda w: committed / w(start, end).wall(),
               committed / (end - start))
    run.metric("batch_latency_ms_p50",
               lambda w: 1e3 * w(start, end).wall(p50), 1e3 * p50)
    run.metric("batch_latency_ms_p95",
               lambda w: 1e3 * w(start, end).wall(p95), 1e3 * p95)
    run.metric("server_cpu_us_per_txn",
               lambda w: 1e6 * w(start, end).cpu(cpu_s) / done,
               1e6 * cpu_s / done)
    run.metric("server_rss_mb_peak", lambda w: rss)
    run.metric("attempts_per_commit", lambda w: attempts / done)
    run.info.update({
        "committed": committed,
        "batches": len(latencies),
        "load_retries": drive["retries"],
        "abort_rate": attempts / done - 1.0,
    })
    if not config.get("durable"):
        server.kill()
        return
    health = server.health()
    wal_bytes = os.path.getsize(os.path.join(run.path("wal"), "engine.wal"))
    run.check(health["committed"] == committed,
              f"health.committed {health['committed']} != acked {committed}")
    server.shutdown()  # graceful, so the history gets its footer
    with open(run.path("history.jsonl"), "rb") as handle:
        footer = json.loads(handle.read().splitlines()[-1])
    run.check(
        footer.get("kind") == "footer" and footer.get("commits") == committed,
        f"history footer counts {footer.get('commits')!r} commits, "
        f"{committed} were acknowledged",
    )
    run.info["wal_bytes_per_txn"] = wal_bytes / done
    run.info["history_bytes_per_txn"] = (
        os.path.getsize(run.path("history.jsonl")) / done
    )


def run_recover(run: Run) -> None:
    """A request is a restart: a server is started on the log an earlier
    incarnation left when it was ``SIGKILL``ed right after its last
    acknowledgement (no ``drain``, so no final fsync)."""
    config = run.config
    wal = run.path("wal")
    start = time.perf_counter()
    builder = procs.Server(config["scheduler"], run.calibrator, wal=wal)
    drive = loadgen.drive(builder, run.seed, config["contention"],
                          input_size(config["log_txns"], run.scale))
    builder.kill()
    built = time.perf_counter()
    committed, failures = loadgen.check_envelopes(drive)
    run.failures.extend(failures[:20])
    attempts = sum(e.get("attempts", 1) for e in drive["envelopes"].values())
    done = max(committed, 1)
    run.metric("setup_s", lambda w: w(start, built).wall(), built - start)
    run.metric("attempts_per_commit", lambda w: attempts / done)

    spans, cpus, rss = [], [], 0.0
    for index in range(request_count(config["requests"], run.scale)):
        begin = time.perf_counter()
        server = procs.Server(config["scheduler"], run.calibrator, wal=wal)
        spans.append((begin, time.perf_counter()))
        cpus.append(server.cpu_s())
        rss = max(rss, server.rss_peak_mb())
        run.attempted += committed
        recovered = server.ready_health["committed"]
        if recovered != committed:
            run.failures.append(
                f"restart {index}: health.committed {recovered} != "
                f"acknowledged {committed}"
            )
        elif index == 0:
            run.failures.extend(check_duplicates(server, drive))
        server.kill()
    request_metrics(run, done, spans, cpus)
    run.metric("server_rss_mb_peak", lambda w: rss)
    run.info.update({
        "committed": committed,
        "restarts": len(spans),
        "recover_s": median(end - begin for begin, end in spans),
        "wal_bytes_per_txn":
            os.path.getsize(os.path.join(wal, "engine.wal")) / done,
    })


def check_duplicates(server: procs.Server, drive: dict) -> list[str]:
    """Resubmitted idempotency keys must come back ``duplicate`` with
    their original serial position — answered from the log."""
    failures = []
    resubmit = drive["sent"][:RESUBMITTED_KEYS]
    reply = server.control.request(
        {"op": "submit_batch", "submissions": resubmit}
    )
    responses = reply.get("responses", [])
    if len(responses) != len(resubmit):
        failures.append("resubmission lost responses")
    for sub, response in zip(resubmit, responses):
        name = sub["program"]["name"]
        original = drive["envelopes"][name]["serial_position"]
        position = response.get("envelope", {}).get("serial_position")
        if not response.get("duplicate") or position != original:
            failures.append(
                f"{name}: resubmission not answered from the log "
                f"(duplicate={response.get('duplicate')!r}, position "
                f"{position!r}, original {original!r})"
            )
    return failures


def run_audit(run: Run) -> None:
    """A request is one ``repro audit FILE --json`` process on a history
    captured from a deterministic in-process ``mla-detect`` run."""
    config = run.config
    history = run.path("history.jsonl")
    start = time.perf_counter()
    capture = procs.run_script(
        "inproc.py",
        ["capture", str(run.seed), str(config["contention"]),
         str(input_size(config["commits"], run.scale)), history],
        run.path("capture.json"), run.calibrator,
    )
    captured = time.perf_counter()
    if capture["exit"] != 0:
        raise RuntimeError(f"history capture exited with {capture['exit']}")
    with open(run.path("capture.json"), encoding="utf-8") as handle:
        shape = json.load(handle)
    commits = shape["commits"]
    run.metric("setup_s", lambda w: w(start, captured).wall(), captured - start)
    # An audit retries nothing: one pass per commit.
    run.metric("attempts_per_commit", lambda w: 1.0)

    spans, cpus, rss = [], [], 0.0
    for index in range(request_count(config["requests"], run.scale)):
        begin = time.perf_counter()
        result = procs.run_cli(["audit", history, "--json"],
                               run.path("audit.json"), run.calibrator)
        spans.append((begin, time.perf_counter()))
        cpus.append(result["cpu_s"])
        rss = max(rss, result["rss_mb"])
        run.attempted += commits
        try:
            with open(run.path("audit.json"), encoding="utf-8") as handle:
                report = json.load(handle)
        except ValueError:
            report = {}
        verdict = report.get("ok", {}).get("multilevel")
        same = report.get("sha256") == shape["sha256"]
        if result["exit"] != 0 or verdict is not True or not same:
            run.failures.append(
                f"audit {index}: exit {result['exit']}, multilevel "
                f"{verdict!r}, digest {'matches' if same else 'differs'}"
            )
    request_metrics(run, commits, spans, cpus)
    run.metric("server_rss_mb_peak", lambda w: rss)
    run.info.update({
        "committed": commits,
        "steps": shape["steps"],
        "audits": len(spans),
        "audit_s": median(end - begin for begin, end in spans),
    })


KINDS = {"service": run_service, "recover": run_recover, "audit": run_audit}


def end_to_end(name: str, seed: int, scale: float) -> dict:
    run = Run(name, seed, scale)
    try:
        KINDS[run.config["kind"]](run)
        metrics = run.finish()
    finally:
        run.calibrator.stop()
        procs.kill_all()
    if not run.failures:
        shutil.rmtree(run.directory, ignore_errors=True)
    return {
        "metrics": metrics,
        "raw": run.raw,
        "info": run.info,
        "attempted": run.attempted,
        "failures": run.failures,
    }


# ----------------------------------------------------------------------
# traced runs (--trace 1)
# ----------------------------------------------------------------------


def traced(name: str, seed: int, scale: float) -> dict:
    import tracedrun  # imports repro; end-to-end runs never do

    config = WORKLOADS[name]
    directory = procs.make_run_dir()
    calibrator = Calibrator()
    try:
        result = tracedrun.run(
            name, config, stream_seed(config, seed), traced_size(config, scale),
            directory, calibrator, RTT_SAMPLES,
        )
    finally:
        calibrator.stop()
        procs.kill_all()
    if not result["failures"]:
        shutil.rmtree(directory, ignore_errors=True)
    return result


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def declared(spec: dict, trace: int) -> dict:
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def print_run(spec: dict, name: str, trace: int, result: dict) -> None:
    units = declared(spec, trace)
    print(f"e18 {name} ({'traced, per layer' if trace else 'end to end'})")
    for metric in units:
        value = result["metrics"].get(metric, 0.0)
        raw = result.get("raw", {}).get(metric)
        note = f"   (uncalibrated {raw:.6g})" if raw is not None else ""
        print(f"  {metric:38s} {value:14.6g} {units[metric]['unit']}{note}")
    for key, value in sorted(result.get("info", {}).items()):
        print(f"  . {key} = {value}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    if WORKLOADS[name].get("durable") or WORKLOADS[name]["kind"] == "recover":
        print("  note: flush policy is the shipped one (buffer flush per pump "
              "slice, fsync on drain/shutdown); SIGKILL keeps the OS cache, "
              "so recover-2pl proves flush-before-ack, not power-loss safety")


def result_line(spec: dict, trace: int, result: dict) -> str:
    units = declared(spec, trace)
    undeclared = set(result["metrics"]) - set(units)
    missing = set() if trace else set(units) - set(result["metrics"])
    if undeclared or missing:
        raise RuntimeError(
            f"metrics out of step with BENCHMARK.json: missing "
            f"{sorted(missing)}, undeclared {sorted(undeclared)}"
        )
    return json.dumps({
        "correct": not result["failures"],
        "attempted": max(1, result["attempted"]),
        "failed": len(result["failures"]),
        "metrics": {
            # A layer a workload does not touch reports 0 for it.
            name: {"value": result["metrics"].get(name, 0.0),
                   "unit": units[name]["unit"]}
            for name in units
        },
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=18)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="suite at 1/10 size, 1 repeat, checks on")
    parser.add_argument("--out", default=None,
                        help="suite result file (default out/result-seed<S>.json)")
    args = parser.parse_args(argv)
    procs.require_program()
    # A terminated benchmark still reaps its children (finally: below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_spec()
    try:
        if args.workload is None:
            import suite

            return suite.run(
                args, list(WORKLOADS), spec, end_to_end, traced,
                lambda *rest: print_run(spec, *rest),
            )
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        runner = traced if args.trace else end_to_end
        result = runner(args.workload, args.seed, seconds / spec["run_seconds"])
        print_run(spec, args.workload, args.trace, result)
        print(result_line(spec, args.trace, result))
        return 0
    except KeyboardInterrupt:
        print("e18: interrupted", file=sys.stderr)
        return 130
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        procs.kill_all()


if __name__ == "__main__":
    sys.exit(main())
