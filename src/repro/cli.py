"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``schedulers``
    List the available concurrency controls.
``run``
    Generate a banking / CAD / FGL workload, execute it under a chosen
    scheduler, and print the correctness classification plus metrics.
``sweep``
    Run one workload under every scheduler and print a comparison table.
``admission``
    Sample random interleavings of a workload and report admission rates
    by nest depth (experiment E2's measurement, on demand).
``walkthrough``
    Reproduce the paper's worked examples (Sections 4.2-5.2, 7).
``trace``
    Run a workload with the flight recorder on, print a per-tick event
    timeline and a "why did T abort" cause-chain explanation, and
    optionally dump the recording as JSONL.
``metrics``
    Run a workload with the metrics plane on and print the registry in
    Prometheus text exposition (or a JSON snapshot).
``spans``
    Record a run and export it as Chrome trace-event JSON — per-attempt
    causal spans with wait intervals, cascade flow links and network
    message spans — loadable in Perfetto / ``chrome://tracing``.
``top``
    Live dashboard: drive the run in simulated tick batches (or
    simulated-time slices with ``--distributed``) and redraw throughput,
    abort rate, latency percentiles, phase-time bars and per-node
    message counters after each batch.  ``--audit`` attaches the online
    correctability monitor and adds its row to the dashboard.
``audit``
    Import a portable history file (``repro run --history``, ``repro
    serve --history``, or an external system's export) and classify
    every transaction against multilevel atomicity, serializability and
    snapshot isolation, with witness-cycle explanations.  Exit codes are
    CI-friendly: 0 pass, 1 violation, 2 malformed input.
``serve`` / ``submit``
    Run the ingest server / send it programs or generated traffic.  A
    failure is one ``serve:`` / ``submit:`` line on stderr: exit 2 for
    bad input or configuration, 1 for a socket that cannot be bound or
    a server that cannot be reached.

Everything is seeded and deterministic; pass ``--seed`` to vary.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main"]

#: The names of :data:`repro.api.SCHEDULER_FACTORIES`, in its order
#: (``tests/test_cli.py`` pins the two equal): the parser's choices
#: import no engine.  Each ``cmd_*`` imports the layers it runs, and
#: only those.
SCHEDULERS = (
    "serial",
    "2pl",
    "timestamp",
    "mla-detect",
    "mla-prevent",
    "mla-nested-lock",
    "none",
)


def _build_workload(args):
    from repro.workloads import (
        BankingConfig,
        BankingWorkload,
        CADConfig,
        CADWorkload,
        FGLConfig,
        FGLWorkload,
    )

    if args.workload == "banking":
        return BankingWorkload(BankingConfig(
            families=args.families,
            transfers=args.transfers,
            bank_audits=1,
            creditor_audits=1,
            seed=args.workload_seed,
        ))
    if args.workload == "cad":
        return CADWorkload(CADConfig(
            modifications=args.transfers, seed=args.workload_seed
        ))
    if args.workload == "fgl":
        return FGLWorkload(FGLConfig(
            transfers=args.transfers, seed=args.workload_seed
        ))
    raise SystemExit(f"unknown workload {args.workload!r}")


def _classify(workload, result):
    from repro.analysis import classify_execution

    return classify_execution(
        result.execution,
        workload.nest,
        result.cut_levels,
    )


def _workload_initial(workload) -> dict:
    """The entity initial values a workload seeds its engine with."""
    values = getattr(workload, "accounts", None)
    if values is None:
        values = getattr(workload, "entities", {})
    return dict(values)


def _history_writer(workload, path: str, args):
    """A streaming JSONL capture sink for one ``repro run`` invocation."""
    from repro.audit import HistoryWriter, paths_from_nest

    depth, paths = paths_from_nest(
        workload.nest, sorted(workload.nest.items)
    )
    return HistoryWriter(
        path,
        initial=_workload_initial(workload),
        depth=depth,
        paths=paths,
        meta={
            "workload": args.workload,
            "scheduler": args.scheduler,
            "seed": args.seed,
        },
    )


def cmd_schedulers(args) -> int:
    for name in SCHEDULERS:
        print(name)
    return 0


def cmd_run(args) -> int:
    import json

    from repro.api import run_workload

    workload = _build_workload(args)
    writer = None
    engine_kwargs = {}
    if args.history:
        writer = _history_writer(workload, args.history, args)
        engine_kwargs["history"] = writer
    result = run_workload(
        workload, args.scheduler, seed=args.seed, **engine_kwargs
    )
    if writer is not None:
        writer.close()
    report = _classify(workload, result)
    if args.json:
        from repro.audit import HISTORY_FORMAT_VERSION

        payload = result.to_dict()
        payload["workload"] = args.workload
        payload["scheduler"] = args.scheduler
        payload["seed"] = args.seed
        payload["classification"] = {
            key: value for key, value in report.as_row().items()
        }
        payload["invariant_violations"] = workload.invariant_violations(
            result
        )
        if writer is not None:
            payload["history"] = {
                "path": writer.path,
                "format_version": HISTORY_FORMAT_VERSION,
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if report.multilevel_correctable or args.scheduler == "none" else 1
    print(f"workload: {args.workload}, scheduler: {args.scheduler}, "
          f"seed: {args.seed}")
    if writer is not None:
        print(f"history: {writer.path}")
    print(f"committed {result.metrics.commits} transactions in "
          f"{result.metrics.ticks} ticks "
          f"(aborts={result.metrics.aborts}, waits={result.metrics.waits})")
    for key, value in report.as_row().items():
        print(f"  {key:16s} {value}")
    violations = workload.invariant_violations(result)
    print(f"  invariants       {'ok' if not violations else violations}")
    return 0 if report.multilevel_correctable or args.scheduler == "none" else 1


def cmd_sweep(args) -> int:
    from repro.analysis import format_table
    from repro.api import run_workload

    workload = _build_workload(args)
    rows = []
    for name in SCHEDULERS:
        result = run_workload(workload, name, seed=args.seed)
        report = _classify(workload, result)
        violations = workload.invariant_violations(result)
        rows.append([
            name,
            result.metrics.ticks,
            result.metrics.aborts,
            result.metrics.waits,
            "yes" if report.multilevel_correctable else "NO",
            "ok" if not violations else f"{len(violations)} broken",
        ])
    print(format_table(
        ["scheduler", "ticks", "aborts", "waits", "correctable", "invariants"],
        rows,
    ))
    return 0


def cmd_audit(args) -> int:
    import json

    from repro.audit import audit_history, load_history
    from repro.errors import SpecificationError

    try:
        history = load_history(args.path)
        report = audit_history(history, conflicts=args.conflicts)
    except SpecificationError as exc:
        print(f"audit: {exc}", file=sys.stderr)
        return 2
    passed = report.passes(args.require)
    if args.json:
        payload = report.to_dict()
        payload["path"] = args.path
        payload["require"] = args.require
        payload["passed"] = passed
        payload["commits"] = len(history.commit_order)
        payload["steps"] = len(history.steps)
        payload["sha256"] = history.digest()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if passed else 1
    from repro.analysis import format_table

    nest_note = (
        "flat 2-nest (none declared)"
        if history.depth is None
        else f"declared {history.depth + 2}-nest"
    )
    print(f"history: {args.path}")
    print(f"  {len(history.commit_order)} commits, {len(history.steps)} "
          f"steps, {nest_note}, sha256={history.digest()[:12]}…")
    for criterion in ("multilevel", "serializable", "snapshot_isolation"):
        ok = report.passes(criterion)
        mark = "ok " if ok else "VIOLATED"
        line = f"  {criterion:20s} {mark}"
        if not ok:
            line += f"  ({', '.join(report.violating(criterion))})"
        print(line)
    rows = [
        [
            name,
            "yes" if verdict["multilevel"] else "NO",
            "yes" if verdict["serializable"] else "NO",
            "yes" if verdict["snapshot_isolation"] else "NO",
        ]
        for name, verdict in sorted(report.verdicts.items())
    ]
    print(format_table(
        ["transaction", "multilevel", "serializable", "snapshot-iso"], rows
    ))
    for axis, lines in sorted(report.witnesses.items()):
        for line in lines:
            print(f"  witness [{axis}]: {line}")
    return 0 if passed else 1


def cmd_admission(args) -> int:
    from repro.analysis import format_table
    from repro.workloads import admission_by_depth

    workload = _build_workload(args)
    db = workload.application_database()
    rows = [
        [depth, f"{atomic:.2f}", f"{correctable:.2f}"]
        for depth, atomic, correctable in admission_by_depth(
            db, samples=args.samples, seed=args.seed
        )
    ]
    print(format_table(["nest depth", "atomic", "correctable"], rows))
    return 0


def cmd_walkthrough(args) -> int:
    from examples import paper_walkthrough  # type: ignore

    paper_walkthrough.main()
    return 0


def cmd_trace(args) -> int:
    from repro.api import run_workload
    from repro.obs import (
        RingTracer,
        aborted_transactions,
        dump_jsonl,
        explain_abort,
        format_timeline,
    )

    workload = _build_workload(args)
    tracer = RingTracer(capacity=None)
    result = run_workload(
        workload, args.scheduler, seed=args.seed, tracer=tracer
    )
    events = tracer.events()
    metrics = result.metrics
    print(f"workload: {args.workload}, scheduler: {args.scheduler}, "
          f"seed: {args.seed}")
    print(f"recorded {len(events)} events over {metrics.ticks} ticks "
          f"(commits={metrics.commits}, aborts={metrics.aborts})")
    if args.out:
        written = dump_jsonl(events, args.out)
        print(f"wrote {written} events to {args.out}")
    print()
    for line in format_timeline(events, limit=args.limit):
        print(line)
    aborted = aborted_transactions(events)
    target = args.explain
    if target is None and aborted:
        target = aborted[0]
    if target is not None:
        print()
        explanation = explain_abort(events, target)
        if explanation:
            print(f"why did {target} abort?")
            for line in explanation:
                print(f"  {line}")
        else:
            print(f"no abort of {target!r} in the event stream")
    elif not aborted:
        print()
        print("no aborts in this run")
    return 0


#: ``--distributed`` maps these scheduler names to sequencer controls.
DISTRIBUTED_CONTROLS = ("none", "2pl", "mla-prevent")


def _build_distributed(args, workload, **kwargs):
    from repro.distributed.controller import (
        DistributedLockControl,
        DistributedPreventControl,
        DistributedRuntime,
        NoControl,
    )

    factories = {
        "none": lambda nest: NoControl(),
        "2pl": lambda nest: DistributedLockControl(),
        "mla-prevent": lambda nest: DistributedPreventControl(nest),
    }
    if args.scheduler not in factories:
        raise SystemExit(
            f"--distributed supports {sorted(factories)}, "
            f"not {args.scheduler!r}"
        )
    control = factories[args.scheduler](workload.nest)
    return DistributedRuntime(
        workload.programs,
        _workload_initial(workload),
        control,
        nodes=args.nodes,
        seed=args.seed,
        **kwargs,
    )


def cmd_metrics(args) -> int:
    import json

    from repro.api import make_scheduler
    from repro.obs import (
        MetricsRegistry,
        PhaseProfiler,
        json_snapshot,
        prometheus_text,
    )

    workload = _build_workload(args)
    registry = MetricsRegistry()
    profiler = PhaseProfiler()
    registry.derive("phases", profiler.publish)
    if args.distributed:
        owner = _build_distributed(args, workload, registry=registry)
    else:
        owner = workload.engine(
            make_scheduler(args.scheduler, workload.nest),
            seed=args.seed, registry=registry,
        )
    profiler.install(owner)
    owner.run()
    if args.format == "json":
        text = json.dumps(json_snapshot(registry), indent=2, sort_keys=True)
    else:
        text = prometheus_text(registry)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
        print(f"wrote {args.format} exposition to {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def cmd_spans(args) -> int:
    from repro.api import run_workload
    from repro.obs import RingTracer, chrome_trace, validate_trace, write_chrome_trace

    workload = _build_workload(args)
    tracer = RingTracer(capacity=None)
    if args.distributed:
        result = _build_distributed(args, workload, tracer=tracer).run()
        commits, aborts = result.commits, result.aborts
    else:
        result = run_workload(
            workload, args.scheduler, seed=args.seed, tracer=tracer
        )
        commits, aborts = result.metrics.commits, result.metrics.aborts
    events = tracer.events()
    validate_trace(chrome_trace(events))
    written = write_chrome_trace(events, args.out)
    print(f"workload: {args.workload}, scheduler: {args.scheduler}, "
          f"seed: {args.seed} (commits={commits}, aborts={aborts})")
    print(f"folded {len(events)} events into {written} trace events "
          f"in {args.out}")
    print("open with https://ui.perfetto.dev ('Open trace file') "
          "or chrome://tracing")
    return 0


def _bar(fraction: float, width: int = 24) -> str:
    filled = max(0, min(width, int(round(fraction * width))))
    return "#" * filled + "." * (width - filled)


def _phase_lines(profiler) -> list[str]:
    snapshot = profiler.snapshot()
    total = sum(stat["seconds"] for stat in snapshot.values())
    lines = ["phase time (exclusive):"]
    for name, stat in snapshot.items():
        share = stat["seconds"] / total if total else 0.0
        lines.append(
            f"  {name:9s} {_bar(share)} {stat['seconds'] * 1000.0:9.2f} ms"
            f"  ({int(stat['calls'])} calls)"
        )
    return lines


def _print_frame(lines: list[str], clear: bool) -> None:
    if clear:
        print("\x1b[2J\x1b[H", end="")
    for line in lines:
        print(line)
    if not clear:
        print("-" * 64)
    sys.stdout.flush()


def _engine_frame(args, engine, registry, profiler) -> list[str]:
    name = engine.scheduler.name
    commits = registry.value("repro_commits_total", scheduler=name) or 0
    aborts = registry.value("repro_aborts_total", scheduler=name) or 0
    waits = registry.value("repro_waits_total", scheduler=name) or 0
    steps = registry.value("repro_steps_total", scheduler=name) or 0
    tick = max(engine.tick, 1)
    attempts = commits + aborts
    lines = [
        f"repro top — workload={args.workload} scheduler={name} "
        f"tick={engine.tick}",
        f"commits={commits} aborts={aborts} waits={waits} steps={steps}  "
        f"throughput={commits / tick:.3f} commits/tick  "
        f"abort-rate={aborts / attempts if attempts else 0.0:.1%}",
    ]
    hist = registry.value("repro_commit_latency_ticks", scheduler=name)
    if hist is not None and hist.count:
        lines.append(
            f"commit latency (ticks): p50={hist.percentile(0.50)} "
            f"p95={hist.percentile(0.95)} p99={hist.percentile(0.99)} "
            f"max={hist.max}"
        )
    checked = registry.value("repro_audit_checked_commits_total")
    if checked is not None:
        violations = registry.value("repro_audit_violations_total") or 0
        verdict = "correctable" if not violations else "VIOLATED"
        lines.append(
            f"audit: checked={checked} violations={violations}  {verdict}"
        )
    lines.extend(_phase_lines(profiler))
    return lines


def _distributed_frame(args, runtime, profiler, now: float) -> list[str]:
    registry = runtime.registry
    control = runtime.control.name
    commits = registry.value("repro_seq_commits_total", control=control) or 0
    aborts = registry.value("repro_seq_aborts_total", control=control) or 0
    attempts = commits + aborts
    lines = [
        f"repro top — distributed control={control} nodes={args.nodes} "
        f"t={now:.1f}",
        f"commits={commits} aborts={aborts} "
        f"messages={runtime.network.messages_sent}  "
        f"abort-rate={aborts / attempts if attempts else 0.0:.1%}",
    ]
    for metric, title in (
        ("repro_net_deliveries_total", "deliveries"),
        ("repro_node_steps_performed_total", "steps"),
    ):
        family = registry.get(metric)
        if family is not None:
            parts = [
                f"{values[0]}={child.value}"
                for values, child in family.series()
            ]
            if parts:
                lines.append(f"per-node {title}: " + " ".join(parts))
    lines.extend(_phase_lines(profiler))
    return lines


def cmd_top(args) -> int:
    from repro.api import make_scheduler
    from repro.obs import MetricsRegistry, PhaseProfiler

    workload = _build_workload(args)
    registry = MetricsRegistry()
    profiler = PhaseProfiler()
    clear = sys.stdout.isatty() and not args.no_clear
    frames = 0
    if args.distributed:
        runtime = _build_distributed(args, workload, registry=registry)
        profiler.install(runtime)
        runtime.start()
        now = 0.0
        while not runtime.network.idle and frames < args.max_frames:
            now = runtime.pump(now + float(args.batch))
            frames += 1
            _print_frame(
                _distributed_frame(args, runtime, profiler, now), clear
            )
        if not runtime.network.idle:
            print(f"stopped after {frames} frames with work still queued "
                  f"(raise --max-frames or --batch)")
            return 1
        result = runtime.finish()
        print(f"quiesced at t={result.makespan:.1f} after {frames} frames: "
              f"commits={result.commits} aborts={result.aborts} "
              f"messages={result.messages}")
        return 0
    engine_kwargs = {}
    if getattr(args, "audit", False):
        from repro.audit import OnlineMonitor

        engine_kwargs["history"] = OnlineMonitor(
            workload.nest, registry=registry
        )
    engine = workload.engine(
        make_scheduler(args.scheduler, workload.nest),
        seed=args.seed, registry=registry, **engine_kwargs,
    )
    profiler.install(engine)
    budget = 0
    result = None
    while frames < args.max_frames:
        budget += args.batch
        result = engine.run(until_tick=budget)
        frames += 1
        _print_frame(_engine_frame(args, engine, registry, profiler), clear)
        if not result.partial:
            break
    if result is None or result.partial:
        print(f"stopped after {frames} frames with transactions still live "
              f"(raise --max-frames or --batch)")
        return 1
    metrics = result.metrics
    print(f"finished at tick {metrics.ticks} after {frames} frames: "
          f"commits={metrics.commits} aborts={metrics.aborts} "
          f"waits={metrics.waits}")
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.errors import RecoveryError, SpecificationError
    from repro.service import AdmissionConfig, ServiceConfig, serve

    async def _run(config: ServiceConfig) -> int:
        loop = asyncio.get_running_loop()
        ready: asyncio.Future = loop.create_future()
        task = asyncio.ensure_future(serve(config, ready=ready))
        # A service that cannot start fails its task before ``ready``.
        await asyncio.wait({ready, task}, return_when=asyncio.FIRST_COMPLETED)
        if not ready.done():
            return await task
        port = ready.result()
        print(f"serving on {config.host}:{port} "
              f"(scheduler={config.scheduler}, "
              f"window={config.admission.window}, "
              f"nest depth={config.nest_depth})")
        sys.stdout.flush()
        service = await task
        health = service.health()
        print(f"shut down at tick {health['tick']}: "
              f"committed={health['committed']} "
              f"admitted={health['admission']['admitted']}")
        return 0

    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            scheduler=args.scheduler,
            seed=args.seed,
            nest_depth=args.nest_depth,
            tick_batch=args.batch,
            admission=AdmissionConfig(window=args.window),
            wal_dir=args.wal,
            wal_snapshot_every=args.wal_snapshot_every,
            history_path=args.history,
        )
        return asyncio.run(_run(config))
    except KeyboardInterrupt:
        print("interrupted")
        return 130
    except (SpecificationError, RecoveryError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 1


def cmd_submit(args) -> int:
    from repro.errors import SpecificationError
    from repro.service.client import ServiceError

    try:
        return _submit(args)
    except SpecificationError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 2
    except (OSError, ServiceError) as exc:
        print(f"submit: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1


def _submit(args) -> int:
    import json

    from repro.api import ProgramSpec, Submission
    from repro.errors import SpecificationError
    from repro.service import ServiceClient

    if args.traffic:
        from repro.workloads import (
            TrafficConfig,
            drive_sync,
            traffic_submissions,
        )

        config = TrafficConfig(
            transactions=args.traffic,
            seed=args.seed,
            contention=args.contention,
            name_prefix=args.prefix,
        )
        stats = drive_sync(
            args.host, args.port, traffic_submissions(config),
            connections=args.connections, batch=args.batch,
        )
        envelopes = stats["envelopes"]
        done = sum(
            1 for e in envelopes if e["status"] in ("committed", "restarted")
        )
        print(f"submitted {len(envelopes)} transactions: committed={done} "
              f"retries={stats['retries']} gave_up={len(stats['gave_up'])}")
        return 0 if done == args.traffic else 1
    if not args.program:
        raise SpecificationError("needs --program JSON or --traffic N")
    text = args.program
    if text == "-":
        text = sys.stdin.read()
    elif text.startswith("@"):
        try:
            with open(text[1:], encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise SpecificationError(
                f"cannot read program {text[1:]!r}: {exc}"
            ) from exc
    spec = ProgramSpec.from_json(text)
    submission = Submission(
        program=spec, client_id=args.client, idempotency_key=args.key
    )
    with ServiceClient(args.host, args.port) as client:
        response = client.submit(submission)
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("ok") else 1


def _add_workload_arguments(parser) -> None:
    parser.add_argument(
        "--workload", choices=["banking", "cad", "fgl"], default="banking"
    )
    parser.add_argument("--families", type=int, default=3)
    parser.add_argument("--transfers", type=int, default=6)
    parser.add_argument("--workload-seed", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multilevel atomicity (Lynch, PODS 1982) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("schedulers").set_defaults(func=cmd_schedulers)

    run = sub.add_parser("run", help="run one workload under one scheduler")
    _add_workload_arguments(run)
    run.add_argument(
        "--scheduler", choices=sorted(SCHEDULERS), default="mla-detect"
    )
    run.add_argument(
        "--json", action="store_true",
        help="emit the EngineResult serialization instead of the table",
    )
    run.add_argument(
        "--history", default=None, metavar="PATH",
        help="stream the committed history to this JSONL file as it "
        "runs (auditable later with `repro audit`)",
    )
    run.set_defaults(func=cmd_run)

    audit = sub.add_parser(
        "audit", help="classify a portable history file (CI exit codes)"
    )
    audit.add_argument("path", help="history file (JSONL stream or JSON)")
    audit.add_argument(
        "--require", choices=["multilevel", "serializable",
                              "snapshot_isolation"],
        default="multilevel",
        help="criterion the history must meet for exit 0 "
        "(default multilevel)",
    )
    audit.add_argument(
        "--conflicts", choices=["rw", "all"], default="rw",
        help="conflict model for the graph-based axes (default rw: "
        "classical, reads commute)",
    )
    audit.add_argument(
        "--json", action="store_true",
        help="emit the full report as JSON",
    )
    audit.set_defaults(func=cmd_audit)

    sweep = sub.add_parser("sweep", help="compare every scheduler")
    _add_workload_arguments(sweep)
    sweep.set_defaults(func=cmd_sweep)

    admission = sub.add_parser(
        "admission", help="admission rates by nest depth"
    )
    _add_workload_arguments(admission)
    admission.add_argument("--samples", type=int, default=40)
    admission.set_defaults(func=cmd_admission)

    walkthrough = sub.add_parser(
        "walkthrough", help="reproduce the paper's worked examples"
    )
    walkthrough.set_defaults(func=cmd_walkthrough)

    trace = sub.add_parser(
        "trace", help="record a run and explain its aborts"
    )
    _add_workload_arguments(trace)
    trace.add_argument(
        "--scheduler", choices=sorted(SCHEDULERS), default="mla-detect"
    )
    trace.add_argument(
        "--out", default=None, help="write the recording to this JSONL file"
    )
    trace.add_argument(
        "--limit", type=int, default=80,
        help="timeline lines to print (tail; default 80)",
    )
    trace.add_argument(
        "--explain", default=None, metavar="TXN",
        help="explain this transaction's abort (default: first victim)",
    )
    trace.set_defaults(func=cmd_trace)

    def _add_obs_arguments(parser, default_scheduler="mla-detect") -> None:
        parser.add_argument(
            "--scheduler", choices=sorted(SCHEDULERS),
            default=default_scheduler,
        )
        parser.add_argument(
            "--distributed", action="store_true",
            help=f"run the distributed runtime instead "
                 f"(controls: {', '.join(sorted(DISTRIBUTED_CONTROLS))})",
        )
        parser.add_argument(
            "--nodes", type=int, default=3,
            help="data nodes for --distributed (default 3)",
        )

    metrics = sub.add_parser(
        "metrics", help="run once and print the metrics registry"
    )
    _add_workload_arguments(metrics)
    _add_obs_arguments(metrics)
    metrics.add_argument(
        "--format", choices=["prom", "json"], default="prom",
        help="Prometheus text exposition (default) or a JSON snapshot",
    )
    metrics.add_argument(
        "--out", default=None, help="write the exposition to this file"
    )
    metrics.set_defaults(func=cmd_metrics)

    spans = sub.add_parser(
        "spans", help="export a run as Chrome trace-event spans"
    )
    _add_workload_arguments(spans)
    _add_obs_arguments(spans)
    spans.add_argument(
        "--out", default="trace.json",
        help="Chrome trace-event JSON output path (default trace.json)",
    )
    spans.set_defaults(func=cmd_spans)

    top = sub.add_parser(
        "top", help="live dashboard over a simulated run"
    )
    _add_workload_arguments(top)
    _add_obs_arguments(top)
    top.add_argument(
        "--batch", type=int, default=64,
        help="simulated ticks (or time units with --distributed) per "
             "frame (default 64)",
    )
    top.add_argument(
        "--max-frames", type=int, default=200,
        help="stop after this many frames even if work remains",
    )
    top.add_argument(
        "--no-clear", action="store_true",
        help="never clear the screen; print frames sequentially",
    )
    top.add_argument(
        "--audit", action="store_true",
        help="attach the online correctability monitor and show its "
        "row in the dashboard",
    )
    top.set_defaults(func=cmd_top)

    serve = sub.add_parser(
        "serve", help="run the ingest server (stop with the shutdown op)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = pick an ephemeral port and print it)",
    )
    serve.add_argument(
        "--scheduler", choices=sorted(SCHEDULERS), default="2pl"
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--nest-depth", type=int, default=1,
        help="hierarchy path length all submissions must carry (default 1)",
    )
    serve.add_argument(
        "--window", type=int, default=32,
        help="admission window: max in-flight submissions (default 32; "
        "wider windows slow the tick engine down under contention)",
    )
    serve.add_argument(
        "--batch", type=int, default=256,
        help="engine ticks per pump slice (default 256)",
    )
    serve.add_argument(
        "--wal", default=None, metavar="DIR",
        help="durability directory: append a write-ahead log (+ periodic "
        "snapshots) there, and recover from it on restart",
    )
    serve.add_argument(
        "--wal-snapshot-every", type=int, default=0, metavar="TICKS",
        help="snapshot cadence in ticks (default 0 = never; recovery "
        "then replays the whole log)",
    )
    serve.add_argument(
        "--history", default=None, metavar="PATH",
        help="stream every commit to this JSONL history file "
        "(auditable later with `repro audit`)",
    )
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a program (or generated traffic) to a server"
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, required=True)
    submit.add_argument(
        "--program", default=None,
        help="ProgramSpec JSON (literal, @file, or - for stdin)",
    )
    submit.add_argument("--client", default="cli")
    submit.add_argument(
        "--key", default="",
        help="idempotency key (default: the program name)",
    )
    submit.add_argument(
        "--traffic", type=int, default=0, metavar="N",
        help="instead of one program, drive N generated transactions",
    )
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--contention", type=float, default=0.1)
    submit.add_argument("--prefix", default="s")
    submit.add_argument(
        "--connections", type=int, default=4,
        help="concurrent connections for --traffic (default 4)",
    )
    submit.add_argument(
        "--batch", type=int, default=32,
        help="submissions per submit_batch request (default 32)",
    )
    submit.set_defaults(func=cmd_submit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
