"""The ingest server: submissions over a socket, batched engine ticks.

Architecture (DESIGN.md §4g)::

    client ──newline-JSON──▶ connection handler ──▶ admission gate
                                                      │ admitted
                                                      ▼
                                              asyncio ingest queue
                                                      │ batches
                                                      ▼
    envelope ◀── commit watcher ◀── Engine.advance(until_tick=...) pump

The service is *pure orchestration*: the engine it pumps is the exact
library engine, fed through :meth:`Engine.add_program` (equivalent, by
construction, to up-front ``arrivals=`` scheduling), and nothing in this
module consumes the engine's seeded rng.  A zero-fault run's committed
history is therefore bit-identical to the library path replaying the
same submissions at the recorded arrival ticks — the differential test
in tier 1 holds the service to that.

The socket protocol is one JSON object per line.  Ops: ``submit``,
``submit_batch``, ``health``, ``metrics``, ``admission``, ``profile``,
``drain``, ``shutdown``.  Responses echo the request's ``seq``
(responses to pipelined requests may interleave).  For convenience the same port also
speaks just enough HTTP for ``curl``: ``GET /metrics`` (Prometheus text
exposition) and ``GET /healthz``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from dataclasses import dataclass, field

from repro.api import ResultEnvelope, Submission, make_scheduler
from repro.audit.history import (
    HISTORY_FORMAT_VERSION,
    NULL_HISTORY,
    HistoryExport,
)
from repro.core.nests import KNest
from repro.durability.wal import NULL_WAL
from repro.engine.runtime import Engine, EngineResult
from repro.errors import ReproError, SpecificationError, load_json_object
from repro.obs import (
    AbortCauses,
    MetricsRegistry,
    PhaseProfiler,
    explain_abort,
    json_snapshot,
    prometheus_text,
)
from repro.service.admission import AdmissionConfig, AdmissionController

__all__ = ["ServiceConfig", "TransactionService", "serve"]


@dataclass(frozen=True)
class ServiceConfig:
    """Shape of one service instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is reported at start
    scheduler: str = "2pl"
    seed: int = 0
    nest_depth: int = 1
    #: Initial value given to entities on first reference.
    initial_value: int = 100
    #: Engine ticks per pump slice; between slices the event loop runs
    #: (new submissions are ingested, responses written).
    tick_batch: int = 256
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Directory for the durability WAL (+ snapshots).  ``None`` runs
    #: the service purely in memory; with a directory, a restarted
    #: service recovers its engine by deterministic replay and answers
    #: resubmitted idempotency keys from the log instead of re-running.
    wal_dir: str | None = None
    #: Checkpoint cadence in ticks (0 = never; recovery replays the
    #: whole log from genesis).  A checkpoint is taken after the first
    #: pump slice that ends this many ticks past the last one, so a
    #: restart replays about one cadence of the log.
    wal_snapshot_every: int = 4096
    #: Write the committed history to this JSONL file (the audit plane's
    #: portable format) at close, from the engine's commit records;
    #: ``None`` writes none.  The records a checkpoint covers are read
    #: back from the WAL directory's records file, with their nest paths,
    #: and a recovered engine reads the records of the run before the
    #: restart there too: a restarted service's file covers the whole
    #: run.
    history_path: str | None = None

    def __post_init__(self) -> None:
        # A zero batch would spin the pump without ever ticking.
        if self.tick_batch < 1:
            raise SpecificationError("tick_batch must be at least 1")
        if self.wal_snapshot_every < 0:
            raise SpecificationError("wal_snapshot_every must be at least 0")


class TransactionService:
    """The engine-owning core, independent of any transport.

    All state is touched only from the event loop thread: connection
    handlers enqueue admitted submissions and ``await`` their envelope
    futures; a single pump task drains the queue into the engine and
    advances it in tick batches, resolving futures as commits land.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.registry = MetricsRegistry()
        #: Installed on the engine only while a ``profile`` request is
        #: open (:meth:`profile`); ``/metrics`` reports what it timed.
        self.profiler = PhaseProfiler()
        #: Consumes the decision stream: keeps what explains each
        #: rollback until the victim's envelope is built.
        self.tracer = AbortCauses()
        self.wal = NULL_WAL
        #: idempotency key -> transaction name, for every admitted key
        #: (rebuilt from the log and the records file at recovery): a
        #: resubmission is answered from the engine, never re-executed.
        self._by_key: dict[str, str] = {}
        self._recovered = 0  # keys the log held at recovery
        #: The tick of the snapshot recovery restored, if it restored one.
        self._snapshot_tick: int | None = None
        #: How many commits, a prefix of the commit order, have been
        #: folded into replies.
        self._resolved = 0
        #: name -> abort causes of a restarted transaction, explained at
        #: its first envelope (the tracer releases the events it took);
        #: each checkpoint writes those of the commits it covers to the
        #: records file and drops them here.
        self._causes: dict[str, tuple[str, ...]] = {}
        #: Committed transactions a checkpoint covers whose nest entries
        #: the concurrency control still reads: retired from the nest at
        #: a later checkpoint, once it no longer does.
        self._retiring: list[str] = []
        self.duplicates = 0  # resubmitted keys answered from the first run
        self.pump_slices = 0
        #: Why ``advance`` raised; once set, every submission is refused.
        self.failure: str | None = None
        self.admission = AdmissionController(
            config.admission, config.nest_depth
        )
        self.nest, self.engine = self._boot(config)
        self.history = NULL_HISTORY
        if config.history_path is not None:
            self.history = HistoryExport(
                config.history_path,
                self.engine,
                path_of=self._path_of,
                initial={},
                depth=config.nest_depth,
                meta={
                    "service": True,
                    "scheduler": config.scheduler,
                    "seed": config.seed,
                    "initial_value": config.initial_value,
                },
            )
        self._queue: asyncio.Queue = asyncio.Queue()
        #: name -> the futures its submissions wait on, one per waiter
        #: (the first run and each in-flight duplicate of its key),
        #: until it commits.
        self._pending: dict[str, list[asyncio.Future]] = {}
        # Commits a recovery replayed past its snapshot are explained
        # now, as the pump would have explained them.
        self._resolve_commits()
        self._pump_task: asyncio.Task | None = None
        self.registry.derive("service", self._publish)
        self.registry.derive("phases", self.profiler.publish)
        if self.engine.active_count():
            # Recovery left admitted work: finish it without waiting for
            # a client.  Built outside a running loop, the service starts
            # its pump at the first drain or submission instead.
            with contextlib.suppress(RuntimeError):
                self._ensure_pump()

    def _boot(self, config: ServiceConfig):
        """Build the (nest, engine) pair — fresh, or recovered from the
        configured WAL directory when it already holds history."""
        if config.wal_dir is not None:
            from repro.durability.wal import EngineWal

            wal = EngineWal(
                config.wal_dir,
                snapshot_every=config.wal_snapshot_every,
            )
            if wal.log.payloads:
                return self._recover(config, wal)
            self.wal = wal
        nest = KNest(config.nest_depth)
        engine = Engine(
            [],
            {},
            make_scheduler(config.scheduler, nest),
            seed=config.seed,
            max_ticks=1 << 62,
            tracer=self.tracer,
            registry=self.registry,
            wal=self.wal,
        )
        if self.wal.enabled:
            self.wal.log_genesis(
                seed=config.seed,
                scheduler=config.scheduler,
                recovery=engine.recovery,
                backoff=engine.backoff,
                max_ticks=1 << 62,
                initial={},
                programs=[],
                specs={},
                meta={
                    "nest_depth": config.nest_depth,
                    "initial_value": config.initial_value,
                },
            )
        return nest, engine

    def _recover(self, config: ServiceConfig, wal):
        """Rebuild the engine by deterministic replay of the WAL left by
        a previous incarnation; every ingest is an ``add`` record, so
        the whole workload is reconstructible from the log alone."""
        from repro.durability import recover

        report = recover(
            config.wal_dir,
            wal=wal,
            tracer=self.tracer,
            registry=self.registry,
        )
        self.wal = report.wal
        # An ``add`` record is an admission; rejections, duplicates and
        # pump slices are not logged and restart at 0.
        self.admission.admitted = report.admitted
        self._by_key = report.keys
        self._recovered = len(self._by_key)
        self._snapshot_tick = report.snapshot_tick
        self._resolved = report.snapshot_commits
        # The snapshot's nest still places the covered commits its
        # concurrency control read when it was taken.
        self._retiring = [
            name for name in report.nest.items
            if (position := report.engine.position_of(name)) is not None
            and position < report.snapshot_commits
        ]
        return report.nest, report.engine

    def _publish(self, registry: MetricsRegistry) -> None:
        """Set the service's series from the counts it keeps; the
        registry calls this before every read."""
        outcomes = {**self.admission.counters(), "duplicate": self.duplicates}
        for outcome, count in outcomes.items():
            registry.put(
                "counter", "repro_service_submissions_total",
                "Submissions by admission outcome.", count, outcome=outcome,
            )
        registry.put(
            "gauge", "repro_service_in_flight",
            "Admitted submissions not yet resolved.", self._in_flight(),
        )
        registry.put(
            "counter", "repro_service_pump_batches_total",
            "Engine pump slices executed.", self.pump_slices,
        )

    # ------------------------------------------------------------------
    # submission path
    # ------------------------------------------------------------------

    async def submit(self, submission: Submission) -> dict:
        """Admit one submission and wait for its envelope.

        Returns the wire response dict: ``{"ok": true, "envelope": ...}``
        on success, or a rejection with ``retry_after`` when the
        in-flight window is full.
        """
        if self.failure is not None:
            return self._reply(self._failed(submission.program.name))
        key = submission.idempotency_key
        name = self._by_key.get(key)
        if name is not None:
            # Answered from the first run, or after a restart from the
            # replayed engine: committed work from the engine's record,
            # in-flight work by awaiting it — never re-executed.
            self.duplicates += 1
            position = self.engine.position_of(name)
            if position is not None:
                envelope = self._envelope_for(name, position)
            else:
                # Waiting beside the first run, or — logged before a
                # crash and not yet re-attached — resuming the replayed
                # transaction.
                future = asyncio.get_running_loop().create_future()
                self._pending.setdefault(name, []).append(future)
                self._ensure_pump()
                envelope = await future
            return self._reply(envelope, duplicate=True)
        decision = self.admission.check(
            submission,
            known_names=self,
            in_flight=self._in_flight(),
        )
        if not decision.admitted:
            rejected = ResultEnvelope(
                name=submission.program.name,
                status="rejected",
                abort_causes=(decision.reason,),
            )
            response = {
                "ok": False,
                "error": decision.reason,
                "rejection": decision.kind,
                "envelope": rejected.to_dict(),
            }
            if decision.retry_after is not None:
                response["retry_after"] = decision.retry_after
            return response
        name = submission.program.name
        future = asyncio.get_running_loop().create_future()
        self._pending[name] = [future]
        self._by_key[key] = name
        self._queue.put_nowait(submission)
        self._ensure_pump()
        return self._reply(await future)

    def _reply(self, envelope: ResultEnvelope, **extra) -> dict:
        """The reply carrying ``envelope`` (``rejected``: pump failed)."""
        if envelope.status == "rejected":
            return {"ok": False, "error": self.failure, "rejection": "failed",
                    "envelope": envelope.to_dict()}
        return {"ok": True, **extra, "envelope": envelope.to_dict()}

    def _failed(self, name: str) -> ResultEnvelope:
        return ResultEnvelope(name, "rejected", abort_causes=(self.failure,))

    def __contains__(self, name: str) -> bool:
        """Whether ``name`` was admitted: registered with the engine, or
        still waiting in the ingest queue."""
        return name in self.engine or name in self._pending

    def _in_flight(self) -> int:
        """Admitted work not yet committed: queued, or in the engine
        (which after a restart holds what the log admitted)."""
        return self.engine.active_count() + self._queue.qsize()

    def _ensure_pump(self) -> None:
        if self.failure is None and (
            self._pump_task is None or self._pump_task.done()
        ):
            self._pump_task = asyncio.get_running_loop().create_task(
                self._pump()
            )

    def _ingest(self, submission: Submission) -> None:
        """Move one admitted submission into the engine.  Declaring the
        entities and adding the program at ``tick + 1`` is exactly the
        up-front construction the library path replays."""
        spec = submission.program
        entities = sorted(spec.entities)
        initial_value = self.config.initial_value
        for entity in entities:
            self.engine.store.declare(entity, initial_value)
        self.nest.add(spec.name, spec.path)
        state = self.engine.add_program(spec.compile())
        if self.wal.enabled:
            self.wal.append({
                "t": "add",
                "name": spec.name,
                "arrival": state.arrival_tick,
                "key": submission.idempotency_key,
                "spec": spec.to_dict(),
                "entities": [(entity, initial_value) for entity in entities],
            })

    async def _pump(self) -> None:
        """Drain the queue into the engine and tick it until idle."""
        while True:
            try:
                submission = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                if not self.engine.active_count():
                    return  # idle; the next submit restarts the pump
                submission = None
            if submission is not None:
                self._ingest(submission)
                continue  # batch everything already queued before ticking
            try:
                self.engine.advance(
                    until_tick=self.engine.tick + self.config.tick_batch
                )
            except Exception as error:  # any raise leaves it mid-tick
                self._fail(error)
                return
            self.pump_slices += 1
            # The WAL reaches the OS before this slice's replies: an
            # acknowledged commit survives SIGKILL (fsync waits for
            # drain and shutdown; DESIGN §4h).
            self.wal.flush()
            self._resolve_commits()
            # Between slices every commit has been explained, so a
            # checkpoint here carries all the causes a resubmission of
            # its keys may ask for.
            if self.wal.enabled and self.wal.due(self.engine):
                self._checkpoint()
            # Yield so connection handlers can enqueue and respond.
            await asyncio.sleep(0)

    def _fail(self, error: Exception) -> None:
        """Stop the pump after ``advance`` raised; reject every waiter."""
        self.failure = f"engine failed: {type(error).__name__}: {error}"
        for name, futures in self._pending.items():
            envelope = self._failed(name)
            for future in futures:
                if not future.done():
                    future.set_result(envelope)
        self._pending.clear()

    def _checkpoint(self) -> str:
        """Checkpoint the engine and forget what the records file now
        holds: the engine drops the covered records
        (:meth:`EngineWal.snapshot`), the service their abort causes
        and the nest entries of those its concurrency control no longer
        reads.  Returns the snapshot's path."""
        engine = self.engine
        self._retiring.extend(engine.commit_order[self.wal.recorded:])
        retains = engine.scheduler.retains
        held = []
        for name in self._retiring:
            if retains(name):
                held.append(name)
            else:
                self.nest.discard(name)
        self._retiring = held
        path = self.wal.snapshot(engine, self.nest, self._causes)
        self._causes.clear()
        return path

    @property
    def arrivals(self) -> dict[str, int]:
        """name -> arrival tick of every transaction in the engine, in
        ingest order (the order keys were admitted), for the library
        replay differential."""
        engine = self.engine
        return {
            name: (
                engine.txns[name].arrival_tick
                if name in engine.txns
                else engine.commit_of(name).arrival_tick
            )
            for name in self._by_key.values()
            if name in engine
        }

    def _resolve_commits(self) -> None:
        start = self._resolved
        for position, name in enumerate(
            self.engine.commit_order[start:], start
        ):
            # Built even when no waiter is left (each was cancelled, or
            # recovery resumed the transaction before its key came
            # back): building it takes the transaction's causes out of
            # the tracer, and keeps them for a resubmission.
            envelope = self._envelope_for(name, position)
            for future in self._pending.pop(name, ()):
                if not future.done():
                    future.set_result(envelope)
        self._resolved = len(self.engine.commit_order)

    def _path_of(self, name: str) -> tuple:
        """``name``'s nest path: from the nest, or from the records file
        once a checkpoint has retired it from the nest."""
        if name in self.nest:
            return self.nest.path_of(name)
        return self.wal.records.nest_path(self.engine.position_of(name))

    def _envelope_for(self, name: str, position: int) -> ResultEnvelope:
        """``name``'s envelope, built from the engine: when it commits,
        and again for each resubmission of its key."""
        commit = self.engine.commit_of(name)
        causes = self._causes.get(name)
        if causes is None and position < self.wal.recorded:
            # Explained before the checkpoint that wrote them down.
            causes = self.wal.records.causes(position)
        if causes is None:
            # Taken whatever the outcome: the tracer holds nothing for a
            # transaction once its envelope has been built.
            events = self.tracer.take(name)
            causes = ()
            if commit.attempt > 0:
                causes = tuple(explain_abort(events, name))
                self._causes[name] = causes
        return ResultEnvelope(
            name=name,
            status="restarted" if commit.attempt > 0 else "committed",
            serial_position=position,
            arrival_tick=commit.arrival_tick,
            commit_tick=commit.commit_tick,
            latency_ticks=commit.latency,
            attempts=commit.attempt + 1,
            waits=commit.waits,
            result=commit.result,
            abort_causes=causes,
        )

    # ------------------------------------------------------------------
    # introspection ops
    # ------------------------------------------------------------------

    def health(self) -> dict:
        report = {
            "status": "serving" if self.failure is None else "failed",
            "scheduler": self.config.scheduler,
            "tick": self.engine.tick,
            "in_flight": self._in_flight(),
            "queued": self._queue.qsize(),
            "submitted": self.admission.admitted,
            "committed": len(self.engine.commit_order),
            "admission": self.admission.counters(),
        }
        if self.failure is not None:
            report["error"] = self.failure
        if self.wal.enabled:
            report["wal"] = {
                "directory": self.wal.directory,
                "offset": self.wal.log.tell(),
                "recovered": self._recovered,
                "snapshot_tick": self._snapshot_tick,
            }
        if self.history.enabled:
            report["history"] = {
                "path": self.history.path,
                "format_version": HISTORY_FORMAT_VERSION,
            }
        return report

    def metrics_text(self) -> str:
        return prometheus_text(self.registry)

    def admission_report(self, samples: int = 20, seed: int = 0) -> list[dict]:
        return self.admission.report_rows(
            self.config.initial_value, samples=samples, seed=seed
        )

    async def profile(self, seconds: float) -> dict:
        """Time the engine's phases for ``seconds`` of wall time and
        return each phase's seconds and calls over that window.  The
        profiler is installed only while this is open; a second open
        profile is refused."""
        profiler = self.profiler
        before = profiler.snapshot()
        profiler.install(self.engine)
        try:
            await asyncio.sleep(seconds)
        finally:
            profiler.uninstall()
        return {
            name: {key: stat[key] - before[name][key] for key in stat}
            for name, stat in profiler.snapshot().items()
        }

    async def drain(self) -> dict:
        """Wait until every admitted transaction has committed (or the
        pump failed) — whether a client waits on it or recovery resumed
        it.  With a WAL, the log is fsynced before replying — the drain
        ack promises the drained history survives a crash."""
        while self._in_flight() and self.failure is None:
            self._ensure_pump()
            await asyncio.sleep(0)
        self.wal.sync()
        return self.health()

    def result(self) -> EngineResult:
        """The engine's result so far (committed history + metrics)."""
        return self.engine.run(until_tick=self.engine.tick)


# ----------------------------------------------------------------------
# transport
# ----------------------------------------------------------------------

_HTTP_VERBS = (b"GET ", b"HEAD", b"POST")
_MAX_LINE = 4 * 1024 * 1024
#: The most samples one ``admission`` request may ask for.  The report
#: replays the workload once per sample inside the event loop, so the
#: cap bounds how long it holds every other connection (about a second
#: on a 40-transaction ``2pl`` service).
_MAX_SAMPLES = 500


async def _next_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next line (``b""`` at EOF), or ``None`` for one longer than
    ``_MAX_LINE`` — which ``readline`` reports as a ``ValueError``."""
    try:
        return await reader.readline()
    except ValueError:
        return None


def _int_field(request: dict, key: str, default: int) -> int:
    value = request.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecificationError(f"{key} must be an integer")
    return value


def _samples_field(request: dict) -> int:
    samples = _int_field(request, "samples", 20)
    if not 1 <= samples <= _MAX_SAMPLES:
        raise SpecificationError(
            f"samples must be an integer in [1, {_MAX_SAMPLES}]"
        )
    return samples


def _seconds_field(request: dict) -> float:
    seconds = request.get("seconds")
    if (
        isinstance(seconds, bool)
        or not isinstance(seconds, (int, float))
        or not 0 < seconds <= 60
    ):
        raise SpecificationError("seconds must be a number in (0, 60]")
    return float(seconds)


class _Server:
    """Socket front end: newline-JSON with just-enough-HTTP sniffing."""

    def __init__(self, service: TransactionService) -> None:
        self.service = service
        self._server: asyncio.Server | None = None
        self._shutdown = asyncio.Event()
        self._conn_tasks: set[asyncio.Task] = set()

    @property
    def port(self) -> int:
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        config = self.service.config
        self._server = await asyncio.start_server(
            self._handle, config.host, config.port, limit=_MAX_LINE
        )

    async def serve_until_shutdown(self) -> None:
        assert self._server is not None
        await self._shutdown.wait()
        self._server.close()
        await self._server.wait_closed()
        # Let in-flight handlers finish their responses before the loop
        # is torn down (cancelling them mid-close is noisy).
        if self._conn_tasks:
            await asyncio.wait(self._conn_tasks, timeout=1.0)
        await self.service.drain()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            first = await _next_line(reader)
            if first == b"":
                return
            if first is not None and first[:4] in _HTTP_VERBS:
                await self._handle_http(first, reader, writer)
                return
            await self._handle_jsonl(first, reader, writer)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            # close() without awaiting the handshake: a peer that never
            # reads again would otherwise pin this task until teardown.
            writer.close()

    # -- newline-JSON ---------------------------------------------------

    async def _handle_jsonl(self, first, reader, writer) -> None:
        lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        line = first
        while line:
            stripped = line.strip()
            if stripped:
                task = asyncio.ensure_future(
                    self._answer(stripped, writer, lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            line = await _next_line(reader)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if line is None:
            # No framing survives an over-long line: refuse it, then
            # close the connection.
            await self._write(writer, lock, {
                "ok": False,
                "error": f"bad request: line longer than {_MAX_LINE} bytes",
            })

    async def _answer(self, raw: bytes, writer, lock) -> None:
        try:
            request = load_json_object(raw, "request")
        except SpecificationError as exc:
            response: dict = {"ok": False, "error": f"bad request: {exc}"}
            await self._write(writer, lock, response)
            return
        response = await self._dispatch(request)
        if request.get("seq") is not None:
            response["seq"] = request["seq"]
        await self._write(writer, lock, response)

    async def _write(self, writer, lock, response: dict) -> None:
        payload = json.dumps(response, sort_keys=True).encode() + b"\n"
        async with lock:
            writer.write(payload)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        service = self.service
        try:
            if op == "submit":
                submission = Submission.from_dict(
                    request.get("submission", {})
                )
                return await service.submit(submission)
            if op == "submit_batch":
                raw = request.get("submissions", [])
                if not isinstance(raw, list):
                    return {"ok": False,
                            "error": "submissions must be a list"}
                submissions = [Submission.from_dict(s) for s in raw]
                responses = await asyncio.gather(
                    *(service.submit(s) for s in submissions)
                )
                return {"ok": True, "responses": list(responses)}
            if op == "health":
                return {"ok": True, **service.health()}
            if op == "metrics":
                if request.get("format") == "json":
                    return {
                        "ok": True,
                        "snapshot": json_snapshot(service.registry),
                    }
                return {"ok": True, "text": service.metrics_text()}
            if op == "admission":
                return {
                    "ok": True,
                    "rows": service.admission_report(
                        samples=_samples_field(request),
                        seed=_int_field(request, "seed", 0),
                    ),
                }
            if op == "profile":
                phases = await service.profile(_seconds_field(request))
                return {"ok": True, "phases": phases}
            if op == "drain":
                return {"ok": True, **(await service.drain())}
            if op == "shutdown":
                await service.drain()
                self._shutdown.set()
                return {"ok": True, **service.health(),
                        "status": "shutting down"}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except ReproError as exc:
            return {"ok": False, "error": str(exc)}

    # -- just-enough HTTP ----------------------------------------------

    async def _handle_http(self, first: bytes, reader, writer) -> None:
        parts = first.decode("latin-1").split()
        path = parts[1] if len(parts) >= 2 else "/"
        while True:  # drain headers
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
        if path.startswith("/metrics"):
            status, ctype, body = (
                "200 OK",
                "text/plain; version=0.0.4",
                self.service.metrics_text(),
            )
        elif path.startswith("/healthz"):
            status, ctype, body = (
                "200 OK",
                "application/json",
                json.dumps(self.service.health(), sort_keys=True) + "\n",
            )
        else:
            status, ctype, body = "404 Not Found", "text/plain", "not found\n"
        blob = body.encode()
        writer.write(
            (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(blob)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode()
            + blob
        )
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def serve(
    config: ServiceConfig,
    *,
    ready: "asyncio.Future | None" = None,
) -> TransactionService:
    """Run a service until a client sends ``{"op": "shutdown"}``.

    ``ready``, when given, receives the bound port once the socket is
    listening (the CLI prints it; tests race-free-wait on it).  Returns
    the drained service so callers can audit its engine.
    """
    service = TransactionService(config)
    server = _Server(service)
    await server.start()
    if ready is not None and not ready.done():
        ready.set_result(server.port)
    await server.serve_until_shutdown()
    service.wal.sync()
    service.wal.close()
    service.history.close()
    return service
