"""Data nodes: processors owning a slice of the entities.

A node parks migrating transactions that arrive for one of its entities,
asks the sequencer for permission, performs granted steps on its local
store, and reports each performed step (shipping the transaction state
onward through the sequencer, which routes it to the next owner).  A
grant names the grant on its entity it must perform behind, so each
entity's steps perform in the order the sequencer granted them.

Under a fault plan (``network.reliable``) the node speaks an
at-least-once protocol: every performed-report carries a per-node
sequence number (``psn``) and is retransmitted with capped exponential
backoff until the sequencer acknowledges it; grant/deny/discard/undo
handlers are idempotent behind dedup state; and a crash wipes volatile
state (parked transactions, timers, retransmit chains) while the entity
store and the write-ahead log — unacknowledged performed-reports plus
applied-undo ids — survive to be replayed on recovery.

With ``wal_path`` the log is real: each performed-report, its ack, and
each applied undo is appended to a framed, checksummed on-disk log (the
same record format as the engine WAL in :mod:`repro.durability.wal`).
A node reconstructed over an existing file replays the intact prefix —
a torn or corrupt tail record is truncated, exactly the engine's
torn-tail rule — and rebuilds ``psn``, the unacknowledged performed
tail (re-deriving each in-flight transaction from its program plus
logged access results), and the undo dedup set.
"""

from __future__ import annotations

from repro.distributed.migration import MigratingTransaction
from repro.distributed.network import Message, Network
from repro.errors import NetworkError
from repro.model.programs import TransactionProgram
from repro.model.steps import StepId, StepKind, StepRecord
from repro.model.variables import EntityStore
from repro.obs.registry import MetricsRegistry

__all__ = ["DataNode"]

#: How long a denied transaction waits before asking again.
RETRY_DELAY = 2.0
#: The first retransmit interval of an unacknowledged message; each
#: retransmit doubles it, up to eight times this.
REXMIT_DELAY = 4.0


class DataNode:
    """One processor: local entities plus home transactions."""

    def __init__(
        self,
        name: str,
        network: Network,
        sequencer: str,
        entities: dict[str, object],
        home_programs: dict[str, TransactionProgram],
        entity_owner: dict[str, str],
        registry: MetricsRegistry | None = None,
        wal_path: str | None = None,
        catalog: dict[str, TransactionProgram] | None = None,
    ) -> None:
        self.name = name
        self.network = network
        self.sequencer = sequencer
        if registry is not None:
            registry.derive(("node", name), self._publish)
        self.parks = 0
        self.performs = 0
        self.undos = 0
        self.store = EntityStore(dict(entities))
        self.home_programs = dict(home_programs)
        # The placement catalog: every processor knows which node owns
        # which entity (how [RSL] transactions know where to migrate).
        self.entity_owner = dict(entity_owner)
        self.rexmit_cap = REXMIT_DELAY * 8
        self.reliable = network.reliable
        # Keyed by (name, attempt): under at-least-once delivery a stale
        # ghost of an old attempt may transiently coexist with the live
        # one, and the two must never collide in the parking lot.
        self.parked: dict[tuple[str, int], MigratingTransaction] = {}
        # --- volatile reliability state (lost on crash) ---
        self._req_epoch: dict[tuple[str, int], int] = {}
        self._migrate_seen: set[tuple[str, int, int]] = set()
        self._launched: set[tuple[str, int]] = set()
        self._route_unacked: dict[str, dict] = {}
        self._recover_pending: str | None = None
        self._uid_n = 0
        # Per local entity, the last grant performed on it, and grants
        # that arrived before the grant they must perform behind (keyed
        # by that grant): the sequencer's issue order, restored.
        self._last_grant: dict[str, tuple[str, int, int]] = {}
        self._held: dict[tuple[str, int, int], dict] = {}
        # --- durable state (survives crashes: the write-ahead log) ---
        self._psn = 0
        self._performed_unacked: dict[str, dict] = {}
        self._undo_applied: set[str] = set()
        self._crash_epoch = 0
        # The program catalog for WAL replay: a performed-report may
        # belong to a transaction homed on another node, so replay needs
        # every program, not just the home set.
        self._catalog = dict(catalog) if catalog else dict(home_programs)
        self._wal = None
        if wal_path is not None:
            from repro.durability.wal import LogFile, encode_record

            self._encode = encode_record
            self._wal = LogFile(wal_path)
            self._replay_wal()
        network.register(name, self.handle)
        network.register_crash_hooks(
            name, self._on_crash_event, self._on_recover_event
        )

    # ------------------------------------------------------------------

    def _publish(self, registry: MetricsRegistry) -> None:
        """Set this node's ``node=`` series from the counts above; the
        registry calls this before every read."""
        for series, help, value in (
            ("repro_node_parks_total",
             "Transactions parked awaiting a sequencer grant.", self.parks),
            ("repro_node_steps_performed_total",
             "Steps performed against the local entity store.",
             self.performs),
            ("repro_node_undos_total",
             "Before-images restored by sequencer-driven undo.", self.undos),
        ):
            registry.put("counter", series, help, value, node=self.name)

    def handle(self, message: Message) -> None:
        handler = getattr(self, f"_on_{message.kind.replace('-', '_')}", None)
        if handler is None:
            raise NetworkError(
                f"node {self.name!r} cannot handle {message.kind!r}"
            )
        handler(message.payload)

    def _uid(self) -> str:
        self._uid_n += 1
        return f"{self.name}/e{self._crash_epoch}#{self._uid_n}"

    def _rexmit(self, kind: str, info: dict, delay: float) -> None:
        self.network.send(
            self.name,
            Message(kind, {**info, "delay": delay}),
            delay=delay,
            timer=True,
        )

    def _next_delay(self, payload: dict) -> float:
        return min(payload["delay"] * 2.0, self.rexmit_cap)

    # ------------------------------------------------------------------
    # on-disk write-ahead log (shared framed/checksummed codec)
    # ------------------------------------------------------------------

    def _wal_append(self, record: dict) -> None:
        self._wal.append(self._encode(record))
        self._wal.sync()

    def _replay_wal(self) -> None:
        """Rebuild the durable state from the log's intact prefix.

        ``performed`` re-derives the in-flight transaction object by
        fast-forwarding a fresh instance of its program through the
        logged access results; ``performed-ack`` retires it; ``undo``
        re-arms the dedup set.  A torn tail was already truncated by
        :class:`repro.durability.wal.LogFile`.
        """
        epochs = [0]
        for record in self._wal.records():
            kind = record["t"]
            if kind == "performed":
                program = self._catalog.get(record["name"])
                if program is None:
                    raise NetworkError(
                        f"node {self.name!r} WAL names unknown program "
                        f"{record['name']!r}"
                    )
                txn = MigratingTransaction(
                    program, record["origin"], record["attempt"]
                )
                txn.live.fast_forward(record["results"])
                step = None
                if record["record"] is not None:
                    r = record["record"]
                    step = StepRecord(
                        StepId(record["name"], r["index"]),
                        r["entity"],
                        StepKind(r["kind"]),
                        r["before"],
                        r["after"],
                    )
                self._performed_unacked[record["uid"]] = {
                    "txn": txn,
                    "record": step,
                    "node": self.name,
                    "name": record["name"],
                    "attempt": record["attempt"],
                    "steps": record["steps"],
                    "cuts": dict(record["cuts"]),
                    "finished": record["finished"],
                    "epoch": record["epoch"],
                    "uid": record["uid"],
                    "psn": record["psn"],
                }
                self._psn = max(self._psn, record["psn"] + 1)
                epochs.append(record["epoch"])
            elif kind == "performed-ack":
                self._performed_unacked.pop(record["uid"], None)
            elif kind == "undo":
                self._undo_applied.add(record["uid"])
        # A reopened log means the previous incarnation is gone: start a
        # fresh epoch so new uids cannot collide with logged ones.
        self._crash_epoch = max(epochs) + 1 if self._wal.payloads else 0

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------

    def _on_crash_event(self) -> None:
        """Power loss: volatile state evaporates; the store and the
        write-ahead log (performed tail, undo dedup ids) persist."""
        self._crash_epoch += 1
        self._uid_n = 0
        self.parked.clear()
        self._req_epoch.clear()
        self._migrate_seen.clear()
        self._launched.clear()
        self._route_unacked.clear()
        self._recover_pending = None
        self._last_grant.clear()
        self._held.clear()

    def _on_recover_event(self) -> None:
        """Reboot: announce the durable log tail to the sequencer so it
        can replay orphaned performed-reports through the cascade rule
        and restart whatever was parked here."""
        self._recover_pending = f"{self.name}/r{self._crash_epoch}"
        self._send_recovered()

    def _send_recovered(self, delay: float | None = None) -> None:
        tail = sorted(
            self._performed_unacked.values(), key=lambda p: p["psn"]
        )
        self.network.send(
            self.sequencer,
            Message(
                "recovered",
                {"node": self.name, "uid": self._recover_pending,
                 "tail": tail, "epoch": self._crash_epoch},
            ),
            source=self.name,
        )
        self._rexmit(
            "rexmit-recovered",
            {"uid": self._recover_pending},
            delay if delay is not None else REXMIT_DELAY,
        )

    def _on_rexmit_recovered(self, payload: dict) -> None:
        if payload["uid"] != self._recover_pending:
            return
        self._send_recovered(self._next_delay(payload))

    def _on_recovered_ack(self, payload: dict) -> None:
        if payload["uid"] == self._recover_pending:
            self._recover_pending = None
        for uid in payload.get("performed_uids", ()):
            self._performed_unacked.pop(uid, None)

    # ------------------------------------------------------------------
    # outbound paths
    # ------------------------------------------------------------------

    def _request_payload(self, txn: MigratingTransaction) -> dict:
        return {
            "name": txn.name,
            "attempt": txn.attempt,
            "access": txn.live.pending,
            "node": self.name,
            "steps_taken": txn.steps_taken,
            "epoch": self._crash_epoch,
        }

    def _request(self, txn: MigratingTransaction) -> None:
        if txn.finished:
            self._ship_performed(txn, None)
            return
        self.network.send(
            self.sequencer,
            Message("request", self._request_payload(txn)),
            source=self.name,
        )
        if self.reliable:
            key = (txn.name, txn.attempt)
            epoch = self._req_epoch.get(key, 0) + 1
            self._req_epoch[key] = epoch
            self._rexmit(
                "rexmit-request",
                {"name": txn.name, "attempt": txn.attempt, "epoch": epoch},
                REXMIT_DELAY,
            )

    def _on_rexmit_request(self, payload: dict) -> None:
        key = (payload["name"], payload["attempt"])
        txn = self.parked.get(key)
        if txn is None or self._req_epoch.get(key) != payload["epoch"]:
            return  # answered, discarded, or superseded — chain dies
        self.network.send(
            self.sequencer,
            Message("request", self._request_payload(txn)),
            source=self.name,
        )
        self._rexmit(
            "rexmit-request",
            {"name": payload["name"], "attempt": payload["attempt"],
             "epoch": payload["epoch"]},
            self._next_delay(payload),
        )

    def _ship_performed(self, txn: MigratingTransaction, record) -> None:
        # Scalar state is snapshotted at perform time: the transaction
        # object is shared by reference across the simulation, so a
        # retransmitted report must describe the step as it was, not as
        # the object has since advanced.
        payload = {
            "txn": txn,
            "record": record,
            "node": self.name,
            "name": txn.name,
            "attempt": txn.attempt,
            "steps": txn.steps_taken,
            "cuts": txn.cut_levels,
            "finished": txn.finished,
            "epoch": self._crash_epoch,
        }
        if self.reliable:
            uid = self._uid()
            payload["uid"] = uid
            payload["psn"] = self._psn
            self._psn += 1
            self._performed_unacked[uid] = payload
            if self._wal is not None:
                self._wal_append({
                    "t": "performed",
                    "uid": uid,
                    "psn": payload["psn"],
                    "name": txn.name,
                    "origin": txn.origin,
                    "attempt": txn.attempt,
                    "steps": txn.steps_taken,
                    "cuts": txn.cut_levels,
                    "finished": txn.finished,
                    "epoch": self._crash_epoch,
                    "results": list(txn.live.results_log),
                    "record": (
                        None if record is None else {
                            "index": record.step.index,
                            "entity": record.entity,
                            "kind": record.kind.value,
                            "before": record.value_before,
                            "after": record.value_after,
                        }
                    ),
                })
            self._rexmit("rexmit-performed", {"uid": uid}, REXMIT_DELAY)
        self.network.send(
            self.sequencer, Message("performed", payload), source=self.name
        )

    def _on_rexmit_performed(self, payload: dict) -> None:
        stored = self._performed_unacked.get(payload["uid"])
        if stored is None:
            return
        self.network.send(
            self.sequencer, Message("performed", stored), source=self.name
        )
        self._rexmit(
            "rexmit-performed",
            {"uid": payload["uid"]},
            self._next_delay(payload),
        )

    def _on_performed_ack(self, payload: dict) -> None:
        if (
            self._wal is not None
            and payload["uid"] in self._performed_unacked
        ):
            self._wal_append({"t": "performed-ack", "uid": payload["uid"]})
        self._performed_unacked.pop(payload["uid"], None)

    def _launch(self, txn: MigratingTransaction) -> None:
        """Park locally when we own the next entity (or the transaction
        is already finished); otherwise migrate to the owner."""
        entity = txn.pending_entity
        if entity is not None and entity not in self.store:
            if self.reliable:
                # Route through the sequencer so its location catalog
                # stays authoritative (ghost requests from duplicated
                # migrations are rejected against it).
                uid = self._uid()
                payload = {
                    "txn": txn,
                    "name": txn.name,
                    "attempt": txn.attempt,
                    "steps": txn.steps_taken,
                    "node": self.name,
                    "uid": uid,
                    "epoch": self._crash_epoch,
                }
                self._route_unacked[uid] = payload
                self.network.send(
                    self.sequencer, Message("route", payload), source=self.name
                )
                self._rexmit("rexmit-route", {"uid": uid}, REXMIT_DELAY)
            else:
                self.network.send(
                    self.entity_owner[entity],
                    Message("migrate", {"txn": txn}),
                    source=self.name,
                )
            return
        self.parked[(txn.name, txn.attempt)] = txn
        self.parks += 1
        emit = self.network.emit
        if emit:
            emit(
                "node.park",
                node=self.name,
                txn=txn.name,
                attempt=txn.attempt,
                entity=txn.pending_entity,
            )
        self._request(txn)

    def _on_rexmit_route(self, payload: dict) -> None:
        stored = self._route_unacked.get(payload["uid"])
        if stored is None:
            return
        self.network.send(
            self.sequencer, Message("route", stored), source=self.name
        )
        self._rexmit(
            "rexmit-route", {"uid": payload["uid"]}, self._next_delay(payload)
        )

    def _on_route_ack(self, payload: dict) -> None:
        self._route_unacked.pop(payload["uid"], None)

    # ------------------------------------------------------------------
    # inbound handlers
    # ------------------------------------------------------------------

    def _on_start(self, payload: dict) -> None:
        name = payload["name"]
        attempt = payload.get("attempt", 0)
        program = self.home_programs[name]
        self._launch(MigratingTransaction(program, self.name, attempt))

    def _on_restart(self, payload: dict) -> None:
        name, attempt = payload["name"], payload["attempt"]
        if self.reliable:
            if "uid" in payload:
                self.network.send(
                    self.sequencer,
                    Message("restart-ack", {"uid": payload["uid"]}),
                    source=self.name,
                )
            if (name, attempt) in self._launched:
                return  # duplicate restart: the attempt is already live
            self._launched.add((name, attempt))
        program = self.home_programs[name]
        self._launch(MigratingTransaction(program, self.name, attempt))

    def _on_migrate(self, payload: dict) -> None:
        txn: MigratingTransaction = payload["txn"]
        name = payload.get("name", txn.name)
        attempt = payload.get("attempt", txn.attempt)
        steps = payload.get("steps", txn.steps_taken)
        if self.reliable and "uid" in payload:
            self.network.send(
                self.sequencer,
                Message("migrate-ack", {"uid": payload["uid"]}),
                source=self.name,
            )
        key3 = (name, attempt, steps)
        if key3 in self._migrate_seen:
            return
        self._migrate_seen.add(key3)
        if self.reliable and txn.steps_taken != steps:
            # A late copy: the (shared) transaction object has advanced
            # past the state this message described.  Ignore it.
            return
        if txn.pending_entity is not None and txn.pending_entity not in self.store:
            if self.reliable:
                return  # stale ghost addressed by an outdated placement
            raise NetworkError(
                f"transaction {txn.name!r} migrated to {self.name!r} which "
                f"does not own {txn.pending_entity!r}"
            )
        self.parked[(name, attempt)] = txn
        self._request(txn)

    def _on_grant(self, payload: dict) -> None:
        key = (payload["name"], payload["attempt"])
        txn = self.parked.get(key)
        if txn is None:
            return  # stale grant for a rolled-back or moved-on attempt
        if payload["steps"] != txn.steps_taken:
            return  # duplicate grant for an earlier step of this attempt
        entity = txn.pending_entity
        after = payload["after"]
        if after is not None and self._last_grant.get(entity) != after:
            # An earlier grant on this entity has not performed here yet
            # (the network reordered or lost it): perform behind it.
            self._held[after] = payload
            return
        del self.parked[key]
        self._req_epoch.pop(key, None)
        grant = (txn.name, txn.attempt, txn.steps_taken)
        self._last_grant[entity] = grant
        record = txn.perform(self.store)
        self.performs += 1
        emit = self.network.emit
        if emit:
            emit(
                "step.perform",
                txn=txn.name,
                attempt=txn.attempt,
                step=record.step.index,
                entity=record.entity,
                kind=record.kind.value,
                node=self.name,
                before=record.value_before,
                after=record.value_after,
            )
        # Ship the state onward through the sequencer, which updates its
        # global picture and routes the transaction to the next owner.
        self._ship_performed(txn, record)
        held = self._held.pop(grant, None)
        if held is not None:
            self._on_grant(held)

    def _on_deny(self, payload: dict) -> None:
        key = (payload["name"], payload["attempt"])
        txn = self.parked.get(key)
        if txn is None:
            return
        if "steps" in payload and payload["steps"] != txn.steps_taken:
            return
        if self.reliable:
            # Invalidate the request retransmit chain; the retry below
            # will open a fresh one.
            self._req_epoch[key] = self._req_epoch.get(key, 0) + 1
        # Re-request after a local retry timer (not network traffic).
        self.network.send(
            self.name,
            Message("retry", {"name": payload["name"],
                              "attempt": payload["attempt"]}),
            delay=RETRY_DELAY,
            timer=True,
        )

    def _on_retry(self, payload: dict) -> None:
        txn = self.parked.get((payload["name"], payload["attempt"]))
        if txn is None:
            return
        self._request(txn)

    def _on_discard(self, payload: dict) -> None:
        key = (payload["name"], payload["attempt"])
        txn = self.parked.get(key)
        if txn is None:
            return
        if "steps" in payload and payload["steps"] != txn.steps_taken:
            return  # ghost-discard aimed at a state we are no longer in
        del self.parked[key]
        self._req_epoch.pop(key, None)

    def _on_undo(self, payload: dict) -> None:
        if self.reliable and "uid" in payload:
            self.network.send(
                self.sequencer,
                Message("undo-ack", {"uid": payload["uid"],
                                     "node": self.name}),
                source=self.name,
            )
            if payload["uid"] in self._undo_applied:
                return  # duplicate undo: already applied (durably logged)
            if self._wal is not None:
                self._wal_append({
                    "t": "undo",
                    "uid": payload["uid"],
                    "entity": payload["entity"],
                    "value": payload["value"],
                })
            self._undo_applied.add(payload["uid"])
        self.store.restore(payload["entity"], payload["value"])
        self.undos += 1
        emit = self.network.emit
        if emit:
            emit(
                "step.undo",
                node=self.name,
                entity=payload["entity"],
                restored=payload["value"],
            )
