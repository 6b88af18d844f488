"""The sequencer (validator) and the distributed runtime.

The application database is a *logically centralised* object (Section 3);
this runtime implements it physically distributed in the [RSL] migrating-
transaction style, with one asymmetry that real early distributed DBMS
designs shared: a **sequencer** node owns the concurrency-control state.
Data nodes ask it for per-step permission, so every admission policy of
the single-site engine pays message latency for each decision — exactly
the overhead experiment E7 measures.

The sequencer makes no decision of its own: it hosts an engine
:class:`~repro.engine.schedulers.base.Scheduler` — any of them, built
from its nest alone — and shows it the same engine surface (``txns``,
``waits``, ``metrics``, ``break_cycle``, ...).  What the sequencer keeps
is the transport: the per-node psn gate on performed-reports,
retransmits, the undo barrier, node recovery, and the ``retry`` /
``commit-check`` timers.

Rollback is sequencer-driven: it computes the cascade over its global
log, sends ``undo`` messages to the owning nodes (per-target FIFO
channels make undo/grant races impossible) and restarts victims at their
origin after a backoff.  As under the engine's ``recovery="transaction"``
a victim restarts whole; a decision's ``victim_points`` are ignored.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.core.interleaving import InterleavingSpec
from repro.core.nests import KNest
from repro.distributed.faults import FaultPlan
from repro.distributed.migration import MigratingTransaction
from repro.distributed.network import Message, Network
from repro.distributed.node import REXMIT_DELAY, DataNode
from repro.engine.cycles import WaitsFor
from repro.engine.metrics import Metrics
from repro.engine.rollback import cascade_closure, undo_plan
from repro.engine.runtime import _CYCLE_CAUSES, TxnState
from repro.engine.schedulers.base import Action, Decision, Scheduler
from repro.errors import NetworkError
from repro.model.breakpoints import spec_for_execution
from repro.obs.registry import MetricsRegistry
from repro.model.execution import Execution
from repro.model.programs import TransactionProgram
from repro.model.steps import StepRecord

__all__ = [
    "Sequencer",
    "DistributedResult",
    "DistributedRuntime",
]

#: Base restart separation after a rollback; the delay grows with the
#: attempt count (see :meth:`Sequencer._restart_delay`).
BACKOFF = 6.0
#: How long a finished transaction waits before asking to commit again.
COMMIT_RETRY = 2.0


@dataclass(slots=True)
class _Progress:
    """What the sequencer knows of one uncommitted transaction's current
    attempt, as of the last performed-report it consumed: the attributes
    of an engine ``TxnState`` that a hosted scheduler reads."""

    name: str
    priority: float
    attempt: int = 0
    steps_taken: int = 0
    finished: bool = False
    cut_levels: dict[int, int] = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, int]:
        return (self.name, self.attempt)

    @property
    def live(self) -> "_Progress":
        """Schedulers read ``txn.live.cut_levels``; the entry is its own
        live attempt."""
        return self

    at_breakpoint = TxnState.at_breakpoint

    def restart(self) -> None:
        self.attempt += 1
        self.steps_taken = 0
        self.finished = False
        self.cut_levels = {}


# ---------------------------------------------------------------------------
# the sequencer
# ---------------------------------------------------------------------------


class Sequencer:
    """The transport around a hosted scheduler: the engine surface the
    scheduler reads, and the messages that carry out its decisions."""

    def __init__(
        self,
        name: str,
        network: Network,
        scheduler: Scheduler,
        entity_owner: Mapping[str, str],
        origins: Mapping[str, str],
        arrivals: Mapping[str, float],
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.name = name
        self.network = network
        self.scheduler = scheduler
        if registry is not None:
            registry.derive(("sequencer", scheduler.name), self._publish)
        self.entity_owner = dict(entity_owner)
        self.origins = dict(origins)
        self.arrivals = dict(arrivals)
        self.rexmit_cap = REXMIT_DELAY * 8
        self.reliable = network.reliable

        # Every uncommitted transaction, whether or not it has started:
        # the engine's ``txns`` as far as the hosted scheduler can tell.
        self.txns: dict[str, _Progress] = {
            t: _Progress(t, self.arrivals.get(t, 0.0)) for t in origins
        }
        self.locations: dict[str, str] = {}
        self.log: list[tuple[tuple[str, int], StepRecord]] = []
        self.last_writer: dict[str, tuple[str, int]] = {}
        self.deps: dict[tuple[str, int], set[tuple[str, int]]] = {}
        self.committed: set[tuple[str, int]] = set()
        self.pending_commit: dict[str, MigratingTransaction] = {}
        # The scheduler's grant waits and ``deps``; a transaction has
        # finished when it awaits its commit.
        self.waits = WaitsFor(
            self._dependencies,
            lambda name: name in self.pending_commit,
            self.priority_key,
        )
        #: The hosted scheduler's counts, as an engine keeps them.
        self.metrics = Metrics()
        self._timestamp = 0
        self.results: dict[str, Any] = {}
        self.final_cut_levels: dict[str, dict[int, int]] = {}
        # Per transaction, the grant sent whose performed-report has not
        # come back yet, as ``((name, attempt, steps), entity, after)``
        # (a lost grant is re-issued verbatim when the request is
        # retransmitted); and the transactions condemned to roll back
        # once those drain.
        self.outstanding: dict[str, tuple] = {}
        self.doomed: set[str] = set()
        self.grants = 0
        self.denies = 0
        self.commits = 0
        self.aborts = 0
        self.deadlocks = 0
        self.recoveries = 0
        # Per entity, the last grant sent whose performed-report has not
        # been consumed.  The next grant on the entity names it as
        # ``after``, and the owning node performs that grant only behind
        # it: an entity's steps perform in the order they were granted,
        # whatever the network reorders or loses.  A decision may assume
        # the steps it granted performed (``timestamp`` marks an entity
        # at grant time).
        self._last_grant: dict[str, tuple[str, int, int]] = {}
        # --- at-least-once protocol state (active under a fault plan) ---
        # Per-node performed-sequence-number gating: reports are consumed
        # strictly in each node's perform order, with out-of-order
        # arrivals parked in a buffer — relaxed FIFO must not let a later
        # report rewrite per-entity log order (cascade correctness).
        self._next_psn: dict[str, int] = {}
        self._psn_buffer: dict[str, dict[int, dict]] = {}
        # Reliable sends awaiting acknowledgement: uid -> (kind, target,
        # payload); undo uids are tracked separately as the rollback
        # barrier (no restart may leave before every undo is applied).
        self._pending: dict[str, tuple[str, str, dict]] = {}
        self._undo_outstanding: set[str] = set()
        self._deferred_restarts: list[str] = []
        self._route_seen: set[tuple[str, int, int]] = set()
        self._recovered_seen: set[str] = set()
        # Highest reconciled crash epoch per node.  A message stamped
        # with a later epoch comes from a reincarnation whose recovery
        # has not been processed yet; engaging with it (e.g. granting a
        # step) before the recovery rollback runs would let performed
        # work escape the cascade.  Such messages are ignored — their
        # retransmit chains re-deliver them after reconciliation.
        self._node_epoch: dict[str, int] = {}
        self._uid_n = 0

        network.register(name, self.handle)
        # What ``Scheduler.attach`` binds: the runtime's one emission
        # point and the kinds its tracer reads.
        self._emit = network.emit
        self._routes = network.reads
        scheduler.attach(self)

    # ------------------------------------------------------------------
    # the engine surface a hosted scheduler reads
    # ------------------------------------------------------------------

    def active_states(self) -> list[_Progress]:
        return list(self.txns.values())

    arrived_states = active_states

    def next_timestamp(self) -> int:
        self._timestamp += 1
        return self._timestamp

    def break_cycle(self, cycle: list[str], cause: str) -> Decision:
        """The youngest member of a waits-for ``cycle``, as an abort
        decision: the one place the sequencer counts a deadlock.  Only a
        dependency cycle is reported as a ``deadlock`` event."""
        victim = self.waits.victim(cycle)
        reason, count = _CYCLE_CAUSES[cause]
        self.deadlocks += 1
        if count is not None:
            self.metrics.detail[count] += 1
        emit = self.network.emit
        if emit and cause == "commit-dependency":
            emit("deadlock", cycle=list(cycle), victim=victim, cause=cause)
        return Decision.abort([victim], reason)

    # ------------------------------------------------------------------

    def _publish(self, registry: MetricsRegistry) -> None:
        """Set the ``control=`` series from the counts above and the
        hosted scheduler's own; the registry calls this before every
        read."""
        for series, help, value in (
            ("repro_seq_grants_total", "Step permissions granted.",
             self.grants),
            ("repro_seq_denies_total",
             "Step permissions denied (wait or quiesce).", self.denies),
            ("repro_seq_commits_total",
             "Transactions committed by the sequencer.", self.commits),
            ("repro_seq_aborts_total",
             "Attempts rolled back (cascade included).", self.aborts),
            ("repro_seq_deadlocks_total",
             "Circular waits or certification failures.", self.deadlocks),
            ("repro_seq_recoveries_total",
             "Node crash recoveries reconciled.", self.recoveries),
            *self.scheduler.counters(self.metrics),
        ):
            registry.put(
                "counter", series, help, value, control=self.scheduler.name
            )

    def priority_key(self, name: str):
        """Victims are chosen youngest-first (max key)."""
        return (self.arrivals.get(name, 0.0), name)

    def handle(self, message: Message) -> None:
        handler = getattr(self, f"_on_{message.kind.replace('-', '_')}", None)
        if handler is None:
            raise NetworkError(f"sequencer cannot handle {message.kind!r}")
        handler(message.payload)

    # ------------------------------------------------------------------

    def _uid(self) -> str:
        self._uid_n += 1
        return f"seq#{self._uid_n}"

    def _current(self, name: str, attempt: int) -> bool:
        """Whether ``attempt`` is ``name``'s live attempt, or the one
        that committed."""
        txn = self.txns.get(name)
        if txn is None:
            return (name, attempt) in self.committed
        return txn.attempt == attempt

    def _unreconciled(self, payload: dict) -> bool:
        node = payload.get("node")
        if node is None:
            return False
        return payload.get("epoch", 0) > self._node_epoch.get(node, 0)

    def _send_grant(
        self, node: str, name: str, attempt: int, steps: int, entity: str,
    ) -> None:
        grant = (name, attempt, steps)
        issued = self.outstanding.get(name)
        if issued is None or issued[0] != grant:
            issued = (grant, entity, self._last_grant.get(entity))
            self.outstanding[name] = issued
            self._last_grant[entity] = grant
        self.grants += 1
        emit = self.network.emit
        if emit:
            emit("seq.grant", txn=name, attempt=attempt, step=steps, node=node)
        self.network.send(
            node,
            Message("grant", {"name": name, "attempt": attempt,
                              "steps": steps, "after": issued[2]}),
            source=self.name,
        )

    def _settle(self, name: str) -> None:
        """Forget ``name``'s outstanding grant: its step performed, or
        the node holding it crashed."""
        issued = self.outstanding.pop(name, None)
        if issued is not None and self._last_grant.get(issued[1]) == issued[0]:
            del self._last_grant[issued[1]]

    def _send_deny(self, node: str, name: str, attempt: int, steps: int) -> None:
        self.denies += 1
        emit = self.network.emit
        if emit:
            emit("seq.deny", txn=name, attempt=attempt, step=steps, node=node)
        self.network.send(
            node,
            Message("deny", {"name": name, "attempt": attempt,
                             "steps": steps}),
            source=self.name,
        )

    def _on_request(self, payload: dict) -> None:
        name = payload["name"]
        attempt = payload["attempt"]
        steps = payload["steps_taken"]
        node = payload["node"]
        if not self._current(name, attempt):
            self.network.send(
                node,
                Message("discard", {"name": name, "attempt": attempt}),
                source=self.name,
            )
            return
        txn = self.txns.get(name)
        if self.reliable:
            if self._unreconciled(payload):
                return  # the node rebooted; wait for its recovery report
            # The location catalog is authoritative: a request from any
            # other node is a ghost park left by a duplicated migration.
            expected = self.locations.get(name)
            if expected is not None and expected != node:
                self.network.send(
                    node,
                    Message("discard", {"name": name, "attempt": attempt,
                                        "steps": steps}),
                    source=self.name,
                )
                return
            if txn is None or steps < txn.steps_taken:
                return  # stale retransmit of an already-performed step
            issued = self.outstanding.get(name)
            if issued is not None and issued[0] == (name, attempt, steps):
                # The grant (or its report) is in flight or was lost;
                # re-issuing it verbatim is idempotent at the node.
                self._send_grant(node, name, attempt, steps, issued[1])
                return
        else:
            self.locations[name] = node
        if self.doomed or self._undo_outstanding:
            # A rollback is waiting for in-flight steps to drain (or for
            # its undo barrier); quiesce new grants so the cascade is
            # computed over a stable log and no step overtakes an undo.
            self._send_deny(node, name, attempt, steps)
            return
        access = payload["access"]
        decision = self.scheduler.on_request(txn, access)
        if decision.action is Action.PERFORM:
            self.waits.done(name)
            self._send_grant(node, name, attempt, steps, access.entity)
        elif decision.action is Action.WAIT:
            self._send_deny(node, name, attempt, steps)
        else:
            victims = decision.victims or (name,)
            self._abort(victims)
            if name not in victims:
                self._send_deny(node, name, attempt, steps)

    def _on_performed(self, payload: dict) -> None:
        if not self.reliable:
            self._consume_performed(payload)
            return
        if self._unreconciled(payload):
            # Must not acknowledge either: the ack would pop the report
            # from the node's durable tail while we discard its content.
            return
        if "uid" in payload:
            self.network.send(
                payload["node"],
                Message("performed-ack", {"uid": payload["uid"]}),
                source=self.name,
            )
        self._ingest_performed(payload)

    def _ingest_performed(self, payload: dict) -> None:
        """Admit a report through the per-node psn gate: reports are
        consumed strictly in each node's perform order, so relaxed FIFO
        can never rewrite per-entity log order (which the cascade and
        undo plan both depend on).  Every performed psn is either acked
        (consumed or buffered here) or still in its node's durable tail,
        so the gate can never deadlock on a hole."""
        node, psn = payload["node"], payload["psn"]
        next_psn = self._next_psn.get(node, 0)
        if psn < next_psn:
            return  # duplicate of an already-consumed report
        if psn > next_psn:
            self._psn_buffer.setdefault(node, {})[psn] = payload
            return
        self._consume_performed(payload)
        next_psn += 1
        buffered = self._psn_buffer.get(node, {})
        while next_psn in buffered:
            self._consume_performed(buffered.pop(next_psn))
            next_psn += 1
        self._next_psn[node] = next_psn

    def _consume_performed(self, payload: dict) -> None:
        txn: MigratingTransaction = payload["txn"]
        # Scalar state is snapshotted into the payload at perform time:
        # the transaction object is shared by reference and may have
        # advanced by the time a retransmitted report is consumed.
        name = payload.get("name", txn.name)
        attempt = payload.get("attempt", txn.attempt)
        steps = payload.get("steps", txn.steps_taken)
        cuts = payload["cuts"] if "cuts" in payload else txn.cut_levels
        finished = payload.get("finished", txn.finished)
        replay = payload.get("_replay", False)
        if not self._current(name, attempt):
            if not self.reliable:
                # Deferred-abort protocol: an abort never executes while
                # a grant is outstanding, so stale reports cannot occur.
                raise NetworkError(
                    f"stale performed-report for {name!r} attempt {attempt}"
                )
            return  # a rollback already claimed this attempt
        if name not in self.txns:
            return  # committed
        self._settle(name)
        key = (name, attempt)
        record: StepRecord | None = payload["record"]
        if record is not None:
            writer = self.last_writer.get(record.entity)
            if writer is not None and writer != key:
                self.deps.setdefault(key, set()).add(writer)
            self.log.append((key, record))
            if not record.is_read_only:
                self.last_writer[record.entity] = key
        state = self.txns[name]
        state.steps_taken = steps
        state.cut_levels = cuts
        state.finished = finished
        if record is not None:
            veto = self.scheduler.after_performed(state, record)
            if veto is not None and veto.action is Action.ABORT:
                self.doomed.update(veto.victims)
        self._process_doomed()
        if not self._current(name, attempt):
            return  # the deferred rollback just claimed this transaction
        if finished:
            self.pending_commit[name] = txn
            self._commit_check(name)
        elif not replay:
            # A replayed orphan (crash-recovery tail) is never forwarded:
            # its generator state died with the node; the cascade rule
            # will restart the attempt from its origin.
            target = self.entity_owner[txn.pending_entity]
            self.locations[name] = target
            self._forward_migrate(target, txn, name, attempt, steps)

    def _forward_migrate(
        self,
        target: str,
        txn: MigratingTransaction,
        name: str,
        attempt: int,
        steps: int,
    ) -> None:
        payload: dict = {
            "txn": txn, "name": name, "attempt": attempt, "steps": steps,
        }
        if self.reliable:
            uid = self._uid()
            payload["uid"] = uid
            self._pending[uid] = ("migrate", target, payload)
            self._schedule_rexmit(uid, REXMIT_DELAY)
        self.network.send(target, Message("migrate", payload), source=self.name)

    # ------------------------------------------------------------------
    # at-least-once machinery (retransmits, routing, crash recovery)
    # ------------------------------------------------------------------

    def _schedule_rexmit(self, uid: str, delay: float) -> None:
        self.network.send(
            self.name,
            Message("rexmit", {"uid": uid, "delay": delay}),
            delay=delay,
            timer=True,
        )

    def _on_rexmit(self, payload: dict) -> None:
        uid = payload["uid"]
        entry = self._pending.get(uid)
        if entry is None:
            return  # acknowledged — chain dies
        kind, target, msg_payload = entry
        if kind in ("migrate", "restart"):
            name = msg_payload["name"]
            if not self._current(name, msg_payload["attempt"]):
                # The attempt was rolled back; stop resending its state.
                self._pending.pop(uid, None)
                return
        self.network.send(target, Message(kind, msg_payload), source=self.name)
        self._schedule_rexmit(
            uid, min(payload["delay"] * 2.0, self.rexmit_cap)
        )

    def _on_migrate_ack(self, payload: dict) -> None:
        self._pending.pop(payload["uid"], None)

    def _on_restart_ack(self, payload: dict) -> None:
        self._pending.pop(payload["uid"], None)

    def _on_undo_ack(self, payload: dict) -> None:
        uid = payload["uid"]
        if self._pending.pop(uid, None) is None:
            return  # duplicate ack
        self._undo_outstanding.discard(uid)
        if not self._undo_outstanding:
            # Barrier down: every undo of the rollback is durably applied,
            # so victims may restart without racing their own before-images.
            self._flush_restarts()
            self._process_doomed()

    def _on_kickoff(self, payload: dict) -> None:
        """Reliable-mode transaction injection: the sequencer owns the
        start so a lost launch can be retransmitted like any restart."""
        self._send_restart(payload["name"])

    def _send_restart(self, name: str, delay: float | None = None) -> None:
        attempt = self.txns[name].attempt
        origin = self.origins[name]
        payload: dict = {"name": name, "attempt": attempt}
        if self.reliable:
            # The catalog is authoritative in reliable mode; a restart
            # moves the transaction back to its origin node.
            self.locations[name] = origin
            uid = self._uid()
            payload["uid"] = uid
            self._pending[uid] = ("restart", origin, payload)
            self._schedule_rexmit(
                uid, (delay or 0.0) + REXMIT_DELAY
            )
        self.network.send(
            origin, Message("restart", payload), delay=delay, source=self.name
        )

    def _restart_delay(self, name: str) -> float:
        # Exponentially growing restart separation: repeated mutual
        # aborts must eventually stagger the victims far enough apart
        # that one finishes before the other starts.
        return (
            BACKOFF
            * min(self.txns[name].attempt, 64)
            * self.network.rng.uniform(0.5, 1.5)
        )

    def _flush_restarts(self) -> None:
        victims, self._deferred_restarts = self._deferred_restarts, []
        for name in victims:
            if name not in self.txns:
                continue  # committed
            self._send_restart(name, delay=self._restart_delay(name))

    def _on_route(self, payload: dict) -> None:
        """A node launched a transaction whose first entity lives
        elsewhere; route it so the location catalog stays authoritative."""
        if self._unreconciled(payload):
            return  # un-acked: the route chain re-delivers it later
        node, uid = payload["node"], payload["uid"]
        name, attempt = payload["name"], payload["attempt"]
        steps = payload["steps"]
        self.network.send(
            node, Message("route-ack", {"uid": uid}), source=self.name
        )
        if not self._current(name, attempt):
            self.network.send(
                node,
                Message("discard", {"name": name, "attempt": attempt}),
                source=self.name,
            )
            return
        key3 = (name, attempt, steps)
        if key3 in self._route_seen:
            return
        self._route_seen.add(key3)
        txn: MigratingTransaction = payload["txn"]
        if txn.steps_taken != steps or txn.pending_entity is None:
            return  # late duplicate; the shared object has moved on
        target = self.entity_owner[txn.pending_entity]
        self.locations[name] = target
        self._forward_migrate(target, txn, name, attempt, steps)

    def _on_recovered(self, payload: dict) -> None:
        """A node rebooted: replay its durable tail of unacknowledged
        performed-reports (so the global log regains every orphaned
        before-image), then roll back whatever was in flight there —
        the cascade rule computes the full victim set and the recovered
        store is healed by the resulting undo plan."""
        node, uid = payload["node"], payload["uid"]
        tail = payload["tail"]
        epoch = payload.get("epoch", 0)
        fresh = (
            uid not in self._recovered_seen
            and epoch > self._node_epoch.get(node, 0)
        )
        self.network.send(
            node,
            Message(
                "recovered-ack",
                {"uid": uid,
                 # Tail uids are acknowledged only on the copy actually
                 # replayed: a late copy may list reports performed
                 # *after* reconciliation, and acking those without
                 # ingesting them would orphan them (the node would stop
                 # retransmitting a report the log never saw).
                 "performed_uids": (
                     [p["uid"] for p in tail if "uid" in p] if fresh else []
                 )},
            ),
            source=self.name,
        )
        self._recovered_seen.add(uid)
        if not fresh:
            return
        self._node_epoch[node] = epoch
        self.recoveries += 1
        emit = self.network.emit
        if emit:
            emit("seq.recover", node=node, tail=len(tail), epoch=epoch)
        for entry in tail:
            self._on_performed({**entry, "_replay": True})
        stranded = {
            name
            for name, location in self.locations.items()
            if location == node
            and name in self.txns
            and name not in self.pending_commit
        }
        for name in stranded:
            # Their grants or reports died with the node; nothing will
            # drain them, so the rollback must not wait for it.
            self._settle(name)
        if stranded:
            self._abort(stranded)

    def _on_commit_check(self, payload: dict) -> None:
        name = payload["name"]
        if not self._current(name, payload["attempt"]):
            return
        if name in self.pending_commit:
            self._commit_check(name)

    def _recheck(self, name: str, attempt: int) -> None:
        """Ask whether ``name`` may commit again after a while."""
        self.network.send(
            self.name,
            Message("commit-check", {"name": name, "attempt": attempt}),
            delay=COMMIT_RETRY,
            timer=True,
        )

    def _commit_check(self, name: str) -> None:
        txn = self.pending_commit[name]
        key = (name, txn.attempt)
        if self.doomed or self._undo_outstanding:
            # Never commit while a rollback is pending (or its undo
            # barrier is still up): the cascade might still claim this
            # transaction.
            self._recheck(name, txn.attempt)
            return
        pending = {
            dep for dep in self.deps.get(key, ()) if dep not in self.committed
        }
        if pending:
            cycle = self.waits.dependency_cycle(name)
            if cycle:
                self._abort(
                    self.break_cycle(cycle, "commit-dependency").victims
                )
            else:
                self._recheck(name, txn.attempt)
            return
        state = self.txns[name]
        decision = self.scheduler.may_commit(state)
        if decision.action is Action.ABORT:
            # A certification failure: the closure is cyclic.
            self.deadlocks += 1
            victims = decision.victims or (name,)
            self._abort(victims)
            if name not in victims and name in self.pending_commit:
                self._recheck(name, txn.attempt)
            return
        if decision.action is Action.WAIT:
            self._recheck(name, txn.attempt)
            return
        del self.pending_commit[name]
        del self.txns[name]
        self.waits.done(name)
        self.committed.add(key)
        self.results[name] = txn.result
        self.final_cut_levels[name] = txn.cut_levels
        self.commits += 1
        emit = self.network.emit
        if emit:
            emit(
                "seq.commit", txn=name, attempt=txn.attempt,
                latency=self.network.now - self.arrivals.get(name, 0.0),
            )
        self.scheduler.on_commit(state)

    def _dependencies(self, name: str) -> set[str]:
        """The uncommitted attempts whose writes ``name``'s current
        attempt consumed."""
        txns = self.txns
        return {
            dep_name
            for dep_name, dep_attempt in self.deps.get(txns[name].key, ())
            if (dep := txns.get(dep_name)) is not None
            and dep.attempt == dep_attempt
        }

    # ------------------------------------------------------------------

    def _abort(self, victims: Iterable[str]) -> None:
        self.doomed.update(victims)
        self._process_doomed()

    def _process_doomed(self) -> None:
        """Execute pending rollbacks once no performed-report is in
        flight for anything the cascade could touch."""
        if not self.doomed:
            return
        if self.outstanding:
            return  # drain first; grants are quiesced meanwhile
        if self._undo_outstanding:
            return  # a previous rollback's undo barrier is still up
        self._execute_rollback()

    def _execute_rollback(self) -> None:
        victims = set(self.doomed)
        self.doomed.clear()
        seeds = {self.txns[name].key for name in victims}
        emit = self.network.emit
        cascade = set(cascade_closure(
            self.log, dict.fromkeys(seeds, 0),
            emit=emit if "cascade.join" in self.network.reads else None,
        ))
        overlap = cascade & self.committed
        if overlap:
            raise NetworkError(
                f"recoverability violated in distributed run: {overlap}"
            )
        if emit:
            emit(
                "seq.abort",
                victims=sorted(name for name, _ in seeds),
                cascade=sorted(name for name, _ in cascade - seeds),
                chain=len(cascade),
            )
        plan = undo_plan(self.log, cascade)
        if self.reliable:
            # The faulty network may reorder per-entity undo messages, so
            # coalesce to one restoration per entity.  The plan iterates
            # newest-first, so the final assignment per entity is the
            # *oldest* before-image — the value the store must end at.
            final: dict[str, object] = {}
            for entity, value in plan:
                final[entity] = value
            for entity, value in final.items():
                uid = self._uid()
                target = self.entity_owner[entity]
                payload = {"entity": entity, "value": value, "uid": uid}
                self._pending[uid] = ("undo", target, payload)
                self._undo_outstanding.add(uid)
                self._schedule_rexmit(uid, REXMIT_DELAY)
                self.network.send(
                    target, Message("undo", payload), source=self.name
                )
        else:
            for entity, value in plan:
                self.network.send(
                    self.entity_owner[entity],
                    Message("undo", {"entity": entity, "value": value}),
                    source=self.name,
                )
        self.log = [e for e in self.log if e[0] not in cascade]
        self.last_writer = {}
        for key, record in self.log:
            if not record.is_read_only and key not in self.committed:
                self.last_writer[record.entity] = key
        for name, old_attempt in sorted(cascade):
            txn = self.txns[name]
            self.scheduler.on_abort(txn)
            self.waits.done(name)
            txn.restart()
            self.pending_commit.pop(name, None)
            self.deps.pop((name, old_attempt), None)
            self._settle(name)
            location = self.locations.get(name)
            if location is not None:
                self.network.send(
                    location,
                    Message("discard", {"name": name, "attempt": old_attempt}),
                    source=self.name,
                )
            if self.reliable and self._undo_outstanding:
                # Restarts wait behind the undo barrier: a restarted
                # attempt must never read a value its own rollback has
                # not yet restored.
                self._deferred_restarts.append(name)
            else:
                self._send_restart(name, delay=self._restart_delay(name))
            self.aborts += 1


# ---------------------------------------------------------------------------
# the runtime
# ---------------------------------------------------------------------------


@dataclass
class DistributedResult:
    """Outcome of one distributed run."""

    execution: Execution
    cut_levels: dict[str, dict[int, int]]
    results: dict[str, Any]
    makespan: float
    messages: int
    messages_by_kind: dict[str, int]
    commits: int
    aborts: int
    deadlocks: int
    node_count: int = 0
    control: str = "none"
    timers: int = 0
    timers_by_kind: dict[str, int] = field(default_factory=dict)
    faults: dict[str, int] = field(default_factory=dict)
    recoveries: int = 0

    def spec(self, nest: KNest) -> InterleavingSpec:
        return spec_for_execution(self.execution, nest, self.cut_levels)

    def summary(self) -> dict[str, Any]:
        return {
            "control": self.control,
            "nodes": self.node_count,
            "makespan": round(self.makespan, 1),
            "messages": self.messages,
            "commits": self.commits,
            "aborts": self.aborts,
        }


class DistributedRuntime:
    """Wire programs, entities and a scheduler into a simulated cluster:
    the sequencer hosts ``scheduler``, an engine concurrency control
    (``repro.api.make_scheduler``) that no engine has run."""

    def __init__(
        self,
        programs: Iterable[TransactionProgram],
        initial_values: Mapping[str, Any],
        scheduler: Scheduler,
        nodes: int = 4,
        seed: int = 0,
        arrivals: Mapping[str, float] | None = None,
        faults: FaultPlan | None = None,
        tracer=None,
        registry: MetricsRegistry | None = None,
        wal_dir: str | None = None,
    ) -> None:
        programs = list(programs)
        #: One registry for the whole cluster: the network, the sequencer
        #: and every node register a source in it, each the only writer
        #: of its own label values.
        self.registry = registry
        if nodes < 1:
            raise NetworkError("need at least one data node")
        node_names = [f"node{i}" for i in range(nodes)]
        if faults is not None:
            # The sequencer is assumed fail-free (the classic asymmetry
            # of sequencer designs); only data nodes may crash.
            for event in faults.crashes:
                if event.node not in node_names:
                    raise NetworkError(
                        f"crash event targets unknown or uncrashable "
                        f"node {event.node!r}"
                    )
        self.network = Network(
            seed=seed, faults=faults, tracer=tracer, registry=registry,
        )
        entity_owner = {
            entity: node_names[i % nodes]
            for i, entity in enumerate(sorted(initial_values))
        }
        origins = {
            program.name: node_names[i % nodes]
            for i, program in enumerate(programs)
        }
        arrivals = dict(arrivals or {})
        arrival_times = {
            program.name: arrivals.get(program.name, 0.0)
            for program in programs
        }
        self.scheduler = scheduler
        self.sequencer = Sequencer(
            "sequencer",
            self.network,
            scheduler,
            entity_owner,
            origins,
            arrival_times,
            registry=registry,
        )
        self.nodes: list[DataNode] = []
        for node_name in node_names:
            node_entities = {
                entity: initial_values[entity]
                for entity, owner in entity_owner.items()
                if owner == node_name
            }
            node_programs = {
                program.name: program
                for program in programs
                if origins[program.name] == node_name
            }
            wal_path = None
            if wal_dir is not None:
                os.makedirs(wal_dir, exist_ok=True)
                wal_path = os.path.join(wal_dir, f"{node_name}.wal")
            self.nodes.append(
                DataNode(
                    node_name,
                    self.network,
                    "sequencer",
                    node_entities,
                    node_programs,
                    entity_owner,
                    registry=registry,
                    wal_path=wal_path,
                    catalog={p.name: p for p in programs},
                )
            )
        self._initial_values = dict(initial_values)
        self._programs = programs
        self._origins = origins
        self._arrivals = arrival_times

    def start(self) -> None:
        """Inject the workload; nothing is delivered until the network
        runs (fully via :meth:`run` or in slices via :meth:`pump`)."""
        for program in self._programs:
            if self.network.reliable:
                # The sequencer owns injection under faults: the kickoff
                # is a local timer (the workload always *arrives*), and
                # the launch it triggers is a retransmittable restart.
                self.network.send(
                    "sequencer",
                    Message("kickoff", {"name": program.name}),
                    delay=self._arrivals[program.name],
                    timer=True,
                )
            else:
                self.network.send(
                    self._origins[program.name],
                    Message("start", {"name": program.name}),
                    delay=self._arrivals[program.name],
                )

    def pump(self, until: float) -> float:
        """Deliver everything due at or before ``until`` simulation time
        and return the current clock — the dashboard's tick-batch mode."""
        return self.network.run(until=until)

    def run(self) -> DistributedResult:
        self.start()
        self.network.run()
        return self.finish()

    def finish(self) -> DistributedResult:
        makespan = self.network.now
        seq = self.sequencer
        if seq.commits != len(self._programs):
            raise NetworkError(
                f"distributed run quiesced with only "
                f"{seq.commits}/{len(self._programs)} commits"
            )
        records = [
            record for key, record in seq.log if key in seq.committed
        ]
        execution = Execution(records, dict(self._initial_values))
        execution.validate()
        return DistributedResult(
            execution=execution,
            cut_levels=dict(seq.final_cut_levels),
            results=dict(seq.results),
            makespan=makespan,
            messages=self.network.messages_sent,
            messages_by_kind=dict(self.network.messages_by_kind),
            commits=seq.commits,
            aborts=seq.aborts,
            deadlocks=seq.deadlocks,
            node_count=len(self.nodes),
            control=self.scheduler.name,
            timers=self.network.timers_set,
            timers_by_kind=dict(self.network.timers_by_kind),
            faults=self.network.fault_summary(),
            recoveries=seq.recoveries,
        )
