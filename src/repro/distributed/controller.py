"""The sequencer (validator) and the distributed runtime.

The application database is a *logically centralised* object (Section 3);
this runtime implements it physically distributed in the [RSL] migrating-
transaction style, with one asymmetry that real early distributed DBMS
designs shared: a **sequencer** node owns the concurrency-control state.
Data nodes ask it for per-step permission, so every admission policy of
the single-site engine has a distributed counterpart that pays message
latency for each decision — exactly the overhead experiment E7 measures.

Controls:

* :class:`NoControl` — grant everything (the contrast case).
* :class:`DistributedLockControl` — strict exclusive locking at the
  sequencer (distributed 2PL under the paper's all-access conflicts).
* :class:`DistributedPreventControl` — Section 6 cycle prevention: a step
  is granted only when every transaction whose last performed step would
  precede it in the coherent closure sits at a breakpoint of the
  appropriate level.

Rollback is sequencer-driven: it computes the cascade over its global
log, sends ``undo`` messages to the owning nodes (per-target FIFO
channels make undo/grant races impossible) and restarts victims at their
origin after a backoff.
"""

from __future__ import annotations

import os
import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.core.interleaving import InterleavingSpec
from repro.core.nests import KNest
from repro.distributed.faults import FaultPlan
from repro.distributed.migration import MigratingTransaction
from repro.distributed.network import Message, Network
from repro.distributed.node import DataNode
from repro.engine.closure_window import ClosureWindow
from repro.engine.cycles import WaitGraph
from repro.engine.locks import LockManager, LockMode
from repro.engine.rollback import cascade_closure, undo_plan
from repro.errors import NetworkError
from repro.model.breakpoints import spec_for_execution
from repro.obs.profile import NULL_PROFILER, PhaseProfiler
from repro.obs.registry import MetricsRegistry
from repro.model.execution import Execution
from repro.model.programs import TransactionProgram
from repro.model.steps import StepId, StepRecord

__all__ = [
    "NoControl",
    "DistributedLockControl",
    "DistributedPreventControl",
    "Sequencer",
    "DistributedResult",
    "DistributedRuntime",
]


# ---------------------------------------------------------------------------
# controls
# ---------------------------------------------------------------------------


class NoControl:
    """Grant every request immediately."""

    name = "none"

    def attach(self, sequencer: "Sequencer") -> None:
        self.sequencer = sequencer

    def decide(self, request: dict):
        return "grant"

    def on_performed(self, name: str, record: StepRecord | None,
                     cut_levels: dict[int, int], finished: bool) -> None:
        pass

    def certify_commit(self, name: str) -> list[str] | None:
        """Victims to roll back instead of committing, or None when the
        commit is safe.  Controls with a closure window must never let a
        transaction commit while the window is cyclic (see
        repro.engine.schedulers._certify for the failure mode)."""
        return None

    def on_commit(self, name: str) -> None:
        pass

    def on_abort(self, name: str) -> None:
        pass


class DistributedLockControl(NoControl):
    """Strict sequencer-side locking: every access takes an exclusive
    entity lock held to commit; waits-for cycles abort the youngest."""

    name = "2pl"

    def __init__(self) -> None:
        self.locks = LockManager()

    def decide(self, request: dict):
        name = request["name"]
        if self.locks.try_acquire(name, request["entity"], LockMode.EXCLUSIVE):
            return "grant"
        cycle = self.locks.deadlock_cycle()
        if cycle:
            victim = max(cycle, key=self.sequencer.priority_key)
            return ("abort", [victim])
        return "wait"

    def on_commit(self, name: str) -> None:
        self.locks.release_all(name)

    def on_abort(self, name: str) -> None:
        self.locks.release_all(name)


class DistributedPreventControl(NoControl):
    """Section 6 cycle prevention at the sequencer."""

    name = "mla-prevent"

    def __init__(self, nest: KNest, conflicts: str = "all") -> None:
        self.nest = nest
        self.window = ClosureWindow(nest, conflicts=conflicts)

    def attach(self, sequencer: "Sequencer") -> None:
        super().attach(sequencer)
        self.window.emit = sequencer.network.emit
        self.window.profiler = sequencer.profiler

    def _at_breakpoint(self, name: str, level: int) -> bool:
        seq = self.sequencer
        state = seq.progress.get(name)
        if state is None or state["steps"] == 0 or state["finished"]:
            return True
        declared = state["cuts"].get(state["steps"] - 1)
        return declared is not None and declared <= level

    def decide(self, request: dict):
        seq = self.sequencer
        name = request["name"]
        step = StepId(name, request["steps_taken"])
        # The window must know the requester's latest breakpoints for the
        # hypothetical prefix description.
        self.window._cuts[name] = {
            g: lv
            for g, lv in request["cut_levels"].items()
        }
        acyclic, predecessors, cycle_owners = self.window.hypothetical(
            name, step, request["entity"], request["kind"]
        )
        if not acyclic:
            blockers = {
                owner
                for owner in cycle_owners
                if owner != name and owner not in seq.committed_names
            }
            return self._wait_or_break(name, blockers or None)
        blockers = set()
        for other, state in seq.progress.items():
            if other == name or other in seq.committed_names:
                continue
            last = self.window.last_step_of(other)
            if last is None or last not in predecessors:
                continue
            if not self._at_breakpoint(other, self.nest.level(other, name)):
                blockers.add(other)
        if blockers:
            seq.waiting_on[name] = blockers
            return self._wait_or_break(name, blockers)
        seq.waiting_on.pop(name, None)
        return "grant"

    def _wait_or_break(self, name: str, blockers: set[str] | None = None):
        seq = self.sequencer
        if not blockers:
            blockers = {
                other
                for other in seq.progress
                if other != name and other not in seq.committed_names
            }
        if not blockers:
            # Nothing live to wait for: the conflict is against committed
            # history, so this attempt's own prefix is unextendable.
            # Roll it back and let a fresh attempt run behind the
            # committed work.
            return ("abort", [name])
        # Every wait must be visible to the deadlock check, whatever its
        # cause (breakpoint blocker or would-be closure cycle).
        seq.waiting_on[name] = blockers
        graph = WaitGraph()
        for waiter, blocking in seq.waiting_on.items():
            graph.add_waits(waiter, blocking)
        cycle = graph.find_cycle()
        if cycle is None:
            return "wait"
        victim = max(cycle, key=seq.priority_key)
        return ("abort", [victim])

    def on_performed(self, name, record, cut_levels, finished) -> None:
        if record is not None:
            self.window.observe(
                name, record.step, record.entity, record.kind, cut_levels
            )

    def certify_commit(self, name: str) -> list[str] | None:
        result = self.window.closure()
        if result is None or result.is_partial_order:
            return None
        seq = self.sequencer
        owners = {
            step.transaction
            for step in result.cycle or ()
            if step.transaction not in seq.committed_names
            and step.transaction in seq.attempts
        }
        if not owners:
            owners = {
                other
                for other in seq.progress
                if other not in seq.committed_names
            }
        if not owners:
            return [name]
        return [max(owners, key=seq.priority_key)]

    def on_commit(self, name: str) -> None:
        self.sequencer.waiting_on.pop(name, None)
        self.window.mark_committed(name)

    def on_abort(self, name: str) -> None:
        self.sequencer.waiting_on.pop(name, None)
        self.window.drop(name)


# ---------------------------------------------------------------------------
# the sequencer
# ---------------------------------------------------------------------------


class Sequencer:
    """The concurrency-control brain of the distributed runtime."""

    def __init__(
        self,
        name: str,
        network: Network,
        control,
        entity_owner: Mapping[str, str],
        origins: Mapping[str, str],
        arrivals: Mapping[str, float],
        backoff: float = 6.0,
        commit_retry: float = 2.0,
        rexmit_delay: float = 4.0,
        registry: MetricsRegistry | None = None,
        profiler: PhaseProfiler | None = None,
    ) -> None:
        self.name = name
        self.network = network
        self.control = control
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        if registry is not None:
            registry.derive(("sequencer", control.name), self._publish)
        self.entity_owner = dict(entity_owner)
        self.origins = dict(origins)
        self.arrivals = dict(arrivals)
        self.backoff = backoff
        self.commit_retry = commit_retry
        self.rexmit_delay = rexmit_delay
        self.rexmit_cap = rexmit_delay * 8
        self.reliable = network.reliable

        self.attempts: dict[str, int] = {t: 0 for t in origins}
        self.locations: dict[str, str] = {}
        self.progress: dict[str, dict] = {}
        self.log: list[tuple[tuple[str, int], StepRecord]] = []
        self.last_writer: dict[str, tuple[str, int]] = {}
        self.deps: dict[tuple[str, int], set[tuple[str, int]]] = {}
        self.committed: set[tuple[str, int]] = set()
        self.committed_names: set[str] = set()
        self.pending_commit: dict[str, MigratingTransaction] = {}
        self.waiting_on: dict[str, set[str]] = {}
        self.results: dict[str, Any] = {}
        self.final_cut_levels: dict[str, dict[int, int]] = {}
        # Grants sent whose performed-report has not come back yet, and
        # transactions condemned to roll back once the pipeline drains.
        self.outstanding: set[str] = set()
        self.doomed: set[str] = set()
        self.grants = 0
        self.denies = 0
        self.commits = 0
        self.aborts = 0
        self.deadlocks = 0
        self.recoveries = 0
        # --- at-least-once protocol state (active under a fault plan) ---
        # Last grant per transaction, so a lost grant can be re-issued
        # verbatim when the request is retransmitted.
        self._granted: dict[str, tuple[int, int]] = {}
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
        control.attach(self)

    # ------------------------------------------------------------------

    def _publish(self, registry: MetricsRegistry) -> None:
        """Set the ``control=`` series from the counts above; the
        registry calls this before every read."""
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
        ):
            registry.put(
                "counter", series, help, value, control=self.control.name
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

    def _unreconciled(self, payload: dict) -> bool:
        node = payload.get("node")
        if node is None:
            return False
        return payload.get("epoch", 0) > self._node_epoch.get(node, 0)

    def _send_grant(self, node: str, name: str, attempt: int, steps: int) -> None:
        self.outstanding.add(name)
        self._granted[name] = (attempt, steps)
        self.grants += 1
        emit = self.network.emit
        if emit:
            emit("seq.grant", txn=name, attempt=attempt, step=steps, node=node)
        self.network.send(
            node,
            Message("grant", {"name": name, "attempt": attempt,
                              "steps": steps}),
            source=self.name,
        )

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
        if attempt != self.attempts[name]:
            self.network.send(
                node,
                Message("discard", {"name": name, "attempt": attempt}),
                source=self.name,
            )
            return
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
            state = self.progress.get(name)
            if state is not None and steps < state["steps"]:
                return  # stale retransmit of an already-performed step
            if name in self.outstanding and self._granted.get(name) == (
                attempt, steps,
            ):
                # The grant (or its report) is in flight or was lost;
                # re-issuing it verbatim is idempotent at the node.
                self._send_grant(node, name, attempt, steps)
                return
        else:
            self.locations[name] = node
        if self.doomed or self._undo_outstanding:
            # A rollback is waiting for in-flight steps to drain (or for
            # its undo barrier); quiesce new grants so the cascade is
            # computed over a stable log and no step overtakes an undo.
            self._send_deny(node, name, attempt, steps)
            return
        pr = self.profiler
        if pr.enabled:
            with pr.phase("schedule"):
                decision = self.control.decide(payload)
        else:
            decision = self.control.decide(payload)
        if decision == "grant":
            self._send_grant(node, name, attempt, steps)
        elif decision == "wait":
            self._send_deny(node, name, attempt, steps)
        else:
            _tag, victims = decision
            self.deadlocks += 1
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
        if attempt != self.attempts[name]:
            if not self.reliable:
                # Deferred-abort protocol: an abort never executes while
                # a grant is outstanding, so stale reports cannot occur.
                raise NetworkError(
                    f"stale performed-report for {name!r} attempt {attempt}"
                )
            return  # a rollback already claimed this attempt
        if name in self.committed_names:
            return
        self.outstanding.discard(name)
        self._granted.pop(name, None)
        key = (name, attempt)
        record: StepRecord | None = payload["record"]
        if record is not None:
            writer = self.last_writer.get(record.entity)
            if writer is not None and writer != key:
                self.deps.setdefault(key, set()).add(writer)
            self.log.append((key, record))
            if not record.is_read_only:
                self.last_writer[record.entity] = key
        self.progress[name] = {
            "steps": steps,
            "cuts": cuts,
            "finished": finished,
        }
        self.control.on_performed(name, record, cuts, finished)
        self._process_doomed()
        if attempt != self.attempts[name]:
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
            self._schedule_rexmit(uid, self.rexmit_delay)
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
            if msg_payload["attempt"] != self.attempts[name]:
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
        attempt = self.attempts[name]
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
                uid, (delay or 0.0) + self.rexmit_delay
            )
        self.network.send(
            origin, Message("restart", payload), delay=delay, source=self.name
        )

    def _restart_delay(self, name: str) -> float:
        # Exponentially growing restart separation: repeated mutual
        # aborts must eventually stagger the victims far enough apart
        # that one finishes before the other starts.
        return (
            self.backoff
            * min(self.attempts[name], 64)
            * self.network.rng.uniform(0.5, 1.5)
        )

    def _flush_restarts(self) -> None:
        victims, self._deferred_restarts = self._deferred_restarts, []
        for name in victims:
            if name in self.committed_names:
                continue
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
        if attempt != self.attempts[name]:
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
            and name not in self.committed_names
            and name not in self.pending_commit
        }
        for name in stranded:
            # Their grants or reports died with the node; nothing will
            # drain them, so the rollback must not wait for it.
            self.outstanding.discard(name)
            self._granted.pop(name, None)
        if stranded:
            self._abort(stranded)

    def _on_commit_check(self, payload: dict) -> None:
        name = payload["name"]
        if payload["attempt"] != self.attempts[name]:
            return
        if name in self.pending_commit:
            self._commit_check(name)

    def _commit_check(self, name: str) -> None:
        txn = self.pending_commit[name]
        key = (name, txn.attempt)
        if self.doomed or self._undo_outstanding:
            # Never commit while a rollback is pending (or its undo
            # barrier is still up): the cascade might still claim this
            # transaction.
            self.network.send(
                self.name,
                Message("commit-check", {"name": name, "attempt": txn.attempt}),
                delay=self.commit_retry,
                timer=True,
            )
            return
        pending = {
            dep for dep in self.deps.get(key, ()) if dep not in self.committed
        }
        if not pending:
            pr = self.profiler
            if pr.enabled:
                with pr.phase("certify"):
                    victims = self.control.certify_commit(name)
            else:
                victims = self.control.certify_commit(name)
            if victims:
                self.deadlocks += 1
                self._abort(victims)
                if name not in victims and name in self.pending_commit:
                    self.network.send(
                        self.name,
                        Message(
                            "commit-check",
                            {"name": name, "attempt": txn.attempt},
                        ),
                        delay=self.commit_retry,
                        timer=True,
                    )
                return
            del self.pending_commit[name]
            self.committed.add(key)
            self.committed_names.add(name)
            self.results[name] = txn.result
            self.final_cut_levels[name] = txn.cut_levels
            self.commits += 1
            emit = self.network.emit
            if emit:
                emit(
                    "seq.commit", txn=name, attempt=txn.attempt,
                    latency=self.network.now - self.arrivals.get(name, 0.0),
                )
            self.control.on_commit(name)
            return
        cycle = self._dep_cycle(name)
        if cycle:
            victim = max(cycle, key=self.priority_key)
            self.deadlocks += 1
            emit = self.network.emit
            if emit:
                emit(
                    "deadlock", cycle=list(cycle), victim=victim,
                    cause="commit-dependency",
                )
            self._abort([victim])
            return
        self.network.send(
            self.name,
            Message("commit-check", {"name": name, "attempt": txn.attempt}),
            delay=self.commit_retry,
            timer=True,
        )

    def _dep_cycle(self, name: str) -> list[str] | None:
        graph = WaitGraph()
        attempts = self.attempts
        for (txn_name, attempt), deps in self.deps.items():
            if attempt == attempts[txn_name]:
                graph.add_waits(txn_name, {
                    dep_name
                    for dep_name, dep_attempt in deps
                    if dep_name not in self.committed_names
                    and dep_attempt == attempts[dep_name]
                })
        return graph.find_cycle(source=name)

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
        pr = self.profiler
        if pr.enabled:
            with pr.phase("rollback"):
                self._execute_rollback()
        else:
            self._execute_rollback()

    def _execute_rollback(self) -> None:
        victims = set(self.doomed)
        self.doomed.clear()
        seeds = {(name, self.attempts[name]) for name in victims}
        emit = self.network.emit
        cascade = cascade_closure(self.log, seeds, emit=emit)
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
                self._schedule_rexmit(uid, self.rexmit_delay)
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
        for name, _attempt in sorted(cascade):
            self.control.on_abort(name)
            old_attempt = self.attempts[name]
            self.attempts[name] += 1
            self.progress.pop(name, None)
            self.pending_commit.pop(name, None)
            self.deps.pop((name, old_attempt), None)
            self._granted.pop(name, None)
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
    """Wire programs, entities and a control into a simulated cluster."""

    def __init__(
        self,
        programs: Iterable[TransactionProgram],
        initial_values: Mapping[str, Any],
        control,
        nodes: int = 4,
        latency: tuple[float, float] = (1.0, 3.0),
        seed: int = 0,
        arrivals: Mapping[str, float] | None = None,
        retry_delay: float = 2.0,
        backoff: float = 6.0,
        faults: FaultPlan | None = None,
        rexmit_delay: float = 4.0,
        tracer=None,
        registry: MetricsRegistry | None = None,
        profiler: PhaseProfiler | None = None,
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
            latency=latency, seed=seed, faults=faults, tracer=tracer,
            registry=registry, profiler=profiler,
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
        self.control = control
        self.sequencer = Sequencer(
            "sequencer",
            self.network,
            control,
            entity_owner,
            origins,
            arrival_times,
            backoff=backoff,
            rexmit_delay=rexmit_delay,
            registry=registry,
            profiler=profiler,
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
                    retry_delay=retry_delay,
                    rexmit_delay=rexmit_delay,
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
        if len(seq.committed_names) != len(self._programs):
            raise NetworkError(
                f"distributed run quiesced with only "
                f"{len(seq.committed_names)}/{len(self._programs)} commits"
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
            control=self.control.name,
            timers=self.network.timers_set,
            timers_by_kind=dict(self.network.timers_by_kind),
            faults=self.network.fault_summary(),
            recoveries=seq.recoveries,
        )
