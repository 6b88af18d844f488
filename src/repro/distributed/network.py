"""A discrete-event message network.

The distributed substrate runs on simulated time: messages carry a
delivery timestamp drawn from a configurable latency range, a global heap
orders deliveries, and handlers may send further messages.  "The total
order of the execution is determined by real clock time" (Section 6) maps
to simulation time with a deterministic tie-break.

With a :class:`~repro.distributed.faults.FaultPlan` attached the network
becomes an adversary: per-link message drop, duplication and reordering
(relaxed FIFO), timed partitions, and scheduled node crash/recover
events.  Fault decisions come from a dedicated RNG, so an *inactive*
plan (all rates zero, no crashes) is bit-identical to running with no
plan at all.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.distributed.faults import FaultPlan
from repro.errors import NetworkError
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["Message", "Network"]

#: Internal heap target used for crash/recover control events.
_FAULT_TARGET = "__faults__"


@dataclass(frozen=True)
class Message:
    """One network message: a kind tag plus an arbitrary payload dict."""

    kind: str
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass(order=True)
class _Delivery:
    time: float
    seq: int
    target: str = field(compare=False)
    message: Message = field(compare=False)


class Network:
    """Latency-simulating message bus between named handlers."""

    def __init__(
        self,
        latency: tuple[float, float] = (1.0, 3.0),
        seed: int = 0,
        max_events: int = 5_000_000,
        fifo: bool = True,
        faults: FaultPlan | None = None,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        lo, hi = latency
        if lo < 0 or hi < lo:
            raise NetworkError(f"bad latency range {latency}")
        self.latency = latency
        self.rng = random.Random(seed)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The runtime's one emission point, ``emit(kind, /, **fields)``:
        #: the flight recorder at simulation time — for the sequencer and
        #: the nodes too — or ``None`` when nobody listens; ``reads`` are
        #: the kinds the tracer reads, and the only ones it is handed.
        #: Emission never touches ``rng``/``fault_rng``, so traced runs
        #: are identical; the same holds for the registry source.
        self.reads = self.tracer.reads if self.tracer.enabled else frozenset()
        self.emit = self._record if self.reads else None
        if registry is not None:
            registry.derive("network", self._publish)
        self.max_events = max_events
        self.fifo = fifo
        self.faults = faults
        #: Whether the at-least-once reliability protocol must be on.
        self.reliable = faults is not None and faults.active
        self.fault_rng = random.Random(faults.seed if faults else 0)
        self.now = 0.0
        # Real network traffic and local timers are counted separately:
        # a retry timer is not a message on the wire (experiment E7
        # reads per-kind counts as protocol overhead).
        self.messages_sent = 0
        self.messages_by_kind: dict[str, int] = {}
        self.deliveries_by_node: dict[str, int] = {}
        self.timers_set = 0
        self.timers_by_kind: dict[str, int] = {}
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_reordered = 0
        self.messages_severed = 0
        self.drops_while_down = 0
        self.crashes_applied = 0
        self.down: set[str] = set()
        self._heap: list[_Delivery] = []
        self._seq = 0
        # Lifetime event count: persists across resumed run(until=...)
        # calls so the livelock valve covers the whole simulation.
        self._events = 0
        self._handlers: dict[str, Callable[[Message], None]] = {}
        self._crash_hooks: dict[str, tuple[Callable[[], None], Callable[[], None]]] = {}
        self._last_delivery: dict[str, float] = {}
        if faults is not None:
            for event in faults.crashes:
                self._push(event.at, _FAULT_TARGET,
                           Message("crash", {"node": event.node}))
                self._push(event.until, _FAULT_TARGET,
                           Message("recover", {"node": event.node}))

    # ------------------------------------------------------------------

    def _record(self, kind: str, /, **data: Any) -> None:
        """``emit`` while the tracer reads anything: hand it ``kind``,
        stamped with simulation time, if it reads that kind."""
        if kind in self.reads:
            self.tracer.emit(kind, self.now, **data)

    def _publish(self, registry: MetricsRegistry) -> None:
        """Set the traffic series from the counts above; the registry
        calls this before every read."""
        for kind, count in self.messages_by_kind.items():
            registry.put(
                "counter", "repro_net_messages_total",
                "Messages put on the wire, by kind.", count, kind=kind,
            )
        for node, count in self.deliveries_by_node.items():
            registry.put(
                "counter", "repro_net_deliveries_total",
                "Messages delivered to a handler, by node.", count, node=node,
            )

    def register(self, name: str, handler: Callable[[Message], None]) -> None:
        if name in self._handlers:
            raise NetworkError(f"handler {name!r} already registered")
        self._handlers[name] = handler

    def register_crash_hooks(
        self,
        name: str,
        on_crash: Callable[[], None],
        on_recover: Callable[[], None],
    ) -> None:
        """Callbacks invoked when ``name`` crashes / recovers: the node
        uses them to wipe volatile state and replay its durable log."""
        self._crash_hooks[name] = (on_crash, on_recover)

    def _push(self, when: float, target: str, message: Message) -> None:
        self._seq += 1
        heapq.heappush(self._heap, _Delivery(when, self._seq, target, message))

    def send(
        self,
        target: str,
        message: Message,
        delay: float | None = None,
        source: str | None = None,
        timer: bool = False,
    ) -> None:
        """Queue a message for delivery after the network latency (or at
        an explicit ``delay``, e.g. a scheduled restart).

        Latency-delivered messages ride per-target FIFO channels (a
        message never overtakes an earlier one to the same handler — undo
        must not race grant); explicit-delay messages skip the channel so
        a long backoff cannot freeze every later delivery to its target.

        ``timer=True`` marks the message as a *local* timer (retry ticks,
        commit-check polls, retransmit alarms): timers are not network
        traffic, are counted separately, and are never touched by link
        faults — though they still die silently if their owner is down
        when they fire.
        """
        if target not in self._handlers:
            raise NetworkError(f"no handler registered for {target!r}")
        if timer:
            self.timers_set += 1
            self.timers_by_kind[message.kind] = (
                self.timers_by_kind.get(message.kind, 0) + 1
            )
            self._push(self.now + (delay or 0.0), target, message)
            return
        self.messages_sent += 1
        self.messages_by_kind[message.kind] = (
            self.messages_by_kind.get(message.kind, 0) + 1
        )
        emit = self.emit
        if emit:
            emit("msg.send", kind=message.kind, source=source, target=target)
        link = None
        if self.faults is not None and self.reliable:
            if self.faults.severed(source, target, self.now):
                self.messages_severed += 1
                if emit:
                    emit(
                        "msg.sever", kind=message.kind,
                        source=source, target=target,
                    )
                return
            link = self.faults.link(source, target)
            if link.drop > 0 and self.fault_rng.random() < link.drop:
                self.messages_dropped += 1
                if emit:
                    emit(
                        "msg.drop", kind=message.kind,
                        source=source, target=target,
                    )
                return
        if delay is not None:
            # Scheduled departure (e.g. a backed-off restart): the wire
            # time is part of the schedule, outside the FIFO channel.
            when = self.now + delay
        else:
            when = self.now + self.rng.uniform(*self.latency)
            reordered = (
                link is not None
                and link.reorder > 0
                and self.fault_rng.random() < link.reorder
            )
            if reordered:
                # Relaxed FIFO: this message escapes the channel and may
                # overtake earlier traffic to the same target.
                self.messages_reordered += 1
                when += self.fault_rng.uniform(0.0, link.reorder_jitter)
                if emit:
                    emit(
                        "msg.reorder", kind=message.kind,
                        source=source, target=target, when=when,
                    )
            elif self.fifo:
                when = max(when, self._last_delivery.get(target, 0.0) + 1e-9)
                self._last_delivery[target] = when
        self._push(when, target, message)
        if (
            link is not None
            and link.duplicate > 0
            and self.fault_rng.random() < link.duplicate
        ):
            # A rogue copy with its own jitter, outside the FIFO channel.
            self.messages_duplicated += 1
            extra = when if delay is not None else (
                self.now + self.rng.uniform(*self.latency)
            )
            if link.reorder_jitter > 0:
                extra += self.fault_rng.uniform(0.0, link.reorder_jitter)
            self._push(extra, target, message)
            if emit:
                emit(
                    "msg.dup", kind=message.kind,
                    source=source, target=target, when=extra,
                )

    # ------------------------------------------------------------------

    def _apply_fault_event(self, message: Message) -> None:
        node = message.payload["node"]
        if node not in self._handlers:
            raise NetworkError(f"crash event for unknown node {node!r}")
        hooks = self._crash_hooks.get(node)
        if message.kind == "crash":
            self.down.add(node)
            self.crashes_applied += 1
            if self.emit:
                self.emit("node.crash", node=node)
            if hooks is not None:
                hooks[0]()
        else:
            self.down.discard(node)
            if self.emit:
                self.emit("node.recover", node=node)
            if hooks is not None:
                hooks[1]()

    def run(self, until: float | None = None) -> float:
        """Deliver messages until the system quiesces; returns the final
        simulation time (the makespan).

        With ``until`` the drain stops once the next delivery lies past
        that simulation time, leaving it queued — the pump mode used by
        the live dashboard (``repro top --distributed``).  The event
        budget accumulates across resumed calls."""
        while self._heap:
            if until is not None and self._heap[0].time > until:
                break
            self._events += 1
            if self._events > self.max_events:
                raise NetworkError(
                    f"network exceeded {self.max_events} events; livelock?"
                )
            delivery = heapq.heappop(self._heap)
            self.now = delivery.time
            if delivery.target == _FAULT_TARGET:
                self._apply_fault_event(delivery.message)
                continue
            if delivery.target in self.down:
                # A crashed node neither receives traffic nor fires its
                # timers; both die silently while it is down.
                self.drops_while_down += 1
                if self.emit:
                    self.emit(
                        "msg.lost-down",
                        kind=delivery.message.kind, target=delivery.target,
                    )
                continue
            if self.emit:
                self.emit(
                    "msg.recv",
                    kind=delivery.message.kind, target=delivery.target,
                )
            self.deliveries_by_node[delivery.target] = (
                self.deliveries_by_node.get(delivery.target, 0) + 1
            )
            self._handlers[delivery.target](delivery.message)
        return self.now

    @property
    def idle(self) -> bool:
        """Whether the heap is fully drained (the system quiesced)."""
        return not self._heap

    def fault_summary(self) -> dict[str, int]:
        return {
            "dropped": self.messages_dropped,
            "duplicated": self.messages_duplicated,
            "reordered": self.messages_reordered,
            "severed": self.messages_severed,
            "lost_to_down_node": self.drops_while_down,
            "crashes": self.crashes_applied,
        }
