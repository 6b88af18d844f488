"""The stable public facade: submissions in, result envelopes out.

Every way of running transaction programs in this repository — the CLI
``run``/``sweep`` commands, the test harnesses, and the service mode's
ingest server — goes through the same three types:

* :class:`ProgramSpec` — a *declarative*, JSON-representable transaction
  program.  The engine's native programs are Python generator closures
  (arbitrarily data-dependent, per Section 4.3 of the paper), which an
  external client cannot ship over a socket; ``ProgramSpec`` restricts
  the vocabulary to a small op set (``read`` / ``add`` / ``set`` /
  ``bp``) that compiles to an equivalent generator.  The spec carries
  its k-nest *path* (hierarchy labels, as in ``KNest.from_paths``), so
  the submission's atomicity-level annotations travel with the program
  and externally submitted traffic remains checkable.
* :class:`Submission` — a program spec plus client identity and an
  idempotency key (resubmission after a lost response must not run the
  transaction twice).
* :class:`ResultEnvelope` — the typed outcome: status, serial position
  in the commit order, latencies, attempt count, and the abort cause
  chain (from the flight-recorder explainer) when restarts happened.

All three round-trip through JSON via ``to_json`` / ``from_json``; the
wire format is versioned by construction (unknown fields are rejected,
and the service echoes the same shapes the library produces).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.engine.runtime import EngineResult
from repro.engine.schedulers.base import Scheduler
from repro.engine.schedulers.mla_detect import MLADetectScheduler
from repro.engine.schedulers.mla_prevent import MLAPreventScheduler
from repro.engine.schedulers.nested_lock import NestedLockScheduler
from repro.engine.schedulers.serial import SerialScheduler
from repro.engine.schedulers.timestamp import TimestampScheduler
from repro.engine.schedulers.two_phase import TwoPhaseLockingScheduler
from repro.errors import SpecificationError, load_json_object, require_keys
from repro.model.programs import (
    Breakpoint,
    TransactionProgram,
    read,
    update,
    write,
)

__all__ = [
    "SCHEDULER_FACTORIES",
    "make_scheduler",
    "ProgramSpec",
    "Submission",
    "ResultEnvelope",
    "ENVELOPE_STATUSES",
    "run_workload",
]

#: Scheduler name -> factory taking the workload's k-nest.  The CLI's
#: ``SCHEDULERS`` table is an alias of this map; the service accepts the
#: same names.
SCHEDULER_FACTORIES = {
    "serial": lambda nest: SerialScheduler(),
    "2pl": lambda nest: TwoPhaseLockingScheduler(),
    "timestamp": lambda nest: TimestampScheduler(),
    "mla-detect": lambda nest: MLADetectScheduler(nest),
    "mla-prevent": lambda nest: MLAPreventScheduler(nest),
    "mla-nested-lock": lambda nest: NestedLockScheduler(nest),
    "none": lambda nest: Scheduler(),
}


def make_scheduler(name: str, nest) -> Scheduler:
    """Instantiate a concurrency control by its public name."""
    factory = SCHEDULER_FACTORIES.get(name)
    if factory is None:
        raise SpecificationError(
            f"unknown scheduler {name!r}; choose from "
            f"{sorted(SCHEDULER_FACTORIES)}"
        )
    return factory(nest)


# ----------------------------------------------------------------------
# declarative programs
# ----------------------------------------------------------------------

#: op name -> arity of its operands (beyond the op name itself).
_OP_ARITY = {"read": 1, "add": 2, "set": 2, "bp": 1}


def _is_int(value) -> bool:
    """An ``int`` and not a ``bool`` — what a value, a delta or a level
    must be (entity values are integers; the engine adds to them)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ProgramSpec:
    """A declarative transaction program with its k-nest placement.

    ``ops`` is a tuple of op tuples:

    * ``("read", entity)`` — read; the value joins the program's result
      sum;
    * ``("add", entity, delta)`` — read-modify-write ``v + delta``;
    * ``("set", entity, value)`` — blind overwrite;
    * ``("bp", level)`` — declare a breakpoint at ``level`` (and all
      finer levels) between the surrounding accesses.

    Deltas, values and levels are ints (a ``bool`` is not one): entity
    values stay integers, so no later ``add`` or read can fail inside
    the engine.

    ``path`` places the transaction in the hierarchy exactly as a
    ``KNest.from_paths`` path does; all specs submitted to one engine
    must share a path length (the nest depth).

    The compiled program returns the sum of the values it read — a
    deterministic function of the values seen, so two runs producing the
    same committed history produce the same results map (the property
    the service/library differential checks).
    """

    name: str
    ops: tuple[tuple, ...]
    path: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SpecificationError("program name must be a non-empty string")
        object.__setattr__(self, "ops", tuple(tuple(op) for op in self.ops))
        object.__setattr__(self, "path", tuple(self.path))
        for label in self.path:
            if not isinstance(label, str):
                raise SpecificationError(
                    f"path labels must be strings, got {label!r}"
                )
        if not self.ops:
            raise SpecificationError(f"program {self.name!r} has no ops")
        accesses = 0
        previous_bp = True  # forbids a leading breakpoint too
        for op in self.ops:
            if not op or op[0] not in _OP_ARITY:
                raise SpecificationError(
                    f"program {self.name!r}: unknown op {op!r}"
                )
            kind = op[0]
            if len(op) != _OP_ARITY[kind] + 1:
                raise SpecificationError(
                    f"program {self.name!r}: op {op!r} has wrong arity"
                )
            if kind == "bp":
                if previous_bp:
                    raise SpecificationError(
                        f"program {self.name!r}: breakpoints must sit "
                        f"between two accesses"
                    )
                if not _is_int(op[1]) or op[1] < 1:
                    raise SpecificationError(
                        f"program {self.name!r}: breakpoint level must be "
                        f"a positive integer, got {op[1]!r}"
                    )
                previous_bp = True
                continue
            previous_bp = False
            accesses += 1
            if not isinstance(op[1], str) or not op[1]:
                raise SpecificationError(
                    f"program {self.name!r}: entity must be a non-empty "
                    f"string in {op!r}"
                )
            if kind != "read" and not _is_int(op[2]):
                what = "delta" if kind == "add" else "value"
                raise SpecificationError(
                    f"program {self.name!r}: {kind} {what} must be an int "
                    f"in {op!r}"
                )
        if previous_bp and accesses:
            raise SpecificationError(
                f"program {self.name!r}: trailing breakpoint"
            )
        if not accesses:
            raise SpecificationError(
                f"program {self.name!r} performs no accesses"
            )

    @property
    def entities(self) -> frozenset[str]:
        return frozenset(op[1] for op in self.ops if op[0] != "bp")

    def compile(self) -> TransactionProgram:
        """The equivalent generator program (result = sum of reads)."""
        ops = self.ops

        def body():
            total = 0
            for op in ops:
                kind = op[0]
                if kind == "read":
                    total += yield read(op[1])
                elif kind == "add":
                    yield update(op[1], lambda v, d=op[2]: v + d)
                elif kind == "set":
                    yield write(op[1], op[2])
                else:
                    yield Breakpoint(op[1])
            return total

        return TransactionProgram(self.name, body)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "path": list(self.path),
            "ops": [list(op) for op in self.ops],
        }

    @classmethod
    def from_dict(cls, data) -> "ProgramSpec":
        require_keys(data, {"name", "ops"}, optional={"path"}, kind="program")
        return cls(
            name=data["name"],
            ops=tuple(tuple(op) for op in data["ops"]),
            path=tuple(data.get("path", ())),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ProgramSpec":
        return cls.from_dict(load_json_object(text, "program"))


# ----------------------------------------------------------------------
# submissions and envelopes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Submission:
    """One client request: a program plus identity and idempotency.

    ``idempotency_key`` defaults to the program name — resubmitting the
    same submission (a retry after a lost response) is answered from the
    first run's envelope, never executed twice.
    """

    program: ProgramSpec
    client_id: str = ""
    idempotency_key: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.client_id, str):
            raise SpecificationError("client_id must be a string")
        if not isinstance(self.idempotency_key, str):
            raise SpecificationError("idempotency_key must be a string")
        if not self.idempotency_key:
            object.__setattr__(self, "idempotency_key", self.program.name)

    def to_dict(self) -> dict[str, Any]:
        return {
            "program": self.program.to_dict(),
            "client_id": self.client_id,
            "idempotency_key": self.idempotency_key,
        }

    @classmethod
    def from_dict(cls, data) -> "Submission":
        require_keys(
            data,
            {"program"},
            optional={"client_id", "idempotency_key"},
            kind="submission",
        )
        return cls(
            program=ProgramSpec.from_dict(data["program"]),
            client_id=data.get("client_id", ""),
            idempotency_key=data.get("idempotency_key", ""),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Submission":
        return cls.from_dict(load_json_object(text, "submission"))


#: ``committed``: first attempt committed.  ``restarted``: committed
#: after at least one rollback (the cause chain explains why).
#: ``rejected``: refused at admission (never reached the engine).
ENVELOPE_STATUSES = frozenset({"committed", "restarted", "rejected"})


@dataclass(frozen=True)
class ResultEnvelope:
    """The typed outcome of one submission.

    ``serial_position`` is the transaction's index in the commit order —
    its place in the equivalent serial-ish history the run certifies.
    Ticks are the engine's logical clock; ``latency_ticks`` is commit
    minus arrival.  ``abort_causes`` carries the explainer's cause-chain
    lines for the attempts that were rolled back.
    """

    name: str
    status: str
    serial_position: int | None = None
    arrival_tick: int | None = None
    commit_tick: int | None = None
    latency_ticks: int | None = None
    attempts: int = 1
    waits: int = 0
    result: Any = None
    abort_causes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.status not in ENVELOPE_STATUSES:
            raise SpecificationError(
                f"unknown envelope status {self.status!r}; expected one of "
                f"{sorted(ENVELOPE_STATUSES)}"
            )
        object.__setattr__(
            self, "abort_causes", tuple(self.abort_causes)
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "serial_position": self.serial_position,
            "arrival_tick": self.arrival_tick,
            "commit_tick": self.commit_tick,
            "latency_ticks": self.latency_ticks,
            "attempts": self.attempts,
            "waits": self.waits,
            "result": self.result,
            "abort_causes": list(self.abort_causes),
        }

    @classmethod
    def from_dict(cls, data) -> "ResultEnvelope":
        require_keys(
            data,
            {"name", "status"},
            optional={
                "serial_position", "arrival_tick", "commit_tick",
                "latency_ticks", "attempts", "waits", "result",
                "abort_causes",
            },
            kind="envelope",
        )
        return cls(
            name=data["name"],
            status=data["status"],
            serial_position=data.get("serial_position"),
            arrival_tick=data.get("arrival_tick"),
            commit_tick=data.get("commit_tick"),
            latency_ticks=data.get("latency_ticks"),
            attempts=data.get("attempts", 1),
            waits=data.get("waits", 0),
            result=data.get("result"),
            abort_causes=tuple(data.get("abort_causes", ())),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ResultEnvelope":
        return cls.from_dict(load_json_object(text, "envelope"))


# ----------------------------------------------------------------------
# the one entry path
# ----------------------------------------------------------------------


def run_workload(
    workload, scheduler: str, seed: int = 0, **engine_kwargs
) -> EngineResult:
    """Run a workload object (banking / CAD / FGL / ...) to completion
    under a named scheduler.  This is the entry path ``repro run`` and
    ``repro sweep`` use; the service reaches the same engine through
    :meth:`Engine.add_program` instead of up-front construction."""
    control = make_scheduler(scheduler, workload.nest)
    return workload.engine(control, seed=seed, **engine_kwargs).run()

