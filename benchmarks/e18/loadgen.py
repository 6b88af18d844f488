"""Load for E18: the benchmark's own submission generator and its
closed-loop socket driver.  Imports nothing from ``repro`` — the program
under test receives only the wire dicts made here, so an edit to
``src/repro/workloads/traffic.py`` cannot change the load.

Shape (a frozen copy of ``traffic_specs``): 32 families x 8 entities,
4 shared entities, 2-5 accesses per transaction, read fraction 0.5,
breakpoint fraction 0.3; each access hits the shared pool with
probability ``contention``.
"""

from __future__ import annotations

import json
import math
import random
import selectors
import socket
import time
from typing import Iterator

FAMILIES = 32
ENTITIES_PER_FAMILY = 8
SHARED_ENTITIES = 4
OPS_RANGE = (2, 5)
READ_FRACTION = 0.5
BREAKPOINT_FRACTION = 0.3

#: Closed loop: ``lanes`` connections, one outstanding ``submit_batch`` of
#: ``WINDOW // lanes`` each, so what is in flight is exactly the server's
#: admission window.  Two lanes (one per core of the reference box) is the
#: shape; one lane makes every arrival find the server idle, which makes
#: the run over sockets exactly deterministic (see ``run.MLA_STREAMS``).
WINDOW = 32
LANES = 2

HOST = "127.0.0.1"
IO_TIMEOUT_S = 60.0
#: No reply for this long while requests are outstanding means the
#: server is wedged (a round trip takes tens of milliseconds).
WEDGED_AFTER_S = 20.0
MAX_LOAD_RETRIES = 200


def submissions(seed, prefix: str, contention: float) -> Iterator[dict]:
    """Endless deterministic stream of ``Submission`` wire dicts named
    ``<prefix>0``, ``<prefix>1``, ...  ``seed`` is anything
    ``random.Random`` accepts (lane ``i`` seeds with ``"<seed>/<i>"``)."""
    rng = random.Random(seed)
    index = 0
    while True:
        family = rng.randrange(FAMILIES)
        ops: list[list] = []
        for position in range(rng.randint(*OPS_RANGE)):
            if position > 0 and rng.random() < BREAKPOINT_FRACTION:
                ops.append(["bp", 2])
            if rng.random() < contention:
                entity = f"shared.e{rng.randrange(SHARED_ENTITIES)}"
            else:
                entity = f"fam{family}.e{rng.randrange(ENTITIES_PER_FAMILY)}"
            if rng.random() < READ_FRACTION:
                ops.append(["read", entity])
            else:
                ops.append(["add", entity, rng.randint(-5, 9)])
        name = f"{prefix}{index}"
        yield {
            "program": {"name": name, "path": [f"fam{family}"], "ops": ops},
            "client_id": "e18",
            "idempotency_key": name,
        }
        index += 1


def lane_sources(seed: int, contention: float, count: int, lanes: int = LANES):
    """``(stream, share of count)`` for each lane."""
    return [
        (
            submissions(f"{seed}/{lane}", "abcdefgh"[lane], contention),
            count // lanes + (1 if lane < count % lanes else 0),
        )
        for lane in range(lanes)
    ]


def batch_line(batch: list[dict]) -> bytes:
    return json.dumps({"op": "submit_batch", "submissions": batch}).encode() + b"\n"


def percentile(values, q: float):
    """Nearest-rank percentile; with fewer than 1/(1-q) samples this is
    the maximum."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


class Connection:
    """One newline-JSON connection (blocking sends, line-buffered reads)."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection((HOST, port), timeout=IO_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def send(self, line: bytes) -> None:
        self.sock.sendall(line)

    def read_some(self) -> bytes | None:
        """One ``recv``; the next complete line if there is one now."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk
        if b"\n" not in self._buffer:
            return None
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line

    def recv_line(self) -> bytes:
        while True:
            line = self.read_some()
            if line is not None:
                return line

    def request(self, payload: dict) -> dict:
        self.send(json.dumps(payload).encode() + b"\n")
        return json.loads(self.recv_line())

    def close(self) -> None:
        self.sock.close()


class _Lane:
    """One closed-loop caller: at most one request outstanding."""

    def __init__(self, port: int, source, quota: int, batch: int) -> None:
        self.conn = Connection(port)
        self.source = source
        self.remaining = quota
        self.batch = batch
        self.sent: list[dict] = []
        self.raw: list[bytes] = []
        self.request_bytes = 0
        self.response_bytes = 0
        self.retries = 0
        self.gave_up = 0
        self.in_flight: list[dict] = []
        self.attempts = 0
        self.sent_at = 0.0
        self.upcoming = self._make_batch()

    def _make_batch(self):
        size = min(self.batch, self.remaining)
        if size == 0:
            return None
        self.remaining -= size
        batch = [next(self.source) for _ in range(size)]
        return batch, batch_line(batch)

    def send_next(self) -> None:
        """Send the prepared batch, then prepare the following one while
        the server works on this one."""
        batch, line = self.upcoming
        self.sent_at = time.perf_counter()
        self.conn.send(line)
        self.in_flight = batch
        self.attempts = 0
        self.sent.extend(batch)
        self.request_bytes += len(line)
        self.upcoming = self._make_batch()

    def retry_rejected(self, raw: bytes) -> bool:
        """Client half of the backpressure protocol: resubmit what the
        admission window refused, after the server's ``retry_after``
        hint.  True when a retry is now in flight."""
        responses = json.loads(raw).get("responses", [])
        again = [
            sub for sub, response in zip(self.in_flight, responses)
            if response.get("rejection") == "load"
        ]
        if not again:
            return False
        self.attempts += 1
        if self.attempts > MAX_LOAD_RETRIES:
            self.gave_up += len(again)
            return False
        self.retries += len(again)
        time.sleep(max(r.get("retry_after", 0.01) for r in responses))
        self.in_flight = again
        self.conn.send(batch_line(again))
        return True


def drive(server, seed: int, contention: float, count: int,
          lanes: int = LANES) -> dict:
    """Push exactly ``count`` submissions through ``server`` over
    ``lanes`` closed-loop connections.  Responses are kept raw and
    parsed after the clock has stopped."""
    lanes = [
        _Lane(server.port, source, quota, WINDOW // lanes)
        for source, quota in lane_sources(seed, contention, count, lanes)
    ]
    selector = selectors.DefaultSelector()
    latencies: list[float] = []
    end = 0.0
    wedged = False
    try:
        for lane in lanes:
            selector.register(lane.conn.sock, selectors.EVENT_READ, lane)
        start = time.perf_counter()
        cpu_start = server.cpu_s()
        busy = set(lanes)
        for lane in lanes:
            lane.send_next()
        while busy:
            events = selector.select(WEDGED_AFTER_S)
            if not events:
                wedged = True
                break
            for key, _ in events:
                lane = key.data
                raw = lane.conn.read_some()
                if raw is None:
                    continue
                end = time.perf_counter()
                lane.raw.append(raw)
                lane.response_bytes += len(raw)
                if b'"rejection"' in raw and lane.retry_rejected(raw):
                    continue
                latencies.append(end - lane.sent_at)
                if lane.upcoming is not None:
                    lane.send_next()
                else:
                    busy.discard(lane)
        cpu_s = server.cpu_s() - cpu_start
    finally:
        selector.close()
        for lane in lanes:
            lane.conn.close()
    envelopes: dict[str, dict] = {}
    failures: list[str] = []
    for lane in lanes:
        for raw in lane.raw:
            for response in json.loads(raw).get("responses", []):
                if response.get("rejection") == "load":
                    continue  # answered by a later retry, or gave up
                envelope = response.get("envelope", {})
                name = envelope.get("name")
                if name in envelopes:
                    failures.append(f"{name}: more than one envelope")
                envelopes[name] = envelope
    if wedged:
        failures.append(
            f"server wedged: no reply for {WEDGED_AFTER_S:.0f} s with "
            f"{sum(len(lane.in_flight) for lane in busy)} submissions in flight"
        )
    return {
        "start": start,
        "end": end,  # the last acknowledgement
        "cpu_s": cpu_s,  # server CPU between the two
        "latencies_s": latencies,  # one round trip per batch
        "sent": [sub for lane in lanes for sub in lane.sent],
        "envelopes": envelopes,
        "failures": failures,
        "request_bytes": sum(lane.request_bytes for lane in lanes),
        "response_bytes": sum(lane.response_bytes for lane in lanes),
        "retries": sum(lane.retries for lane in lanes),
        "gave_up": sum(lane.gave_up for lane in lanes),
    }


def check_envelopes(run: dict) -> tuple[int, list[str]]:
    """Every submission has exactly one ``committed``/``restarted``
    envelope and the serial positions are a permutation of 0..N-1.
    Returns ``(committed, failures)``."""
    failures = list(run["failures"])
    envelopes = run["envelopes"]
    committed = 0
    positions = []
    for sub in run["sent"]:
        name = sub["program"]["name"]
        envelope = envelopes.get(name)
        if envelope is None:
            failures.append(f"{name}: no envelope")
        elif envelope.get("status") not in ("committed", "restarted"):
            failures.append(f"{name}: status {envelope.get('status')!r}")
        else:
            committed += 1
            positions.append(envelope["serial_position"])
    if not failures and sorted(positions) != list(range(len(run["sent"]))):
        failures.append("serial positions are not a permutation of 0..N-1")
    return committed, failures
