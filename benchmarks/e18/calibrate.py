"""Core-speed calibration for E18.

On the shared hosts this benchmark runs on, the time the same program
needs for the same work swings by a factor of up to two from one second
to the next, independently per core (README, "Noise").  Raw timings of
identical runs therefore spread by 15-30 %, a calibration loop timed
before and after a run does not see it (the noise is faster than a
run), and a small arithmetic loop does not see it either (it hits code
with a large footprint — an interpreter at work — much harder than a
loop that lives in the L1 cache).

So everything — the program under test, the benchmark's load generator
and a *calibrator* process — is pinned to one core (cross-core wake-ups
are the other large noise source in a guest: with the client on its own
core, wall-clock throughput spread twice as much as the server's CPU
cost), and the calibrator runs a fixed slice of ordinary
interpreter work — objects, generators, dicts, sets, sorting, JSON,
string formatting — about every ten milliseconds for as long as the
measurement lasts, timing each pass in its own thread-CPU time.  That
clock does not advance while the program has the core, so the passes
measure what a unit of interpreter work costs on that core during that
run.  Every timing E18 reports is scaled by it:

    calibrated = raw * REFERENCE_PASS_S / (mean pass time in the window)

i.e. times are given as on a core that does a pass in
``REFERENCE_PASS_S``.  Wall-clock windows are first reduced by the CPU
the calibrator itself used in them (it shares the core).

The calibrator is frozen benchmark code: it imports nothing from the
program, so no change to the program can move the ruler.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time

#: Thread-CPU seconds one pass takes on the reference core (the quiet
#: median on the 2-core Xeon 2.1 GHz box E18 was defined on).
REFERENCE_PASS_S = 0.00100
#: Sleep between passes: about a tenth of the core goes to calibration.
PAUSE_S = 0.009


class _Node:
    __slots__ = ("key", "kids", "value")

    def __init__(self, key: int) -> None:
        self.key = key
        self.kids: list["_Node"] = []
        self.value = {"a": key, "b": str(key)}

    def walk(self):
        yield self.key
        for kid in self.kids:
            yield from kid.walk()


def _records(count: int):
    for i in range(count):
        yield i, f"e{i % 97}", {"kind": "read" if i % 2 else "add", "v": i}


_DOCUMENT = [
    {
        "program": {
            "name": f"a{i}",
            "path": ["fam1"],
            "ops": [["read", f"fam1.e{i % 8}"], ["bp", 2],
                    ["add", f"fam1.e{(i + 3) % 8}", i % 9]],
        },
        "client_id": "e18",
        "idempotency_key": f"a{i}",
    }
    for i in range(6)
]


def one_pass() -> int:
    """The unit of work.  Never change it: every recorded E18 number is
    expressed in it."""
    total = 0
    root = _Node(0)
    nodes = [root]
    for i in range(1, 110):
        node = _Node(i)
        nodes[i % len(nodes)].kids.append(node)
        nodes.append(node)
    total += sum(root.walk())
    by_entity: dict[str, list] = {}
    seen = set()
    for i, entity, record in _records(560):
        by_entity.setdefault(entity, []).append(record)
        seen.add((entity, i % 13))
        if record["kind"] == "add":
            total += record["v"]
    total += len(sorted(seen, key=lambda pair: (pair[1], pair[0])))
    line = json.dumps({"op": "submit_batch", "submissions": _DOCUMENT},
                      sort_keys=True)
    total += len(json.loads(line)["submissions"])
    total += len("|".join(
        f"{key}={len(value)}" for key, value in sorted(by_entity.items())
    ))
    return total


def shared_core() -> int | None:
    """The one core the benchmark, the program and the calibrator all
    run on (the highest allowed); ``None`` on a single core, where
    nothing needs pinning."""
    cores = sorted(os.sched_getaffinity(0))
    return cores[-1] if len(cores) > 1 else None


def _worker(core: str) -> None:
    """Child entry point: passes until SIGTERM, then the samples as JSON
    ``[[perf_counter at start, thread-CPU seconds], ...]`` on stdout."""
    if core != "-":
        os.sched_setaffinity(0, {int(core)})
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    parent = os.getppid()
    samples = []
    while not stopping and os.getppid() == parent:  # never outlive the run
        started = time.perf_counter()
        cpu = time.thread_time()
        one_pass()
        samples.append((started, time.thread_time() - cpu))
        time.sleep(PAUSE_S)
    json.dump(samples, sys.stdout)


class Calibrator:
    """Owns the calibrator process for one benchmark run.

    ``perf_counter`` is the system-wide monotonic clock on Linux, so the
    worker's timestamps and the benchmark's are comparable."""

    def __init__(self) -> None:
        self.core = shared_core()
        if self.core is not None:
            os.sched_setaffinity(0, {self.core})
        core = "-" if self.core is None else str(self.core)
        self._child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), core],
            stdout=subprocess.PIPE,
        )
        self.samples: list[tuple[float, float]] = []

    def pin_program(self, pid: int) -> None:
        if self.core is not None:
            os.sched_setaffinity(pid, {self.core})

    def stop(self) -> None:
        """Stop the worker and collect its samples (idempotent)."""
        if self._child is None:
            return
        child, self._child = self._child, None
        try:
            child.send_signal(signal.SIGTERM)
            out, _ = child.communicate(timeout=30)
            self.samples = [tuple(row) for row in json.loads(out)]
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()

    def window(self, start: float, end: float) -> "Window":
        """Calibration over ``[start, end]`` (``perf_counter`` times);
        call after :meth:`stop`."""
        inside = [cpu for at, cpu in self.samples if start <= at <= end]
        if len(inside) < 3:
            # Too short to hold passes of its own: borrow the nearest.
            nearest = sorted(
                self.samples, key=lambda s: abs(s[0] - (start + end) / 2)
            )[:5]
            return Window(
                end - start, sum(inside),
                statistics.mean(cpu for _, cpu in nearest),
            )
        return Window(end - start, sum(inside), statistics.mean(inside))


class Window:
    """One measured interval with the calibration that covers it."""

    def __init__(self, raw_wall_s: float, calibrator_cpu_s: float,
                 pass_s: float) -> None:
        self.raw_wall_s = raw_wall_s
        self.pass_s = pass_s
        #: Core speed relative to the reference (> 1 = faster).
        self.speed = REFERENCE_PASS_S / pass_s
        #: Share of the interval the program had the core to itself.
        self.share = max(0.5, 1.0 - calibrator_cpu_s / raw_wall_s)

    def wall(self, raw_s: float | None = None) -> float:
        """A wall-clock duration inside this window, calibrated."""
        raw = self.raw_wall_s if raw_s is None else raw_s
        return raw * self.share * self.speed

    def cpu(self, raw_cpu_s: float) -> float:
        """CPU seconds the program used inside this window, calibrated."""
        return raw_cpu_s * self.speed


if __name__ == "__main__":
    _worker(sys.argv[1])
