"""Child processes of E18: the real ``python -m repro.cli`` programs.

Every child started here is tracked and reaped (``SIGKILL`` + ``wait``)
on error, Ctrl-C or normal exit; all files a run makes live under one
per-run directory inside ``benchmarks/e18/out`` that is removed on
success.
"""

from __future__ import annotations

import os
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time

from loadgen import WINDOW, Connection

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

READY_TIMEOUT_S = 120.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_SERVING = re.compile(rb"serving on [^:\s]+:(\d+)")

_children: list[subprocess.Popen] = []


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # The flight recorder must not depend on hash order (PR 5/6 fixed
    # that); pinning it anyway keeps runs comparable across hosts.
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def require_program() -> None:
    """E18 measures the program in ``src/``; without it there is nothing
    to run (the driver checks this in a bare directory)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        sys.exit(f"e18: program under test not found at {SRC}")


def make_run_dir() -> str:
    path = os.path.join(OUT, f"run-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def spawn(argv: list[str], calibrator, **popen_kwargs) -> subprocess.Popen:
    """Start a tracked child on the shared core."""
    child = subprocess.Popen(argv, env=child_env(), cwd=ROOT, **popen_kwargs)
    _children.append(child)
    calibrator.pin_program(child.pid)
    return child


def kill(child: subprocess.Popen) -> None:
    """``SIGKILL`` and reap; safe on an already-dead child."""
    if child.poll() is None:
        child.send_signal(signal.SIGKILL)
    child.wait()
    for stream in (child.stdout, child.stderr):
        if stream is not None:
            stream.close()
    if child in _children:
        _children.remove(child)


def kill_all() -> None:
    for child in list(_children):
        kill(child)


class Server:
    """One ``repro serve`` child: spawned, port parsed from its
    ``serving on`` line, ready at its first ``health`` reply."""

    def __init__(self, scheduler: str, calibrator, wal: str | None = None,
                 history: str | None = None) -> None:
        args = ["serve", "--port", "0", "--scheduler", scheduler,
                "--window", str(WINDOW)]
        if wal is not None:
            args += ["--wal", wal]
        if history is not None:
            args += ["--history", history]
        self.child = spawn([sys.executable, "-m", "repro.cli", *args],
                           calibrator, stdout=subprocess.PIPE)
        self.pid = self.child.pid
        try:
            self.port = self._read_port()
            self.control = Connection(self.port)
            self.ready_health = self.health()
        except BaseException:
            kill(self.child)
            raise

    def _read_port(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        stdout = self.child.stdout
        buffered = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("server never printed its port")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(
                    f"server exited with code {self.child.wait()} before "
                    "serving"
                )
            buffered += chunk
            match = _SERVING.search(buffered)
            if match and b"\n" in buffered[match.end():]:
                return int(match.group(1))

    def health(self) -> dict:
        reply = self.control.request({"op": "health"})
        if not reply.get("ok"):
            raise RuntimeError(f"health failed: {reply}")
        return reply

    def cpu_s(self) -> float:
        """CPU seconds the server has used so far: on-CPU nanoseconds
        from ``schedstat`` where the kernel keeps them, else utime +
        stime at clock-tick resolution."""
        try:
            with open(f"/proc/{self.pid}/schedstat", "rb") as handle:
                return int(handle.read().split()[0]) / 1e9
        except (OSError, IndexError, ValueError):
            with open(f"/proc/{self.pid}/stat", "rb") as handle:
                fields = handle.read().rsplit(b") ", 1)[1].split()
            return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def rss_peak_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def shutdown(self) -> None:
        """Graceful stop: drain, fsync, history footer, exit."""
        self.control.request({"op": "shutdown"})
        self.control.close()
        try:
            self.child.wait(timeout=READY_TIMEOUT_S)
        finally:
            kill(self.child)

    def kill(self) -> None:
        self.control.close()
        kill(self.child)


def _run_to_exit(argv: list[str], stdout_path: str, calibrator,
                 timeout: float) -> dict:
    """Run a child to completion on the program core with its stdout in
    ``stdout_path``; ``wait4`` supplies the child's own rusage."""
    with open(stdout_path, "wb") as sink:
        started = time.perf_counter()
        child = spawn(argv, calibrator, stdout=sink)
        watchdog = threading.Timer(timeout, child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            kill(child)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    _children.remove(child)
    return {
        "exit": child.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def run_cli(args: list[str], stdout_path: str, calibrator,
            timeout: float = 170.0) -> dict:
    """One ``python -m repro.cli`` command, run to completion."""
    return _run_to_exit(
        [sys.executable, "-m", "repro.cli", *args], stdout_path, calibrator,
        timeout,
    )


def run_script(script: str, args: list[str], stdout_path: str, calibrator,
               timeout: float = 170.0) -> dict:
    """One script of this directory, run to completion."""
    return _run_to_exit(
        [sys.executable, os.path.join(HERE, script), *args], stdout_path,
        calibrator, timeout,
    )
