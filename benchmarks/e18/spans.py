"""Span recording for E18's traced run.

Spans are taken from the benchmark's side of each layer boundary: a
timing proxy is swapped in around a public callable of the program and
swapped out again afterwards; nothing in ``src/`` is edited.  Spans are
``(name, start, end, parent)`` rows held in memory and written out when
the run ends.  A layer's self time is its spans' duration minus the part
their child spans cover.
"""

from __future__ import annotations

import collections.abc
import json
import time
from contextlib import contextmanager


class Recorder:
    """In-memory span list with a stack giving each span its parent."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object, bool]] = []

    # -- recording ------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    # -- proxies --------------------------------------------------------

    def timed(self, name: str, call):
        """A proxy for a plain callable."""
        begin, end = self.begin, self.end

        def proxy(*args, **kwargs):
            index = begin(name)
            try:
                return call(*args, **kwargs)
            finally:
                end(index)

        return proxy

    def timed_coroutine(self, name: str, call):
        """A proxy for a coroutine function: every resumption of the
        coroutine is one span, so time spent suspended (other tasks
        running) is never counted as this layer's."""
        recorder = self

        def proxy(*args, **kwargs):
            return _SteppedCoroutine(call(*args, **kwargs), name, recorder)

        return proxy

    def swap(self, owner, attribute: str, name: str, coroutine=False) -> None:
        """Replace ``owner.attribute`` with a timing proxy until
        :meth:`restore`."""
        had_own = attribute in vars(owner)
        original = getattr(owner, attribute)
        wrap = self.timed_coroutine if coroutine else self.timed
        self._undo.append((owner, attribute, vars(owner).get(attribute), had_own))
        setattr(owner, attribute, wrap(name, original))

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # -- reading --------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        table: dict[str, dict[str, float]] = {}
        for name in set(self.names):
            table[name] = {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            row = table[name]
            row["calls"] += 1
            row["seconds"] += duration
            row["self_seconds"] += duration
            parent = self.parents[index]
            if parent >= 0:
                table[self.names[parent]]["self_seconds"] -= duration
        return table

    def covered_seconds(self) -> float:
        """Wall covered by at least one span (top-level spans never
        overlap: the traced run is single-threaded)."""
        return sum(
            self.ends[i] - self.starts[i]
            for i, parent in enumerate(self.parents)
            if parent < 0
        )

    def dump(self, path: str, header: dict) -> None:
        base = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **header,
                    "columns": ["name", "start_us", "end_us", "parent"],
                    "spans": [
                        [
                            self.names[i],
                            round((self.starts[i] - base) * 1e6, 1),
                            round((self.ends[i] - base) * 1e6, 1),
                            self.parents[i],
                        ]
                        for i in range(len(self.names))
                    ],
                },
                handle,
            )


class _SteppedCoroutine(collections.abc.Coroutine):
    """Awaitable wrapper timing each ``send``/``throw`` of a coroutine."""

    def __init__(self, inner, name: str, recorder: Recorder) -> None:
        self._inner = inner
        self._name = name
        self._recorder = recorder

    def send(self, value):
        index = self._recorder.begin(self._name)
        try:
            return self._inner.send(value)
        finally:
            self._recorder.end(index)

    def throw(self, *args):
        index = self._recorder.begin(self._name)
        try:
            return self._inner.throw(*args)
        finally:
            self._recorder.end(index)

    def close(self) -> None:
        self._inner.close()

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)
