"""A small synchronous client for the newline-JSON protocol.

One connection, one request in flight at a time — the shape ``repro
submit`` and the tests want.  (The traffic generator keeps many requests
in flight by opening several connections and pipelining with ``seq``
tags; see :mod:`repro.workloads.traffic`.)
"""

from __future__ import annotations

import json
import socket
from typing import Any

from repro.api import Submission
from repro.errors import ReproError

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(ReproError):
    """The server answered ``ok: false`` (and it was not a rejection the
    caller asked to see)."""


class ServiceClient:
    """Blocking client; usable as a context manager."""

    def __init__(
        self, host: str, port: int, timeout: float = 30.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------

    def request(self, payload: dict) -> dict:
        """Send one JSON line, read one JSON line."""
        self._file.write(json.dumps(payload).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServiceError("server closed the connection")
        response = json.loads(line)
        if not isinstance(response, dict):
            raise ServiceError(f"malformed response: {response!r}")
        return response

    def submit(self, submission: Submission) -> dict:
        """Submit and wait for the envelope.  Returns the full response —
        callers inspect ``ok`` / ``retry_after`` for rejections; the
        envelope (including rejections) is under ``"envelope"``."""
        return self.request(
            {"op": "submit", "submission": submission.to_dict()}
        )

    def health(self) -> dict:
        return self._ok(self.request({"op": "health"}))

    def metrics_text(self) -> str:
        return self._ok(self.request({"op": "metrics"}))["text"]

    def admission(self, samples: int = 20, seed: int = 0) -> list[dict]:
        return self._ok(
            self.request(
                {"op": "admission", "samples": samples, "seed": seed}
            )
        )["rows"]

    def drain(self) -> dict:
        return self._ok(self.request({"op": "drain"}))

    def shutdown(self) -> dict:
        return self._ok(self.request({"op": "shutdown"}))

    @staticmethod
    def _ok(response: dict) -> dict[str, Any]:
        if not response.get("ok"):
            raise ServiceError(response.get("error", "request failed"))
        return response
