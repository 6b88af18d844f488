"""Exception hierarchy for the multilevel-atomicity reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause.
Beside :class:`SpecificationError` sit the two checks every reader of wire
and file JSON shares, so malformed input surfaces as that error.
"""

from __future__ import annotations

import json


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class SpecificationError(ReproError):
    """A formal object (nest, segmentation, breakpoint description,
    interleaving specification) violates the definitions of the paper."""


def load_json_object(text: str | bytes, kind: str) -> dict:
    """``text`` parsed as one JSON object; anything else — invalid JSON,
    another JSON value, nesting too deep for the parser — is a
    :class:`SpecificationError` naming ``kind``."""
    try:
        data = json.loads(text)
    except (TypeError, ValueError) as exc:
        raise SpecificationError(
            f"malformed {kind}: not valid JSON: {exc}"
        ) from exc
    except RecursionError:
        raise SpecificationError(
            f"malformed {kind}: JSON nested too deeply"
        ) from None
    if not isinstance(data, dict):
        raise SpecificationError(f"{kind} must be a JSON object")
    return data


def require_keys(data, required: set, optional: set, kind: str) -> None:
    """Check a wire object's keys: all of ``required``, nothing outside
    ``required | optional``."""
    if not isinstance(data, dict):
        raise SpecificationError(f"{kind} must be a JSON object")
    missing = required - set(data)
    if missing:
        raise SpecificationError(f"{kind} is missing keys: {sorted(missing)}")
    unknown = set(data) - required - optional
    if unknown:
        raise SpecificationError(f"{kind} has unknown keys: {sorted(unknown)}")


class NotAPartialOrderError(ReproError):
    """A relation expected to be a (strict) partial order contains a cycle."""


class NotCoherentError(ReproError):
    """A relation expected to be coherent violates coherence condition (a)
    or (b) of Section 4.2."""


class NotCorrectableError(ReproError):
    """An execution is not equivalent to any multilevel-atomic execution
    (Theorem 2: the coherent closure of its dependency order has a cycle)."""


class ExecutionError(ReproError):
    """An execution violates the consistency requirements of Section 3.1
    (stale process state or stale variable value)."""


class EngineError(ReproError):
    """Generic engine misuse (e.g. accessing an unknown entity)."""


class NetworkError(ReproError):
    """Misuse of the simulated network in the distributed substrate."""


class RecoveryError(ReproError):
    """Durability-layer failure: a corrupt write-ahead log, an unusable
    snapshot, or a replay that diverges from the logged decisions."""
