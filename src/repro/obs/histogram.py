"""A small fixed-bucket latency histogram.

Power-of-two buckets (bucket *i* holds values whose bit length is *i*,
i.e. ``[2^(i-1), 2^i - 1]``; bucket 0 holds zero), so recording is one
``int.bit_length()`` — no search, no allocation, no configuration.  With
48 buckets the range covers every latency a simulated run can produce.

Percentile queries return the *upper bound* of the selected bucket,
clamped to the observed maximum: a conservative (never-understating)
estimate whose relative error is bounded by the bucket width (2x).
That is the right trade for the Section 6 conjectures, which compare
distributions across schedulers rather than absolute values.

Histograms merge by bucket-wise addition, which is exact: a registry
series copies its owner's histogram by merging it into an empty one.
"""

from __future__ import annotations

import math

__all__ = ["Histogram"]

_BUCKETS = 48


class Histogram:
    """Fixed-bucket histogram over non-negative integer samples."""

    __slots__ = ("counts", "count", "total", "max")

    def __init__(self) -> None:
        self.counts = [0] * _BUCKETS
        self.count = 0
        self.total = 0
        self.max = 0

    # ------------------------------------------------------------------

    def record(self, value: int) -> None:
        if value < 0:
            value = 0
        self.counts[min(int(value).bit_length(), _BUCKETS - 1)] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    def copy(self) -> "Histogram":
        return Histogram().merge(self)

    def merge(self, other: "Histogram") -> "Histogram":
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total
        self.max = max(self.max, other.max)
        return self

    # ------------------------------------------------------------------

    def percentile(self, p: float) -> int:
        """Upper-bound estimate of the ``p``-quantile (``p`` in [0, 1])."""
        if self.count == 0:
            return 0
        rank = min(self.count, max(1, math.ceil(p * self.count)))
        cumulative = 0
        for i, n in enumerate(self.counts):
            cumulative += n
            if cumulative >= rank:
                upper = 0 if i == 0 else (1 << i) - 1
                return min(upper, self.max)
        return self.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.counts == other.counts
            and self.count == other.count
            and self.total == other.total
            and self.max == other.max
        )

    def __repr__(self) -> str:
        return (
            f"Histogram(n={self.count}, mean={self.mean:.1f}, "
            f"p50={self.percentile(0.5)}, p95={self.percentile(0.95)}, "
            f"p99={self.percentile(0.99)}, max={self.max})"
        )
