"""The two instrument kinds: counters and latency histograms.

Instruments are plain objects with their own locks, so concurrent
updates from server session threads and SQL callbacks never lose
increments (Python's ``+=`` on an attribute is *not* atomic — it is a
read/modify/write that can interleave under the GIL).  Reads take the
same lock, so a snapshot observes a consistent value.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Optional, Tuple

__all__ = ["Counter", "Histogram", "DEFAULT_BOUNDS"]

#: Default histogram bucket upper bounds, in seconds — log-spaced from
#: a microsecond to ten seconds, sized for routine-call latencies.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (default 1) to the count."""
        with self._lock:
            self._value += amount

    #: ``add`` reads better at call sites that record a measured volume
    #: (periods processed, rows returned) rather than an event count.
    add = inc

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Histogram:
    """A fixed-bucket distribution summary (count/sum/min/max + buckets).

    Observations are floats — by convention seconds, since every
    engine call site records latencies — but nothing enforces a unit.
    """

    __slots__ = ("name", "bounds", "_lock", "_count", "_sum", "_min", "_max", "_buckets")

    def __init__(self, name: str, bounds: Tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        self.name = name
        self.bounds = bounds
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        # One slot per bound plus the +Inf overflow slot.
        self._buckets = [0] * (len(bounds) + 1)

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(self.bounds, value)  # first bound >= value
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            self._buckets[index] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def _quantile_locked(self, q: float) -> Optional[float]:
        """The *q*-quantile estimated from the bucket state (lock held).

        Walks the cumulative bucket counts to the first bucket whose
        cumulative share reaches *q* and reports that bucket's upper
        bound, clamped to the observed max (so a histogram whose every
        observation landed in one wide bucket never reports a value
        larger than anything it saw).  The overflow bucket reports the
        observed max directly.  None while empty.
        """
        if not self._count:
            return None
        rank = q * self._count
        cumulative = 0
        for position, slot in enumerate(self._buckets):
            cumulative += slot
            if cumulative >= rank and slot:
                if position >= len(self.bounds):  # the +Inf overflow slot
                    return self._max
                bound = self.bounds[position]
                return min(bound, self._max) if self._max is not None else bound
        return self._max

    def snapshot(self) -> Dict:
        """A plain-data summary suitable for JSON framing.

        Includes p50/p95/p99 estimates derived from the bucket state —
        the summary quantiles METRICS frames, ``.metrics`` tables, and
        the Prometheus quantile gauges all surface.
        """
        with self._lock:
            buckets = {}
            for bound, slot in zip(self.bounds, self._buckets):
                if slot:
                    buckets[f"le_{bound:g}"] = slot
            if self._buckets[-1]:
                buckets["le_inf"] = self._buckets[-1]
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "mean": self._sum / self._count if self._count else 0.0,
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
                "buckets": buckets,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, n={self.count})"
