"""The two instrument kinds: counters and latency histograms.

Instruments are plain objects with their own locks, so concurrent
updates from server session threads and SQL callbacks never lose
increments (Python's ``+=`` on an attribute is *not* atomic — it is a
read/modify/write that can interleave under the GIL).  Reads take the
same lock, so a snapshot observes a consistent value.

The per-call routine wrappers (:func:`repro.obs.instrumented`) skip the
lock: each records into its own :class:`Shard`, which only its one
writer thread touches, and a counter or histogram adds its attached
shards in when read.  A shard whose owner has been freed can have no
writer left, so reads and attaches fold it into the instrument's own
totals and drop it.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

__all__ = ["Counter", "Histogram", "Shard", "DEFAULT_BOUNDS"]

#: Default histogram bucket upper bounds, in seconds — log-spaced from
#: a microsecond to ten seconds, sized for routine-call latencies.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


class Shard:
    """One writer's lock-free tallies for a calls counter and a latency
    histogram: a count, a sum, min/max and bucket counts.

    *owner* is a weak reference to the object whose lifetime bounds the
    writer; *epoch* is the registry epoch the shard was attached in.
    """

    __slots__ = ("epoch", "owner", "count", "sum", "min", "max", "buckets")

    def __init__(self, epoch: object, owner, slots: int) -> None:
        self.epoch = epoch
        self.owner = owner
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets = [0] * slots


def _live(shards: List[Shard], fold) -> List[Shard]:
    """*shards* without those whose owner is gone, each of which is
    passed to *fold* first."""
    live = []
    for shard in shards:
        if shard.owner() is None:
            fold(shard)
        else:
            live.append(shard)
    return live


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "_value", "_lock", "_shards")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()
        self._shards: List[Shard] = []

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (default 1) to the count."""
        with self._lock:
            self._value += amount

    #: ``add`` reads better at call sites that record a measured volume
    #: (periods processed, rows returned) rather than an event count.
    add = inc

    def attach(self, shard: Shard) -> None:
        """Count *shard*'s calls in this counter from now on."""
        with self._lock:
            self._shards = _live(self._shards, self._fold)
            self._shards.append(shard)

    def _fold(self, shard: Shard) -> None:
        self._value += shard.count

    @property
    def value(self) -> int:
        with self._lock:
            if not self._shards:
                return self._value
            self._shards = _live(self._shards, self._fold)
            return self._value + sum(shard.count for shard in self._shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Histogram:
    """A fixed-bucket distribution summary (count/sum/min/max + buckets).

    Observations are floats — by convention seconds, since every
    engine call site records latencies — but nothing enforces a unit.
    """

    __slots__ = ("name", "bounds", "_lock", "_count", "_sum", "_min", "_max", "_buckets",
                 "_shards")

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
        self._shards: List[Shard] = []

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

    def attach(self, shard: Shard) -> None:
        """Include *shard*'s observations in this histogram from now on."""
        with self._lock:
            self._shards = _live(self._shards, self._fold)
            self._shards.append(shard)

    def _fold(self, shard: Shard) -> None:
        if not shard.count:
            return
        self._count += shard.count
        self._sum += shard.sum
        if self._min is None or shard.min < self._min:
            self._min = shard.min
        if self._max is None or shard.max > self._max:
            self._max = shard.max
        for index, slot in enumerate(shard.buckets):
            self._buckets[index] += slot

    def _merged_locked(self):
        """``(count, sum, min, max, buckets)`` with every shard added in
        (lock held)."""
        if self._shards:
            self._shards = _live(self._shards, self._fold)
        count, total, low, high = self._count, self._sum, self._min, self._max
        buckets = list(self._buckets)
        for shard in self._shards:
            if not shard.count:
                continue
            count += shard.count
            total += shard.sum
            if low is None or shard.min < low:
                low = shard.min
            if high is None or shard.max > high:
                high = shard.max
            for index, slot in enumerate(shard.buckets):
                buckets[index] += slot
        return count, total, low, high, buckets

    @property
    def count(self) -> int:
        with self._lock:
            return self._merged_locked()[0]

    @property
    def mean(self) -> float:
        with self._lock:
            count, total = self._merged_locked()[:2]
        return total / count if count else 0.0

    def _quantile(self, q: float, count: int, high: Optional[float], buckets) -> Optional[float]:
        """The *q*-quantile estimated from a bucket state.

        Walks the cumulative bucket counts to the first bucket whose
        cumulative share reaches *q* and reports that bucket's upper
        bound, clamped to the observed max (so a histogram whose every
        observation landed in one wide bucket never reports a value
        larger than anything it saw).  The overflow bucket reports the
        observed max directly.  None while empty.
        """
        if not count:
            return None
        rank = q * count
        cumulative = 0
        for position, slot in enumerate(buckets):
            cumulative += slot
            if cumulative >= rank and slot:
                if position >= len(self.bounds):  # the +Inf overflow slot
                    return high
                bound = self.bounds[position]
                return min(bound, high) if high is not None else bound
        return high

    def snapshot(self) -> Dict:
        """A plain-data summary suitable for JSON framing.

        Includes p50/p95/p99 estimates derived from the bucket state —
        the summary quantiles METRICS frames, ``.metrics`` tables, and
        the Prometheus quantile gauges all surface.
        """
        with self._lock:
            count, total, low, high, slots = self._merged_locked()
        buckets = {}
        for bound, slot in zip(self.bounds, slots):
            if slot:
                buckets[f"le_{bound:g}"] = slot
        if slots[-1]:
            buckets["le_inf"] = slots[-1]
        return {
            "count": count,
            "sum": total,
            "min": low,
            "max": high,
            "mean": total / count if count else 0.0,
            "p50": self._quantile(0.50, count, high, slots),
            "p95": self._quantile(0.95, count, high, slots),
            "p99": self._quantile(0.99, count, high, slots),
            "buckets": buckets,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, n={self.count})"
