"""The instrument registry and the process-wide observability switch.

Hot paths read ``state.enabled`` — a single attribute load on a
module-level singleton — and skip *all* metric work when it is False.
Instruments are created lazily on first use, so a disabled engine never
even allocates them: an untouched registry after a workload is the
proof that the disabled path is inert (see
``tests/test_obs.py::TestDisabledInertness``).
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict

from repro.obs.instruments import Counter, Histogram, Shard

__all__ = [
    "ObsState", "state", "MetricsRegistry",
    "get_registry", "set_registry", "enable", "disable", "is_enabled",
]


class ObsState:
    """The global on/off switch, read on hot paths without a lock.

    A stale read costs at most one extra (or one missing) sample during
    the toggle itself; correctness of the counters is guaranteed by the
    per-instrument locks.
    """

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


state = ObsState()


def enable() -> None:
    """Turn instrumentation on, process-wide."""
    state.enabled = True


def disable() -> None:
    """Turn instrumentation off, process-wide."""
    state.enabled = False


def is_enabled() -> bool:
    return state.enabled


class MetricsRegistry:
    """A named bag of lazily created instruments.

    ``epoch`` is replaced on every :meth:`reset`, so a caller holding
    instruments (or a shard) it got earlier can tell when they were
    dropped.
    """

    def __init__(self, name: str = "default") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._shards: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.epoch = object()

    # -- instrument access (lazy creation) ----------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(name, Histogram(name))
        return instrument

    def shard(self, counter_name: str, histogram_name: str, owner) -> Shard:
        """*owner*'s shard of the named counter and histogram.

        Created and attached to both instruments on first request in
        this epoch, then returned again, so an owner that records into
        several registries in turn keeps one shard in each.
        """
        shard = self._shards.get(owner)
        if shard is not None:
            return shard
        with self._lock:
            counter = self._counters.setdefault(counter_name, Counter(counter_name))
            histogram = self._histograms.setdefault(histogram_name, Histogram(histogram_name))
            shard = Shard(self.epoch, weakref.ref(owner), len(histogram.bounds) + 1)
            self._shards[owner] = shard
            counter.attach(shard)
            histogram.attach(shard)
        return shard

    # -- inspection ---------------------------------------------------

    def __len__(self) -> int:
        """Number of instruments ever created (0 == never touched)."""
        with self._lock:
            return len(self._counters) + len(self._histograms)

    def counter_value(self, name: str) -> int:
        """The current value of a counter, 0 when it was never created."""
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0

    def snapshot(self) -> Dict:
        """All instruments as plain data, consistent per instrument."""
        with self._lock:
            counters = list(self._counters.values())
            histograms = list(self._histograms.values())
        return {
            "counters": {c.name: c.value for c in counters},
            "histograms": {h.name: h.snapshot() for h in histograms},
        }

    def reset(self) -> None:
        """Drop every instrument (counts restart from zero)."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
            self._shards = weakref.WeakKeyDictionary()
            self.epoch = object()


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The registry instrumentation currently records into."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the active registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
