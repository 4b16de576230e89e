"""Process-wide marshalling caches: blob->value decode and literal parse.

The paper's core performance argument (Sections 3-4, E1/E2) is that the
integrated engine wins because values stay in an efficient binary format
instead of being re-materialized at every layer boundary.  Without
caches the reproduction pays exactly the layered tax it criticizes: a
constant ``overlaps(valid, :window)`` predicate re-decodes the identical
window blob once per row, and a nested-loop temporal join re-decodes
each row's timestamp once per *pair*.

Two bounded ``functools.lru_cache`` caches remove that tax:

* the decode cache, :data:`repro.codec.binary.DECODE` — blob bytes ->
  decoded TIP value.  Safe to share because every TIP value is
  immutable and decoding is deterministic: ``NOW``-relative instants
  are stored as *offsets*, so a decoded value never bakes in a
  transaction time — grounding still happens per statement against
  the ambient :mod:`repro.core.nowctx`.
* :data:`PARSE` — ``(parse_fn, text)`` -> parsed value, for the string
  casts of routine arguments and the literal constructors
  (``element('{[1999-10-01, NOW]}')``).  Only the five TIP types'
  parsers go through it; a custom blade's parser may return a mutable
  object, so its results are never cached.

Fault injection bypasses the decode cache wholesale (see
:func:`repro.codec.binary.decode`) and arming a plan clears both caches,
so chaos runs observe every blob afresh and remain deterministic.

:class:`CountedLRU` keeps the stats of these caches and of the compiled
statement cache (:mod:`repro.tsql.compiled`).
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Callable, Dict

from repro.core import Chronon, Element, Instant, Period, Span

__all__ = [
    "CountedLRU", "PARSE", "PARSE_SIZE", "clear_caches", "stats",
    "stats_counters", "parse_cached", "cached_parser",
]

PARSE_SIZE = 1024


class CountedLRU:
    """A ``functools.lru_cache`` over *miss*, with stats that survive clears.

    :attr:`lookup` is the cached call; like every ``lru_cache`` it is
    thread-safe.  ``cache_clear`` zeroes the cache's own counts, so
    :meth:`clear` carries them over: hits and misses only grow until
    ``clear(reset_stats=True)``.  Evictions are derived as misses minus
    entries, entries dropped by clears and misses that raised (those
    store nothing); a miss still running on another thread reads as an
    eviction until its entry lands.
    """

    __slots__ = ("name", "lookup", "_lock", "_hits", "_misses", "_dropped", "_failed")

    def __init__(self, name: str, maxsize: int, miss: Callable) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._hits = self._misses = self._dropped = self._failed = 0

        def counted_miss(*args):
            try:
                return miss(*args)
            except BaseException:
                with self._lock:
                    self._failed += 1
                raise

        self.lookup = lru_cache(maxsize=maxsize)(counted_miss)

    def clear(self, reset_stats: bool = False) -> None:
        """Drop every entry; optionally zero the stats."""
        with self._lock:
            info = self.lookup.cache_info()
            self.lookup.cache_clear()
            if reset_stats:
                self._hits = self._misses = self._dropped = self._failed = 0
            else:
                self._hits += info.hits
                self._misses += info.misses
                self._dropped += info.currsize

    def stats(self) -> Dict[str, float]:
        """Entries, capacity, hit/miss/eviction counts, and the hit
        ratio."""
        with self._lock:
            info = self.lookup.cache_info()
            hits = self._hits + info.hits
            misses = self._misses + info.misses
            evictions = misses - info.currsize - self._dropped - self._failed
        looked_up = hits + misses
        return {
            "entries": info.currsize,
            "capacity": info.maxsize,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "hit_ratio": (hits / looked_up) if looked_up else 0.0,
        }


#: The TIP types' literal parsers: the only ones whose results (all
#: immutable) the parse cache may share.
_TIP_PARSERS = frozenset(
    tip_type.parse for tip_type in (Chronon, Span, Instant, Period, Element)
)

#: ``(parse_fn, literal_text)`` -> parsed TIP value.
PARSE = CountedLRU("parse", PARSE_SIZE, lambda parse_fn, text: parse_fn(text))


def _caches():
    from repro.codec.binary import DECODE  # binary imports this module

    return DECODE, PARSE


def clear_caches(reset_stats: bool = False) -> None:
    """Drop every cached entry (both caches); optionally zero the stats.

    Values already stamped with their canonical encoding keep that
    stamp — the stamp *is* the value's encoding, not derived state — so
    clearing affects only memory and future hit ratios, never results.
    """
    for cache in _caches():
        cache.clear(reset_stats=reset_stats)
    # Lazy import: this module must stay importable before repro.obs
    # (the cold clear path can afford the lookup).
    from repro.obs import flight as _flight

    if _flight.state.enabled:
        _flight.record("cache.decode.invalidate")


def stats() -> Dict:
    """Both caches' stats, as plain data."""
    return {cache.name: cache.stats() for cache in _caches()}


def stats_counters() -> Dict[str, int]:
    """The monotonic stats as flat ``codec.cache.*`` counter names.

    Merged into metrics snapshots and per-statement registry diffs, so
    cache traffic shows up in ``.metrics`` tables, the Prometheus
    exposition, and :class:`~repro.obs.profile.QueryProfile` deltas
    alongside the existing counters.
    """
    flat: Dict[str, int] = {}
    for cache in _caches():
        snap = cache.stats()
        prefix = f"codec.cache.{cache.name}."
        flat[prefix + "hits"] = snap["hits"]
        flat[prefix + "misses"] = snap["misses"]
        flat[prefix + "evictions"] = snap["evictions"]
    return flat


def parse_cached(parse_fn: Callable[[str], object], text: str):
    """``parse_fn(text)``, through the literal cache for a TIP parser.

    The key includes the parse callable itself, so the same text parsed
    as two different types never collides.
    """
    if parse_fn in _TIP_PARSERS:
        return PARSE.lookup(parse_fn, text)
    return parse_fn(text)


def cached_parser(parse_fn: Callable[[str], object]) -> Callable[[str], object]:
    """Wrap a literal parser so repeated literals parse once.

    Used for the blade's constructor routines (``element(text)`` and
    friends), whose argument is usually a constant literal repeated for
    every row of a statement.
    """

    def parse(text: str):
        return parse_cached(parse_fn, text)

    parse.__name__ = getattr(parse_fn, "__name__", "parse")
    parse.__doc__ = getattr(parse_fn, "__doc__", None)
    parse.__wrapped__ = parse_fn
    return parse
