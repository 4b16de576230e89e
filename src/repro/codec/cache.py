"""Process-wide marshalling caches: blob->value decode and literal parse.

The paper's core performance argument (Sections 3-4, E1/E2) is that the
integrated engine wins because values stay in an efficient binary format
instead of being re-materialized at every layer boundary.  Before this
module the reproduction paid exactly the layered tax it criticizes: a
constant ``overlaps(valid, :window)`` predicate re-decoded the identical
window blob once per row, and a nested-loop temporal join re-decoded
each row's timestamp once per *pair*.

Two bounded LRU caches remove that tax:

* :data:`DECODE` — blob bytes -> decoded TIP value.  Safe to share
  because every TIP value is immutable and decoding is deterministic:
  ``NOW``-relative instants are stored as *offsets*, so a decoded value
  never bakes in a transaction time — grounding still happens per
  statement against the ambient :mod:`repro.core.nowctx`.
* :data:`PARSE` — ``(parse_fn, text)`` -> parsed value, for the string
  casts of routine arguments and the literal constructors
  (``element('{[1999-10-01, NOW]}')``).  Only results that are TIP
  values are retained; a custom blade whose parser returns a mutable
  object is never cached.

Both caches follow the repo's inert-when-off discipline: hot paths read
``state.enabled`` — one attribute load on a module singleton — and the
caches stay empty (and their stats stay zero) while disabled.  Fault
injection bypasses the decode cache wholesale (see
:func:`repro.codec.binary.decode`) and arming a plan clears both caches,
so chaos runs observe every blob afresh and remain deterministic.

Knobs (read once at import; also adjustable via :func:`configure`):

* ``TIP_MARSHAL_CACHE=0`` — disable both caches;
* ``TIP_DECODE_CACHE_SIZE`` — decode cache capacity (default 4096);
* ``TIP_PARSE_CACHE_SIZE`` — parse cache capacity (default 1024).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional

__all__ = [
    "CacheState", "LRUCache", "state", "DECODE", "PARSE",
    "configure", "clear_caches", "stats", "stats_counters",
    "parse_cached", "cached_parser",
    "DEFAULT_DECODE_SIZE", "DEFAULT_PARSE_SIZE",
]

DEFAULT_DECODE_SIZE = 4096
DEFAULT_PARSE_SIZE = 1024

_FALSY = frozenset({"0", "false", "off", "no", ""})


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def _env_enabled() -> bool:
    return os.environ.get("TIP_MARSHAL_CACHE", "1").strip().lower() not in _FALSY


class CacheState:
    """The process-wide switch, read on hot paths without a lock."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = _env_enabled()


state = CacheState()


class LRUCache:
    """A bounded, thread-safe LRU map with hit/miss/eviction accounting.

    Stats are plain attribute increments under the same lock that
    orders the map itself, so a snapshot is always self-consistent.
    ``memo_hits`` counts lookups a memo in front of the cache answered
    (the blade's routine-result memo, in front of :data:`DECODE`).
    """

    __slots__ = ("name", "maxsize", "hits", "misses", "evictions", "memo_hits",
                 "_data", "_lock")

    def __init__(self, name: str, maxsize: int) -> None:
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.memo_hits = 0
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        """The cached value, or None on a miss (values are never None)."""
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def memo_hit(self) -> None:
        with self._lock:
            self.memo_hits += 1

    def put(self, key, value) -> None:
        if self.maxsize <= 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return
            self._data[key] = value
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self, reset_stats: bool = False) -> None:
        with self._lock:
            self._data.clear()
            if reset_stats:
                self.hits = self.misses = self.evictions = self.memo_hits = 0

    def resize(self, maxsize: int) -> None:
        with self._lock:
            self.maxsize = maxsize
            while len(self._data) > max(maxsize, 0):
                self._data.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def stats(self) -> Dict[str, float]:
        """Entries, capacity, hit/miss/eviction/memo-hit counts, and the
        cache's own hit ratio."""
        with self._lock:
            hits, misses = self.hits, self.misses
            looked_up = hits + misses
            return {
                "entries": len(self._data),
                "capacity": self.maxsize,
                "hits": hits,
                "misses": misses,
                "evictions": self.evictions,
                "memo_hits": self.memo_hits,
                "hit_ratio": (hits / looked_up) if looked_up else 0.0,
            }


#: The two process-wide caches.  ``DECODE`` is keyed on the immutable
#: blob bytes; ``PARSE`` on ``(parse_fn, literal_text)``.
DECODE = LRUCache("decode", _env_int("TIP_DECODE_CACHE_SIZE", DEFAULT_DECODE_SIZE))
PARSE = LRUCache("parse", _env_int("TIP_PARSE_CACHE_SIZE", DEFAULT_PARSE_SIZE))


def configure(
    *,
    enabled: Optional[bool] = None,
    decode_size: Optional[int] = None,
    parse_size: Optional[int] = None,
) -> None:
    """Adjust the marshalling-cache knobs at runtime.

    Disabling also clears both caches, so re-enabling starts cold and
    the inert-when-off guarantee ("disabled caches stay empty") holds
    regardless of prior history.
    """
    if decode_size is not None:
        DECODE.resize(decode_size)
    if parse_size is not None:
        PARSE.resize(parse_size)
    if enabled is not None:
        state.enabled = enabled
        if not enabled:
            clear_caches()


def clear_caches(reset_stats: bool = False) -> None:
    """Drop every cached entry (both caches); optionally zero the stats.

    Values already stamped with their canonical encoding keep that
    stamp — the stamp *is* the value's encoding, not derived state — so
    clearing affects only memory and future hit ratios, never results.
    """
    DECODE.clear(reset_stats=reset_stats)
    PARSE.clear(reset_stats=reset_stats)
    # Lazy import: this module must stay importable before repro.obs
    # (the cold clear path can afford the lookup).
    from repro.obs import flight as _flight

    if _flight.state.enabled:
        _flight.record("cache.decode.invalidate")


def stats() -> Dict:
    """Both caches' stats plus the switch position, as plain data."""
    return {
        "enabled": state.enabled,
        "decode": DECODE.stats(),
        "parse": PARSE.stats(),
    }


def stats_counters() -> Dict[str, int]:
    """The monotonic stats as flat ``codec.cache.*`` counter names.

    Merged into metrics snapshots and per-statement registry diffs, so
    cache traffic shows up in ``.metrics`` tables, the Prometheus
    exposition, and :class:`~repro.obs.profile.QueryProfile` deltas
    alongside the existing counters.
    """
    flat: Dict[str, int] = {}
    for cache in (DECODE, PARSE):
        snap = cache.stats()
        prefix = f"codec.cache.{cache.name}."
        flat[prefix + "hits"] = snap["hits"]
        flat[prefix + "misses"] = snap["misses"]
        flat[prefix + "evictions"] = snap["evictions"]
        flat[prefix + "memo_hits"] = snap["memo_hits"]
    return flat


#: The five TIP classes, filled in lazily by :mod:`repro.codec.binary`
#: (importing them here would be circular).  Parse results outside this
#: set are assumed mutable and are never cached.
_IMMUTABLE_TYPES: tuple = ()


def _register_immutable_types(types: tuple) -> None:
    global _IMMUTABLE_TYPES
    _IMMUTABLE_TYPES = types


def parse_cached(parse_fn: Callable[[str], object], text: str):
    """``parse_fn(text)`` through the literal cache.

    The key includes the parse callable itself, so two blades that
    register the same type *name* with different parsers never collide.
    """
    if not state.enabled:
        return parse_fn(text)
    key = (parse_fn, text)
    value = PARSE.get(key)
    if value is not None:
        return value
    value = parse_fn(text)
    if type(value) in _IMMUTABLE_TYPES:
        PARSE.put(key, value)
    return value


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
