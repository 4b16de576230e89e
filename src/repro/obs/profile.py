"""Per-statement query profiling with wire-level trace propagation.

PR 1's observability reports *process-wide* aggregates; this module
answers the per-statement question the paper's E2 comparison actually
poses: where did *this* query spend its time, and why did the blade
path win?  Three pieces:

* :class:`QueryProfile` — one statement's cost record: wall time, the
  per-routine call/latency breakdown (scoped to the statement by
  diffing the active metrics registry around it), periods processed,
  row counts, and retry counts;
* a **trace context** — a ``trace_id``/``span_id`` pair threaded
  through the wire protocol so the client-side span and the
  server-side span of one statement join into a single trace;
* **storage in the flight ring** — every finished profile is one
  ``stmt.profile`` event in :mod:`repro.obs.flight` (the package's one
  event store, switched on by :func:`enable`).  :func:`recent_profiles`
  and the slow-query log (:func:`slow_log`: the profiles whose wall
  time met a configurable threshold) are filters over that ring, so
  they keep what the ring keeps; slow profiles are also mirrored to an
  optional JSONL sink, the durable record.

The profiler follows the same inert-when-off discipline as the rest of
:mod:`repro.obs`: hot paths read ``state.enabled`` (and the
``state.forced`` depth used for one-shot profiling) — two attribute
loads on a module singleton, **zero additional Python-level calls** —
and skip everything when both are falsy.  The settrace test in
``tests/test_profile.py`` proves that a disabled profiler never enters
this module during ``execute()``.

Registry-delta scoping is exact whenever statements on a registry do
not interleave — true for local single-threaded use and for the server,
which serializes statements under its engine lock.  Concurrent local
writers would smear each other's deltas; the profile is still a valid
upper bound and is documented as such.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter, time
from typing import Dict, List, Optional

from repro.obs import flight as _flight
from repro.obs.registry import get_registry
from repro.obs.registry import state as _obs_state

__all__ = [
    "QueryProfile", "StatementRecorder", "ProfilerState",
    "state", "enable", "disable", "is_enabled", "configure", "forced",
    "activate_context", "current_context", "new_trace_id", "new_span_id",
    "publish", "slow_log", "recent_profiles",
]

#: Counter prefixes that constitute the per-routine breakdown.
_ROUTINE_PREFIXES = ("blade.routine.", "blade.aggregate.", "blade.cast.", "layered.op.")

#: Counters surfaced as first-class QueryProfile fields.
_PERIOD_COUNTERS = ("element.periods_processed", "tempagg.sweep.periods_processed")


def new_trace_id() -> str:
    """A fresh 128-bit trace id (hex)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id (hex)."""
    return os.urandom(8).hex()


@dataclass
class QueryProfile:
    """Everything one statement cost, as plain data."""

    sql: str
    engine: str = "blade"          # blade | layered | client
    side: str = "local"            # local | client | server
    trace_id: str = ""
    span_id: str = ""
    parent_span_id: Optional[str] = None
    started_at: float = 0.0        # wall clock (time.time) at start
    wall_seconds: float = 0.0      # execute() duration
    fetch_seconds: float = 0.0     # accumulated fetch time (lazy rows)
    rows: int = 0                  # rows fetched so far
    rowcount: int = -1             # DB-API rowcount (DML row traffic)
    retries: int = 0               # transport retries (remote client)
    periods_processed: int = 0
    routines: Dict[str, Dict[str, float]] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    statement_now: Optional[str] = None
    #: This statement's compiled-statement-cache fate: "hit", "miss",
    #: or None when the cache saw no traffic (cache off, or the profile
    #: predates this field).  Lets a slow-log entry say whether the
    #: offender at least skipped translation.
    stmt_cache: Optional[str] = None
    ok: bool = True
    error: Optional[str] = None

    def as_dict(self) -> Dict:
        """A JSON-framable copy (wire form of the PROFILE payload)."""
        data = {
            "sql": self.sql,
            "engine": self.engine,
            "side": self.side,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "started_at": self.started_at,
            "wall_seconds": self.wall_seconds,
            "fetch_seconds": self.fetch_seconds,
            "rows": self.rows,
            "rowcount": self.rowcount,
            "retries": self.retries,
            "periods_processed": self.periods_processed,
            "routines": self.routines,
            "counters": self.counters,
            "ok": self.ok,
        }
        if self.parent_span_id is not None:
            data["parent_span_id"] = self.parent_span_id
        if self.statement_now is not None:
            data["statement_now"] = self.statement_now
        if self.stmt_cache is not None:
            data["stmt_cache"] = self.stmt_cache
        if self.error is not None:
            data["error"] = self.error
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "QueryProfile":
        """Rebuild a profile from its wire form (unknown keys ignored)."""
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        return cls(**{key: value for key, value in data.items() if key in known})


class ProfilerState:
    """The profiler switch plus its configuration, on one singleton.

    ``enabled`` turns automatic per-statement profiling on;
    ``forced`` is a depth counter for one-shot profiling of a single
    statement (the server's on-request path and the EXPLAIN harness)
    without flipping the process-wide switch.  Hot paths check both
    with plain attribute loads.
    """

    __slots__ = ("enabled", "forced", "slow_threshold", "sink_path")

    def __init__(self) -> None:
        self.enabled = False
        self.forced = 0
        #: Seconds; None disables slow-query capture.  0.0 captures
        #: every profiled statement.
        self.slow_threshold: Optional[float] = None
        #: JSONL file every slow profile is appended to, or None.
        self.sink_path: Optional[str] = None


state = ProfilerState()


def enable(
    slow_threshold: Optional[float] = None,
    sink: Optional[str] = None,
) -> None:
    """Turn per-statement profiling on (and metrics and the ring with it).

    The routine breakdown is a registry delta, so profiling without
    metrics would be hollow, and profiles are stored in the flight
    ring: enabling the profiler enables :mod:`repro.obs` collection and
    :mod:`repro.obs.flight` recording too.  *slow_threshold* (seconds)
    arms the slow-query log — 0.0 captures everything; *sink* mirrors
    slow entries to a JSONL file.
    """
    _obs_state.enabled = True
    _flight.state.enabled = True
    if slow_threshold is not None:
        state.slow_threshold = slow_threshold
    if sink is not None:
        state.sink_path = sink
    state.enabled = True


def disable() -> None:
    """Turn automatic profiling off (metrics collection is untouched)."""
    state.enabled = False


def is_enabled() -> bool:
    return state.enabled


def configure(
    *,
    slow_threshold: Optional[float] = None,
    sink: Optional[str] = None,
) -> None:
    """Adjust slow-query capture without touching the on/off switch."""
    state.slow_threshold = slow_threshold
    state.sink_path = sink


@contextmanager
def forced():
    """Profile statements inside the block even if the switch is off.

    A depth counter, so nesting is safe.  Used by the server for
    client-requested one-shot profiles and by the EXPLAIN TEMPORAL
    harness; both serialize statement execution, so the brief global
    bump cannot misattribute another thread's statement to this one.
    """
    state.forced += 1
    try:
        yield
    finally:
        state.forced -= 1


class _TraceContext(threading.local):
    """The propagated trace identity of the statement being handled."""

    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    side: str = "local"


_context = _TraceContext()


def current_context() -> _TraceContext:
    return _context


@contextmanager
def activate_context(trace_id: Optional[str], span_id: Optional[str], side: str = "local"):
    """Adopt an incoming trace identity for statements in this thread.

    The server wraps statement execution in the client's
    ``trace_id``/``span_id`` so the recorder's span becomes a child of
    the client-side span — one trace across the wire.
    """
    previous = (_context.trace_id, _context.span_id, _context.side)
    _context.trace_id, _context.span_id, _context.side = trace_id, span_id, side
    try:
        yield
    finally:
        _context.trace_id, _context.span_id, _context.side = previous


def _registry_snapshot() -> Dict:
    """The active registry snapshot plus the marshalling-cache counters.

    The codec caches are process-wide and keep their own monotonic
    stats; merging them into both the before- and after-snapshots makes
    cache traffic (``codec.cache.decode.hits`` and friends) fall out of
    the same delta arithmetic as every registry counter, so a
    :class:`QueryProfile` reports exactly this statement's hit/miss
    behaviour.
    """
    snapshot = get_registry().snapshot()
    # Imported lazily: repro.codec and repro.tsql reach this package
    # through repro.faults, so module-level imports would be circular.
    from repro.codec import cache as _marshal_cache
    from repro.tsql import compiled as _stmt_cache

    snapshot["counters"].update(_marshal_cache.stats_counters())
    snapshot["counters"].update(_stmt_cache.stats_counters())
    return snapshot


def _counter_deltas(before: Dict, after: Dict) -> Dict[str, int]:
    deltas: Dict[str, int] = {}
    for name, value in after.items():
        change = value - before.get(name, 0)
        if change:
            deltas[name] = change
    return deltas


def _routine_breakdown(
    before: Dict, after: Dict, counter_deltas: Dict[str, int]
) -> Dict[str, Dict[str, float]]:
    """Per-routine ``{calls, seconds}`` from the histogram/counter diff."""
    breakdown: Dict[str, Dict[str, float]] = {}
    for name, snap in after.items():
        if not name.startswith(_ROUTINE_PREFIXES) or not name.endswith(".seconds"):
            continue
        prior = before.get(name, {})
        count = snap.get("count", 0) - prior.get("count", 0)
        seconds = snap.get("sum", 0.0) - prior.get("sum", 0.0)
        if count:
            breakdown[name[: -len(".seconds")]] = {
                "calls": count, "seconds": seconds,
            }
    # Aggregate step counters have no latency histogram of their own;
    # surface them alongside so the breakdown shows volume too.
    for name, change in counter_deltas.items():
        if name.startswith(_ROUTINE_PREFIXES) and name.endswith(".steps"):
            entry = breakdown.setdefault(name[: -len(".steps")], {"calls": 0, "seconds": 0.0})
            entry["steps"] = change
    return breakdown


class StatementRecorder:
    """Collects one :class:`QueryProfile` around a statement.

    Usage::

        recorder = StatementRecorder(sql)
        recorder.start()
        ...  # run the statement
        profile = recorder.finish(rowcount=..., ok=True)

    ``start``/``finish`` snapshot the active metrics registry, so the
    routine breakdown and the periods counters cover exactly the
    work between the two calls.
    """

    __slots__ = ("profile", "_before", "_t0")

    def __init__(self, sql: str, *, engine: str = "blade", side: Optional[str] = None) -> None:
        ctx = _context
        trace_id = ctx.trace_id if ctx.trace_id is not None else new_trace_id()
        self.profile = QueryProfile(
            sql=sql,
            engine=engine,
            side=side if side is not None else ctx.side,
            trace_id=trace_id,
            span_id=new_span_id(),
            parent_span_id=ctx.span_id,
        )
        self._before: Dict = {}
        self._t0 = 0.0

    def start(self) -> "StatementRecorder":
        self.profile.started_at = time()
        self._before = _registry_snapshot()
        self._t0 = perf_counter()
        return self

    def finish(
        self,
        *,
        rowcount: int = -1,
        ok: bool = True,
        error: Optional[str] = None,
        statement_now: Optional[str] = None,
        defer: bool = False,
    ) -> QueryProfile:
        """Close the profile and :func:`publish` it.

        A caller that keeps charging the profile after this (a fetch
        that completes the row count) passes ``defer=True`` and calls
        :func:`publish` itself once the profile is complete.
        """
        profile = self.profile
        profile.wall_seconds = perf_counter() - self._t0
        profile.rowcount = rowcount
        profile.ok = ok
        profile.error = error
        profile.statement_now = statement_now
        self.count()
        if not defer:
            publish(profile)
        return profile

    def count(self) -> None:
        """Take the registry deltas since :meth:`start` into the profile.

        :meth:`finish` calls it; a lazy fetch calls it again, because
        SQLite evaluates every row after the first while fetching.
        """
        after = _registry_snapshot()
        profile = self.profile
        counter_deltas = _counter_deltas(
            self._before.get("counters", {}), after.get("counters", {})
        )
        profile.counters = counter_deltas
        # The statement cache's fate for *this* statement falls out of
        # the same delta arithmetic: a hot statement bumps tsql.cache.hit
        # by one, a cold one tsql.cache.miss.  No traffic (uncacheable
        # text) leaves the field None.
        if counter_deltas.get("tsql.cache.hit"):
            profile.stmt_cache = "hit"
        elif counter_deltas.get("tsql.cache.miss"):
            profile.stmt_cache = "miss"
        profile.periods_processed = sum(
            counter_deltas.get(name, 0) for name in _PERIOD_COUNTERS
        )
        profile.routines = _routine_breakdown(
            self._before.get("histograms", {}), after.get("histograms", {}),
            counter_deltas,
        )


def publish(profile: QueryProfile) -> None:
    """Store a finished profile: one ``stmt.profile`` flight event.

    The event's trace id is the profile's and its data the rest of
    :meth:`QueryProfile.as_dict`, so client- and server-side profiles
    of one trace sit side by side in the ring.  With the ring off the
    profile is only returned, not stored.  A slow profile also goes to
    the JSONL sink, whether the ring is on or not.
    """
    data = profile.as_dict()
    threshold = state.slow_threshold
    sink = state.sink_path
    if (sink is not None and threshold is not None
            and profile.wall_seconds >= threshold):
        try:
            with open(sink, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(data, sort_keys=True) + "\n")
        except OSError:
            pass  # a broken sink must never fail the statement
    if _flight.state.enabled:
        del data["trace_id"]
        _flight.record("stmt.profile", None, profile.trace_id, **data)


def _stored(events) -> List[QueryProfile]:
    return [QueryProfile.from_dict({**event.data, "trace_id": event.trace_id})
            for event in events]


def slow_log(last: Optional[int] = None) -> List[QueryProfile]:
    """The stored profiles at or over the slow threshold, oldest first."""
    threshold = state.slow_threshold
    if threshold is None:
        return []
    slow = [entry for entry in _stored(_flight.events(kind="stmt.profile"))
            if entry.wall_seconds >= threshold]
    return slow[-last:] if last else slow


def recent_profiles(last: Optional[int] = None) -> List[QueryProfile]:
    """The profiled statements still in the flight ring, oldest first."""
    return _stored(_flight.events(kind="stmt.profile", last=last))
