"""The flight recorder: a bounded ring of structured engine events.

Counters say *how often*; the flight recorder says *when, in what
order*.  Every interesting moment in the concurrent server — statement
begin/end, BATCH and stream lifecycle, reader-pool checkouts and
writer-lock waits, WAL checkpoints, statement-cache traffic, cache
clears, fired faults, planner decisions, ``obs.span`` timings
(``span``) and finished query profiles (``stmt.profile``) — lands
here as one :class:`FlightEvent`, stamped with a monotonic timestamp,
a monotonically increasing sequence number, and the session's
connection key.  It is :mod:`repro.obs`'s one event store: the span
exporter, the recent-profile list and the slow-query log all read it.
The ring is a ``deque(maxlen=...)``; appends and sequence numbers both
ride CPython-atomic operations (``deque.append`` and ``next`` on an
``itertools.count``), so the record path takes no lock at all and
memory is bounded by construction.  Readers snapshot with ``list(ring)`` and simply retry
on the rare concurrent-mutation ``RuntimeError``.

The recorder follows the package's inert-when-off discipline: every
call site guards on ``flight.state.enabled`` — one attribute load on a
module singleton — before calling into this module, so a disabled
recorder costs nothing and records nothing (settrace-asserted in
``tests/test_flight.py``, the same proof the profiler carries).

**Determinism.**  Event *content* is deterministic for a deterministic
workload: kinds, session keys, SQL texts, row counts, and fault
ordinals are pure functions of what the workload did.  Timestamps,
sequence numbers, and trace ids are not — :meth:`FlightEvent.signature`
(and :func:`signatures`) project an event down to its deterministic
core, which is what the double-run chaos tests compare.

**Crash dumps.**  :func:`configure` can name a JSONL path; on an
unhandled server error the frame loop calls :func:`crash_dump`, which
writes the entire ring (plus a final ``crash`` event naming the error)
to that file and never raises — a post-mortem timeline for every chaos
failure, replacing "the counters moved" with "here is what happened".
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import deque
from time import monotonic
from typing import Dict, List, Optional

__all__ = [
    "FlightEvent", "FlightRecorder", "state",
    "enable", "disable", "is_enabled", "configure",
    "get_recorder", "set_recorder",
    "record", "events", "snapshot", "clear", "signatures",
    "dump", "crash_dump",
    "DEFAULT_CAPACITY",
]

#: Default ring capacity — generous for a workload tail, irrelevant for
#: memory (events are a few hundred bytes each).
DEFAULT_CAPACITY = 4096


class FlightState:
    """The process-wide switch plus crash-dump target, on one singleton.

    Hot paths read ``state.enabled`` with a plain attribute load and
    skip the call into this module entirely when it is off.
    """

    __slots__ = ("enabled", "crash_dump_path")

    def __init__(self) -> None:
        self.enabled = False
        self.crash_dump_path: Optional[str] = None


state = FlightState()


def enable() -> None:
    """Turn flight recording on (the ring starts collecting)."""
    state.enabled = True


def disable() -> None:
    """Turn flight recording off (the ring keeps what it has)."""
    state.enabled = False


def is_enabled() -> bool:
    return state.enabled


def configure(
    *,
    capacity: Optional[int] = None,
    crash_dump_path: "str | None | bool" = False,
) -> None:
    """Adjust the ring capacity and/or the crash-dump target.

    *crash_dump_path* uses ``False`` as the "leave it alone" sentinel
    so ``None`` can explicitly clear a previously configured path.
    """
    if capacity is not None:
        get_recorder().resize(capacity)
    if crash_dump_path is not False:
        state.crash_dump_path = crash_dump_path


class FlightEvent:
    """One recorded moment: what, when, whose session, which trace."""

    __slots__ = ("seq", "ts", "kind", "session", "trace_id", "data")

    def __init__(
        self,
        seq: int,
        ts: float,
        kind: str,
        session: Optional[str],
        trace_id: Optional[str],
        data: Dict,
    ) -> None:
        self.seq = seq
        self.ts = ts
        self.kind = kind
        self.session = session
        self.trace_id = trace_id
        self.data = data

    def as_dict(self) -> Dict:
        """The JSONL/wire form of this event."""
        entry: Dict = {"seq": self.seq, "ts": self.ts, "kind": self.kind}
        if self.session is not None:
            entry["session"] = self.session
        if self.trace_id is not None:
            entry["trace_id"] = self.trace_id
        if self.data:
            entry["data"] = self.data
        return entry

    def signature(self) -> str:
        """The event's deterministic core, as one comparable string.

        Drops everything a re-run legitimately changes — timestamps,
        sequence numbers, trace/span ids, a profile's wall-clock
        ``statement_now``, and float-valued payload entries (durations)
        at any depth, so a ``stmt.profile`` event's per-routine seconds
        go too — keeping kind, session, and the stable payload.  Two
        seeded runs of the same workload must produce identical
        signature sequences; the chaos tests assert exactly that.
        """
        stable = _stable(self.data)
        payload = " ".join(
            f"{key}={stable[key]!r}" for key in sorted(stable)
        )
        head = f"{self.kind}[{self.session or ''}]"
        return f"{head} {payload}".rstrip()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlightEvent({self.seq}, {self.kind!r}, session={self.session!r})"


def _stable(data: Dict) -> Dict:
    """*data* without floats, ids and clock readings, recursively."""
    return {
        key: _stable(value) if isinstance(value, dict) else value
        for key, value in sorted(data.items())
        if not isinstance(value, float) and "span" not in key
        and key != "statement_now"
    }


class FlightRecorder:
    """A thread-safe bounded ring of :class:`FlightEvent` entries.

    The record path is deliberately lock-free and allocation-light:
    ``deque.append`` on a bounded deque and ``next()`` on an
    ``itertools.count`` are both atomic in CPython, and the ring holds
    plain tuples — no :class:`FlightEvent` ``__init__`` frame runs on
    the hot path; events materialize lazily when the ring is *read*.
    The lock below only serializes structural operations
    (clear/resize) against each other; snapshot readers retry the rare
    mutated-during-iteration ``RuntimeError`` instead of stalling
    writers.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=capacity)
        self._seq = itertools.count(1)

    def record(
        self,
        kind: str,
        session: Optional[str] = None,
        trace_id: Optional[str] = None,
        **data,
    ) -> None:
        """Append one event (lock-free; see the class docstring)."""
        self._events.append(
            (next(self._seq), monotonic(), kind, session, trace_id, data)
        )

    def _snapshot_raw(self) -> List[tuple]:
        """A point-in-time copy of the ring, retrying concurrent appends."""
        while True:
            try:
                return list(self._events)
            except RuntimeError:  # pragma: no cover - needs a racing writer
                continue

    def _snapshot(self) -> List[FlightEvent]:
        return [FlightEvent(*entry) for entry in self._snapshot_raw()]

    def events(
        self,
        *,
        kind: Optional[str] = None,
        session: Optional[str] = None,
        trace_id: Optional[str] = None,
        last: Optional[int] = None,
    ) -> List[FlightEvent]:
        """The buffered events, oldest first, optionally filtered.

        *kind* matches exactly or as a dotted prefix (``"stmt"``
        selects ``stmt.begin`` and ``stmt.end``); *last* keeps only
        the newest *n* **after** filtering.
        """
        items = self._snapshot()
        if kind is not None:
            items = [e for e in items
                     if e.kind == kind or e.kind.startswith(kind + ".")]
        if session is not None:
            items = [e for e in items if e.session == session]
        if trace_id is not None:
            items = [e for e in items if e.trace_id == trace_id]
        if last is not None and last > 0:
            items = items[-last:]
        return items

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def resize(self, capacity: int) -> None:
        with self._lock:
            self.capacity = capacity
            self._events = deque(self._snapshot_raw(), maxlen=capacity)

    def __len__(self) -> int:
        return len(self._events)


_default_recorder = FlightRecorder()


def get_recorder() -> FlightRecorder:
    return _default_recorder


def set_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Swap the active recorder; returns the previous one."""
    global _default_recorder
    previous = _default_recorder
    _default_recorder = recorder
    return previous


def record(
    kind: str,
    session: Optional[str] = None,
    trace_id: Optional[str] = None,
    **data,
) -> None:
    """Record one event into the active ring.

    Call sites guard on ``flight.state.enabled`` themselves so the
    disabled path never enters this module; the internal check below
    only covers direct callers that skipped the guard.  The append is
    inlined (rather than delegated to :meth:`FlightRecorder.record`)
    to keep the always-on cost to a single Python frame.
    """
    if state.enabled:
        recorder = _default_recorder
        recorder._events.append(
            (next(recorder._seq), monotonic(), kind, session, trace_id,
             data)
        )


def events(**filters) -> List[FlightEvent]:
    """The active ring's events (see :meth:`FlightRecorder.events`)."""
    return _default_recorder.events(**filters)


def snapshot(**filters) -> List[Dict]:
    """The active ring's (filtered) events in plain-dict form."""
    return [event.as_dict() for event in _default_recorder.events(**filters)]


def clear() -> None:
    """Drop every buffered event from the active ring."""
    _default_recorder.clear()


def signatures(**filters) -> List[str]:
    """The deterministic signature sequence of the (filtered) ring."""
    return [event.signature() for event in _default_recorder.events(**filters)]


def dump(path: str, **filters) -> int:
    """Write the (filtered) ring to *path* as JSONL; the event count."""
    entries = snapshot(**filters)
    with open(path, "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return len(entries)


def crash_dump(reason: str, error: Optional[str] = None) -> Optional[str]:
    """Dump the ring to the configured crash path; the path, or None.

    Appends a final ``crash`` event naming *reason* so the dump is
    self-describing, then writes everything as JSONL.  Never raises —
    a broken dump target must not mask the error being reported — and
    does nothing when no path is configured or recording is off.
    """
    path = state.crash_dump_path
    if path is None or not state.enabled:
        return None
    try:
        record("crash", reason=reason, **({"error": error} if error else {}))
        dump(path)
        return path
    except OSError:
        return None
