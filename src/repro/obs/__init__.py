"""Observability: metrics and tracing for the TIP engine.

The paper's central quantitative claim — in-engine temporal routines
run in time linear in the number of periods (Sections 3–4, experiments
E1/E2) — is only checkable if the engine can report the work it
performs.  This package provides that report surface:

* **counters** — call counts, error counts, periods-processed volumes;
* **histograms** — per-routine latency distributions;
* **spans** — timed coarse operations, recorded as ``span`` events in
  the flight ring (:mod:`repro.obs.flight`), the package's one event
  store; query profiles (:mod:`repro.obs.profile`) land there too, as
  ``stmt.profile`` events.

Metrics hang off one process-wide switch (:func:`enable` /
:func:`disable`, default *off*), the flight ring off its own.  Hot
paths guard on ``registry.state.enabled`` — a single attribute load —
and instruments are created lazily, so a disabled engine does no
metric work and allocates nothing (asserted by ``tests/test_obs.py``).

Call sites either wrap a callable once (:func:`instrumented`, used by
the blade installer at ``create_function`` time) or record explicit
counters under the guard (the interval-algebra sweeps).  Snapshots are
plain data, safe to frame over the server protocol as a ``METRICS``
response and to render via :mod:`repro.obs.export`.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from time import monotonic, perf_counter
from typing import Dict

from repro.obs.export import (
    assemble_trace,
    render_json,
    render_profile,
    render_prometheus,
    render_spans,
    render_text,
    span_entries,
    span_records,
)
from repro.obs.instruments import DEFAULT_BOUNDS, Counter, Histogram
from repro.obs.registry import (
    MetricsRegistry,
    disable,
    enable,
    get_registry,
    is_enabled,
    set_registry,
    state,
)
from repro.obs import flight, profile
from repro.obs import registry as _registry

__all__ = [
    "Counter", "Histogram", "MetricsRegistry",
    "enable", "disable", "is_enabled", "state",
    "get_registry", "set_registry",
    "counter", "histogram", "span", "snapshot", "instrumented", "call", "capture",
    "render_text", "render_json", "render_prometheus", "render_profile",
    "render_spans", "span_entries", "span_records", "assemble_trace",
    "profile", "flight",
]

#: Monotonic mark at import time — the uptime origin every snapshot
#: reports against.
_PROCESS_START = monotonic()


def counter(name: str) -> Counter:
    """The named counter in the active registry (created on first use)."""
    return get_registry().counter(name)


def histogram(name: str) -> Histogram:
    """The named histogram in the active registry (created on first use)."""
    return get_registry().histogram(name)


def snapshot(trace_tail: int = 0) -> Dict:
    """The active registry as plain data, plus the switch position.

    *trace_tail* > 0 appends the most recent spans (``span`` and
    ``stmt.profile`` events from the flight ring).  Every
    snapshot carries a monotonic timestamp and the process uptime, the
    session open/close ledger derived from the server counters, and —
    when a fault plan is armed — the plan's per-rule hit/fired ledger,
    so a METRICS frame is self-describing about when it was taken and
    what chaos was active.
    """
    now = monotonic()
    data = get_registry().snapshot()
    data["enabled"] = state.enabled
    data["ts_monotonic"] = now
    data["uptime_seconds"] = now - _PROCESS_START
    counters = data.get("counters", {})
    opened = counters.get("server.sessions.opened", 0)
    closed = counters.get("server.sessions.closed", 0)
    data["sessions"] = {
        "opened": opened, "closed": closed, "active": opened - closed,
    }
    # Imported lazily: repro.codec instruments itself through
    # repro.faults and this package, so module-level imports would be
    # circular.  The marshalling caches keep their own always-on plain
    # counters; surface them as a structured section *and* merged into
    # the counter table so every existing consumer (.metrics, the
    # METRICS frame, Prometheus, QueryProfile deltas) sees them.
    from repro.codec import cache as _marshal_cache
    from repro.tsql import compiled as _stmt_cache

    data["caches"] = {**_marshal_cache.stats(), "statement": _stmt_cache.stats()}
    if state.enabled:
        # Zero-valued entries are skipped so an idle (or freshly reset)
        # snapshot still renders as "(no metrics recorded)".
        for cache_counters in (_marshal_cache.stats_counters(),
                               _stmt_cache.stats_counters()):
            for cache_counter, cache_value in cache_counters.items():
                if cache_value:
                    counters.setdefault(cache_counter, cache_value)
    data["flight"] = {
        "enabled": flight.state.enabled,
        "events": len(flight.get_recorder()),
        "capacity": flight.get_recorder().capacity,
    }
    from repro.faults import state as _fault_state

    plan = _fault_state.plan
    if plan is None:
        data["faults"] = {"armed": False}
    else:
        data["faults"] = {
            "armed": True,
            "seed": plan.seed,
            "rules": [rule.as_dict() for rule in plan.rules],
        }
    if trace_tail:
        data["trace"] = span_entries(flight.events())[-trace_tail:]
    return data


class _NullSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("name", "meta", "_start")

    def __init__(self, name: str, meta: Dict) -> None:
        self.name = name
        self.meta = meta

    def __enter__(self) -> "_Span":
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = perf_counter() - self._start
        if state.enabled:
            get_registry().histogram(f"{self.name}.seconds").observe(elapsed)
        if flight.state.enabled:
            trace_id = self.meta.pop("trace_id", None)
            flight.record("span", None, trace_id, name=self.name,
                          seconds=elapsed, ok=exc_type is None, **self.meta)
        return False


def span(name: str, **meta):
    """Context manager timing one operation; inert when disabled.

    With metrics on it feeds the ``<name>.seconds`` histogram; with the
    flight ring on it records one ``span`` event carrying ``name``,
    ``seconds``, ``ok`` and *meta* (a ``trace_id`` in *meta* becomes the
    event's own trace id).  With both off it returns a shared no-op —
    no allocation, no clock read.
    """
    if not (state.enabled or flight.state.enabled):
        return _NULL_SPAN
    return _Span(name, meta)


class _Owner:
    """The weakly referenced token that ties a wrapper's shards to the
    wrapper's lifetime."""

    __slots__ = ("__weakref__",)


def instrumented(name: str, fn):
    """Wrap *fn* (called with positional arguments only, as SQLite calls
    routines) with ``<name>.calls`` / ``.seconds`` / ``.errors``.

    The wrapper is a straight pass-through while observability is
    disabled — one attribute load, nothing allocated — and the
    instruments only come into existence on the first call with it
    enabled.  A wrapper belongs to one connection, and one thread uses
    a connection at a time, so a call records without a lock: into the
    wrapper's own shard of the ``.calls`` counter and ``.seconds``
    histogram (:class:`~repro.obs.instruments.Shard`), which every read
    of those instruments adds in.  The shard is looked up once per
    registry epoch (a new registry or a reset), not on every call.
    The rare ``.errors`` count goes through the locked counter.
    """
    calls_name = name + ".calls"
    errors_name = name + ".errors"
    seconds_name = name + ".seconds"
    owner = _Owner()
    bounds = DEFAULT_BOUNDS
    current = None  # the shard in the registry recorded into last

    def wrapper(*args):
        nonlocal current
        if not state.enabled:
            return fn(*args)
        registry = _registry._default_registry
        shard = current
        if shard is None or shard.epoch is not registry.epoch:
            shard = current = registry.shard(calls_name, seconds_name, owner)
        started = perf_counter()
        try:
            return fn(*args)
        except Exception:
            registry.counter(errors_name).inc()
            raise
        finally:
            elapsed = perf_counter() - started
            shard.count += 1
            shard.sum += elapsed
            if elapsed < shard.min:
                shard.min = elapsed
            if elapsed > shard.max:
                shard.max = elapsed
            shard.buckets[bisect_left(bounds, elapsed)] += 1

    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__wrapped__ = fn
    return wrapper


def call(name: str, fn, *args):
    """One-shot :func:`instrumented`: run ``fn(*args)`` under *name*.

    For call sites where the callable is looked up dynamically (the
    blade's implicit cast graph) and wrapping once is not possible.
    """
    if not state.enabled:
        return fn(*args)
    registry = get_registry()
    started = perf_counter()
    try:
        return fn(*args)
    except Exception:
        registry.counter(name + ".errors").inc()
        raise
    finally:
        registry.counter(name + ".calls").inc()
        registry.histogram(name + ".seconds").observe(perf_counter() - started)


@contextmanager
def capture(enabled: bool = True):
    """Temporarily install a fresh registry + flight ring; yield the registry.

    The workhorse of the test suite: isolates metric assertions from
    whatever the process accumulated before, and restores the previous
    registry, ring, switch positions, and profiler state (switch,
    threshold, sink) on exit.
    """
    previous_enabled = state.enabled
    registry = MetricsRegistry("capture")
    previous_registry = set_registry(registry)
    pstate = profile.state
    previous_profiler = (pstate.enabled, pstate.slow_threshold, pstate.sink_path)
    pstate.sink_path = None
    # Flight isolation mirrors the registry: a fresh ring, and the
    # recorder switch parked off so only tests that opt in see events.
    fstate = flight.state
    previous_flight = (fstate.enabled, fstate.crash_dump_path,
                       flight.set_recorder(flight.FlightRecorder()))
    fstate.enabled = False
    fstate.crash_dump_path = None
    state.enabled = enabled
    try:
        yield registry
    finally:
        state.enabled = previous_enabled
        set_registry(previous_registry)
        pstate.enabled, pstate.slow_threshold, pstate.sink_path = previous_profiler
        fstate.enabled, fstate.crash_dump_path = previous_flight[:2]
        flight.set_recorder(previous_flight[2])
