"""Observability: metrics and tracing for the TIP engine.

The paper's central quantitative claim — in-engine temporal routines
run in time linear in the number of periods (Sections 3–4, experiments
E1/E2) — is only checkable if the engine can report the work it
performs.  This package provides that report surface:

* **counters** — call counts, error counts, periods-processed volumes;
* **histograms** — per-routine latency distributions;
* **spans** — ring-buffered trace events for coarse operations.

Everything hangs off one process-wide switch (:func:`enable` /
:func:`disable`, default *off*).  Hot paths guard on
``registry.state.enabled`` — a single attribute load — and instruments
are created lazily, so a disabled engine does no metric work and
allocates nothing (asserted by ``tests/test_obs.py``).

Call sites either wrap a callable once (:func:`instrumented`, used by
the blade installer at ``create_function`` time) or record explicit
counters under the guard (the interval-algebra sweeps).  Snapshots are
plain data, safe to frame over the server protocol as a ``METRICS``
response and to render via :mod:`repro.obs.export`.
"""

from __future__ import annotations

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
    span_records,
)
from repro.obs.instruments import Counter, Histogram
from repro.obs.registry import (
    MetricsRegistry,
    disable,
    enable,
    get_registry,
    is_enabled,
    set_registry,
    state,
)
from repro.obs.trace import (
    TraceBuffer,
    TraceEvent,
    get_trace_buffer,
    set_trace_buffer,
    span,
)
from repro.obs import flight, profile

__all__ = [
    "Counter", "Histogram", "MetricsRegistry", "TraceBuffer", "TraceEvent",
    "enable", "disable", "is_enabled", "state",
    "get_registry", "set_registry", "get_trace_buffer", "set_trace_buffer",
    "counter", "histogram", "span", "snapshot", "instrumented", "call", "capture",
    "render_text", "render_json", "render_prometheus", "render_profile",
    "render_spans", "span_records", "assemble_trace",
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

    *trace_tail* > 0 appends the most recent trace events.  Every
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

    data["caches"] = _marshal_cache.stats()
    data["caches"]["statement"] = _stmt_cache.stats()
    if _marshal_cache.state.enabled and state.enabled:
        # Zero-valued entries are skipped so an idle (or freshly reset)
        # snapshot still renders as "(no metrics recorded)".
        for cache_counter, cache_value in _marshal_cache.stats_counters().items():
            if cache_value:
                counters.setdefault(cache_counter, cache_value)
    if _stmt_cache.state.enabled and state.enabled:
        for cache_counter, cache_value in _stmt_cache.stats_counters().items():
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
        data["trace"] = [
            event.as_dict() for event in get_trace_buffer().events(last=trace_tail)
        ]
    return data


def instrumented(name: str, fn):
    """Wrap *fn* with ``<name>.calls`` / ``.seconds`` / ``.errors``.

    The wrapper is a straight pass-through while observability is
    disabled; the instruments only come into existence on the first
    call with it enabled.  The ``.calls`` counter and ``.seconds``
    histogram are looked up once per registry epoch (a new registry or
    a reset), not on every call.
    """
    calls_name = name + ".calls"
    errors_name = name + ".errors"
    seconds_name = name + ".seconds"
    bound = [(None, None, None)]  # (epoch, calls, seconds), swapped whole

    def wrapper(*args, **kwargs):
        if not state.enabled:
            return fn(*args, **kwargs)
        registry = get_registry()
        epoch, calls, seconds = bound[0]
        if epoch is not registry.epoch:
            epoch = registry.epoch
            calls = registry.counter(calls_name)
            seconds = registry.histogram(seconds_name)
            bound[0] = (epoch, calls, seconds)
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            registry.counter(errors_name).inc()
            raise
        finally:
            calls.inc()
            seconds.observe(perf_counter() - started)

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
    """Temporarily install a fresh registry + trace buffer; yield the registry.

    The workhorse of the test suite: isolates metric assertions from
    whatever the process accumulated before, and restores the previous
    registry, buffer, switch position, and profiler state (switch,
    threshold, rings) on exit.
    """
    from collections import deque

    previous_enabled = state.enabled
    registry = MetricsRegistry("capture")
    previous_registry = set_registry(registry)
    previous_buffer = set_trace_buffer(TraceBuffer())
    pstate = profile.state
    previous_profiles = (
        pstate.recent, pstate.slow, pstate.slow_threshold, pstate.enabled,
    )
    pstate.recent = deque(maxlen=profile.RECENT_CAPACITY)
    pstate.slow = profile.SlowQueryLog()
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
        set_trace_buffer(previous_buffer)
        (pstate.recent, pstate.slow, pstate.slow_threshold,
         pstate.enabled) = previous_profiles
        fstate.enabled, fstate.crash_dump_path = previous_flight[:2]
        flight.set_recorder(previous_flight[2])
