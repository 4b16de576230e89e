"""Traced launcher: ``python perfbench/traced_server.py <repro serve args>``.

Starts the same server as ``python -m repro serve`` (it calls
:func:`repro.cli.serve_main` with the same arguments), after wrapping
the public functions of each layer with self-time spans.  Nothing under
``src/`` changes: every wrapper replaces a module or class attribute at
the place its caller looks it up, and all of them are installed before
``TipServer`` is built, because ``install_blade`` captures
``codec.decode`` into the blade's call plans and the sqlite3 adapters
capture ``codec.encode`` / ``codec.decode`` at import.

A span's self time is its duration minus the time covered by spans
nested inside it on the same thread.  Totals live in per-thread slots
and leave the process through the existing METRICS frame: the wrapped
``repro.obs.snapshot`` adds them to the counter table as
``trace.self_ns.<layer>`` / ``trace.calls.<layer>`` / ``trace.extra.<name>``,
so the benchmark harvests them as before/after deltas like every other
counter.  The profiler (``repro.obs.profile``) stays off and no fault
plan is armed: either would change the plan the server runs.
"""

from __future__ import annotations

import sqlite3
import sys
import threading
from time import perf_counter_ns

LAYERS = (
    "protocol.decode",   # request frame parse + parameter decode
    "protocol.encode",   # response frame serialization
    "protocol.row",      # result-row encoding (dump_row / dump_value)
    "pool.read",         # reader checkout + check-in
    "pool.write",        # writer lock acquisition + release
    "pool.checkpoint",   # post-commit WAL checkpoint cadence
    "tsql.compile",      # statement-cache lookup + compile glue
    "tsql.translate",    # tSQL -> SQL translation (cache misses only)
    "plan.decide",       # shape matching + planner vetoes
    "kernels.join",
    "kernels.coalesce",
    "sqlite.exec",       # SQLite execution/fetch around UDF callbacks
    "blade.routine",     # UDF call plans + routine bodies
    "blade.aggregate",   # aggregate step/finalize
    "codec.decode",
    "codec.encode",
    "codec.parse",       # literal-string parse (parse cache)
    "typemap.map",       # result-row type mapping
)
EXTRAS = (
    "protocol.bytes_in", "protocol.bytes_out",
    "kernels.join.candidates", "kernels.join.rows",
)


class _Totals:
    """One thread's accumulators; keys are fixed so readers never see
    a dict resize while the owning thread updates values."""

    __slots__ = ("stack", "self_ns", "calls", "extra")

    def __init__(self) -> None:
        self.stack: list = []
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.extra = dict.fromkeys(EXTRAS, 0)


_LOCAL = threading.local()
_ALL: list = []
_ALL_LOCK = threading.Lock()


def _totals() -> _Totals:
    try:
        return _LOCAL.totals
    except AttributeError:
        totals = _LOCAL.totals = _Totals()
        with _ALL_LOCK:
            _ALL.append(totals)
        return totals


def _end(totals: _Totals, layer: str, started: int) -> None:
    elapsed = perf_counter_ns() - started
    stack = totals.stack
    children = stack.pop()
    totals.self_ns[layer] += elapsed - children
    totals.calls[layer] += 1
    if stack:
        stack[-1] += elapsed


def wrap(layer: str, fn):
    """*fn* inside a span of *layer*."""

    def traced(*args, **kwargs):
        totals = _totals()
        totals.stack.append(0)
        started = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            _end(totals, layer, started)

    return traced


class _TimedContext:
    """A context manager whose enter and exit are spans of one layer;
    the body belongs to whoever opened it."""

    __slots__ = ("_layer", "_inner")

    def __init__(self, layer: str, inner) -> None:
        self._layer = layer
        self._inner = inner

    def __enter__(self):
        totals = _totals()
        totals.stack.append(0)
        started = perf_counter_ns()
        try:
            return self._inner.__enter__()
        finally:
            _end(totals, self._layer, started)

    def __exit__(self, *exc_info):
        totals = _totals()
        totals.stack.append(0)
        started = perf_counter_ns()
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            _end(totals, self._layer, started)


def wrap_context(layer: str, fn):
    def traced(*args, **kwargs):
        return _TimedContext(layer, fn(*args, **kwargs))

    return traced


def merged_counters() -> dict:
    """Every thread's totals summed, as flat counter names."""
    with _ALL_LOCK:
        threads = list(_ALL)
    flat: dict = {}
    for totals in threads:
        for prefix, table in (("trace.self_ns.", totals.self_ns),
                              ("trace.calls.", totals.calls),
                              ("trace.extra.", totals.extra)):
            for key, value in dict(table).items():
                flat[prefix + key] = flat.get(prefix + key, 0) + value
    return flat


def install() -> None:
    """Wrap every layer; must run before any TIP connection opens."""
    import repro.codec as codec
    import repro.codec.cache as codec_cache
    import repro.obs as obs
    from repro.blade import sqlite_backend
    from repro.blade.datablade import TIP_TYPES
    from repro.client.connection import TipCursor
    from repro.client.typemap import TypeMap
    from repro.plan import kernels, planner, shapes
    from repro.server import protocol
    from repro.server.pool import ConnectionPool
    from repro.tsql import compiled, preprocessor

    # Protocol: frames in (parse, parameters) and out (rows, frames).
    load_frame = protocol.load_frame
    dump_frame = protocol.dump_frame

    def load_frame_counted(line):
        _totals().extra["protocol.bytes_in"] += len(line)
        return load_frame(line)

    def dump_frame_counted(frame):
        payload = dump_frame(frame)
        _totals().extra["protocol.bytes_out"] += len(payload)
        return payload

    protocol.load_frame = wrap("protocol.decode", load_frame_counted)
    protocol.dump_frame = wrap("protocol.encode", dump_frame_counted)
    protocol.load_value = wrap("protocol.decode", protocol.load_value)
    protocol.dump_row = wrap("protocol.row", protocol.dump_row)
    protocol.dump_value = wrap("protocol.row", protocol.dump_value)

    # Pool: checkout/check-in, writer lock, checkpoint cadence.
    ConnectionPool.read = wrap_context("pool.read", ConnectionPool.read)
    ConnectionPool.write = wrap_context("pool.write", ConnectionPool.write)
    ConnectionPool.after_write_commit = wrap(
        "pool.checkpoint", ConnectionPool.after_write_commit)

    # Statement compilation and planning.
    compiled.StatementCompiler.compile = wrap(
        "tsql.compile", compiled.StatementCompiler.compile)
    preprocessor.translate_tsql = wrap("tsql.translate", preprocessor.translate_tsql)
    shapes.match = wrap("plan.decide", shapes.match)
    planner.maybe_execute_kernel = wrap("plan.decide", planner.maybe_execute_kernel)

    execute_join = kernels.execute_join

    def execute_join_counted(*args, **kwargs):
        result = execute_join(*args, **kwargs)
        extra = _totals().extra
        extra["kernels.join.candidates"] += result.stats.get("candidates", 0)
        extra["kernels.join.rows"] += len(result.rows)
        return result

    kernels.execute_join = wrap("kernels.join", execute_join_counted)
    kernels.execute_coalesce = wrap("kernels.coalesce", kernels.execute_coalesce)

    # SQLite execution (the UDF, converter and type-map work it calls
    # back into is subtracted as nested spans).
    for name in ("execute", "execute_fetchall", "executemany", "fetchall"):
        setattr(TipCursor, name, wrap("sqlite.exec", getattr(TipCursor, name)))
    TypeMap.map_rows = wrap("typemap.map", TypeMap.map_rows)
    TypeMap.map_row = wrap("typemap.map", TypeMap.map_row)

    # Codec: the package attributes the blade call plans, protocol and
    # type map read, plus the sqlite3 adapters/converters captured at
    # import time.
    codec.decode = wrap("codec.decode", codec.decode)
    codec.encode = wrap("codec.encode", codec.encode)
    codec_cache.parse_cached = wrap("codec.parse", codec_cache.parse_cached)
    for tip_type in TIP_TYPES:
        sqlite3.register_adapter(tip_type, codec.encode)
        sqlite3.register_converter(tip_type.__name__.upper(), codec.decode)

    # Blade: routines are wrapped where install_blade instruments them;
    # aggregates where their class is built.
    instrumented = obs.instrumented

    def instrumented_traced(name, fn):
        wrapped = instrumented(name, fn)
        if name.startswith("blade.routine."):
            return wrap("blade.routine", wrapped)
        if name.startswith("blade.aggregate."):
            return wrap("blade.aggregate", wrapped)
        return wrapped

    obs.instrumented = instrumented_traced
    make_aggregate = sqlite_backend._make_sql_aggregate

    def make_aggregate_traced(aggregate, blade):
        cls = make_aggregate(aggregate, blade)
        cls.step = wrap("blade.aggregate", cls.step)
        return cls

    sqlite_backend._make_sql_aggregate = make_aggregate_traced

    # Export: the METRICS frame's snapshot carries the span totals.
    snapshot = obs.snapshot

    def snapshot_traced(*args, **kwargs):
        data = snapshot(*args, **kwargs)
        data.setdefault("counters", {}).update(merged_counters())
        return data

    obs.snapshot = snapshot_traced


def main(argv) -> int:
    install()
    from repro.cli import serve_main

    return serve_main(argv)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
