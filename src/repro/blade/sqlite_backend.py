"""Installation of a DataBlade into a :mod:`sqlite3` connection.

This module plays the role of the Informix server's extension loader:
after :func:`install_blade`, every routine and aggregate of the blade is
callable from SQL on that connection, with values marshalled between
SQLite's storage classes and the blade's Python types.

Marshalling rules, mirroring the engine behaviour the paper describes:

* blade values travel as tagged binary blobs (:mod:`repro.codec`);
* a string argument where a blade type is expected is parsed via the
  blade's string cast — this is how ``overlaps(valid, '{[1999-01-01,
  NOW]}')`` works with a literal, the paper's implicit string casts;
* a value of a different blade type is widened through the blade's
  implicit cast graph (``Chronon -> Instant -> Period -> Element``);
* SQL ``NULL`` anywhere yields ``NULL`` (strict routines);
* booleans surface as SQLite integers 0/1.

Each installation keeps a memo of the TIP values its routines just
returned, keyed by result blob, so ``tsub(start(valid), dob)`` gets
``start``'s value back without a decode.  A connection runs on one
thread at a time, so the memo needs no lock; it is bypassed while a
fault plan is armed or the marshalling caches are off, and its hits
count as the decode cache's ``memo_hits``.
"""

from __future__ import annotations

import sqlite3
from typing import Callable, Optional

from repro import codec, obs
from repro.blade.datablade import TIP_TYPES, build_tip_blade
from repro.faults import state as _FAULTS
from repro.blade.registry import AggregateDef, DataBlade, RoutineDef
from repro.errors import TipError, TipTypeError

__all__ = ["install_blade", "install_tip", "tip_blade"]

_TIP_BLADE: Optional[DataBlade] = None

#: Routine results one connection remembers for the calls around them.
MEMO_SIZE = 64
_DECODE_CACHE = codec.cache.DECODE
_CACHE_STATE = codec.cache.state


def tip_blade() -> DataBlade:
    """The singleton TIP blade bundle (built on first use)."""
    global _TIP_BLADE
    if _TIP_BLADE is None:
        _TIP_BLADE = build_tip_blade()
    return _TIP_BLADE


def _register_module_level_codecs() -> None:
    """Register global sqlite3 adapters/converters for the TIP types.

    Adapters let TIP objects be passed directly as statement parameters;
    converters decode columns whose *declared* type is a TIP type name
    (``CREATE TABLE ... valid ELEMENT``) on connections opened with
    ``detect_types=sqlite3.PARSE_DECLTYPES``.
    """
    for tip_type in TIP_TYPES:
        sqlite3.register_adapter(tip_type, codec.encode)
        sqlite3.register_converter(tip_type.__name__.upper(), codec.decode)


_register_module_level_codecs()


class _Null(Exception):
    """Internal control flow: a NULL argument short-circuits to NULL."""


def _coerce_argument(value, type_name: str, blade: DataBlade):
    """Decode and implicitly cast one SQL argument to its declared type.

    The generic (slow) path: the compiled per-routine call plans built
    by :func:`_compile_coercer` inline the common cases and fall back
    here for widening casts, blade-specific encodings, and exotic
    argument types.
    """
    if value is None:
        raise _Null()
    if isinstance(value, (bytes, bytearray, memoryview)):
        if codec.is_tip_blob(value):
            # codec.decode normalizes bytearray/memoryview itself — no
            # bytes() pre-copy here (for exact bytes it is also the
            # decode-cache key, borrowed as-is).
            value = codec.decode(value)
        elif type_name in blade.types:
            # A blade-specific binary encoding for the declared type.
            value = blade.types[type_name].decode(bytes(value))
        elif type_name not in ("any", "text"):
            raise TipTypeError(f"argument is a non-TIP blob where {type_name} was expected")

    if type_name == "any":
        return value

    if type_name in ("integer", "number", "float", "boolean", "text"):
        return _coerce_scalar(value, type_name)

    type_def = blade.types.get(type_name)
    if type_def is None:
        raise TipTypeError(f"routine declared unknown type {type_name!r}")
    if isinstance(value, type_def.python_type):
        return value
    if isinstance(value, str):
        return codec.cache.parse_cached(type_def.parse, value)
    # Implicit widening between blade types (e.g. Chronon where an
    # Element is expected).
    source_def = blade.type_for_class(type(value))
    if source_def is not None:
        cast_def = blade.find_cast(source_def.name, type_name, implicit_only=True)
        if cast_def is not None:
            # Casts are resolved dynamically, so they are instrumented
            # per call rather than wrapped once at install time.
            return obs.call(
                f"blade.cast.{cast_def.source}->{cast_def.target}",
                cast_def.implementation,
                value,
            )
    raise TipTypeError(
        f"no implicit conversion from {type(value).__name__} to {type_name}"
    )


def _coerce_scalar(value, type_name: str):
    if type_name == "text":
        if isinstance(value, str):
            return value
        raise TipTypeError(f"expected text, got {type(value).__name__}")
    if type_name == "integer":
        if isinstance(value, bool) or not isinstance(value, int):
            raise TipTypeError(f"expected an integer, got {type(value).__name__}")
        return value
    if type_name == "float":
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise TipTypeError(f"expected a float, got {type(value).__name__}")
    if type_name == "number":
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return value
        raise TipTypeError(f"expected a number, got {type(value).__name__}")
    if type_name == "boolean":
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return bool(value)
        raise TipTypeError(f"expected a boolean, got {type(value).__name__}")
    raise TipTypeError(f"unknown scalar type {type_name!r}")


def _encode_result(value, blade: DataBlade, memo=None):
    """Marshal a routine result back to a SQLite storage class; a TIP
    result is remembered in *memo* under its blob."""
    if value is None:
        return None
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, TIP_TYPES):
        blob = codec.encode(value)
        if memo is not None and _FAULTS.plan is None and _CACHE_STATE.enabled:
            if len(memo) >= MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[blob] = value
        return blob
    if isinstance(value, (int, float, str, bytes)):
        return value
    type_def = blade.type_for_class(type(value))
    if type_def is not None:
        return type_def.encode(value)
    raise TipTypeError(f"routine returned unsupported type {type(value).__name__}")


def _recall(memo) -> Callable:
    """``codec.decode`` behind a connection's result *memo*."""
    decode = codec.decode

    def recall(blob):
        if type(blob) is bytes and _FAULTS.plan is None:
            value = memo.get(blob)
            if value is not None:
                _DECODE_CACHE.memo_hit()
                return value
        return decode(blob)

    return recall


def _compile_coercer(type_name: str, blade: DataBlade, memo: dict) -> Callable:
    """A specialized argument coercer for one declared signature slot.

    Compiled once per routine at :func:`install_blade` time, replacing
    the per-call branch ladder of :func:`_coerce_argument` with a
    closure that inlines the overwhelmingly common paths — an exact
    TIP blob (through the connection's result *memo*, then the decode
    cache), an already-correct Python value, or a literal string
    (through the parse cache) — and defers everything else (widening
    casts, blade-specific encodings, bytearray/memoryview arguments) to
    the generic branch chain.
    """
    decode = _recall(memo)
    is_tip_blob = codec.is_tip_blob
    if type_name == "any":

        def coerce_any(value):
            if isinstance(value, (bytes, bytearray, memoryview)) and is_tip_blob(value):
                return decode(value)
            return value

        return coerce_any
    if type_name in ("integer", "number", "float", "boolean", "text"):

        def coerce_scalar(value):
            return _coerce_scalar(value, type_name)

        return coerce_scalar

    type_def = blade.types.get(type_name)
    if type_def is None:  # pragma: no cover - registry validates signatures
        raise TipTypeError(f"routine declared unknown type {type_name!r}")
    python_type = type_def.python_type
    parse = type_def.parse
    parse_cached = codec.cache.parse_cached

    def coerce(value):
        if type(value) is bytes:  # the SQLite marshaller hands exact bytes
            if is_tip_blob(value):
                decoded = decode(value)
                if type(decoded) is python_type:
                    return decoded
                # A different TIP type where this one was declared:
                # run the widening-cast branch on the decoded value.
                return _coerce_argument(decoded, type_name, blade)
            return _coerce_argument(value, type_name, blade)
        if type(value) is str:
            return parse_cached(parse, value)
        if isinstance(value, python_type):
            return value
        return _coerce_argument(value, type_name, blade)

    return coerce


def _make_sql_function(routine: RoutineDef, blade: DataBlade, memo: dict) -> Callable:
    """Compile the specialized call plan for one routine.

    The plan is specialized twice: per *argument* (the coercers from
    :func:`_compile_coercer`) and per *arity*, so the common unary and
    binary routines run without the generic zip/loop/isinstance ladder.
    NULL handling keeps the engine's strict left-to-right semantics: a
    type error in an earlier argument still wins over a NULL in a later
    one, exactly as the generic path coerced them in order.
    """
    implementation = routine.implementation
    coercers = tuple(_compile_coercer(type_name, blade, memo)
                     for type_name in routine.arg_types)

    if len(coercers) == 0:

        def sql_function():
            if _FAULTS.plan is not None:
                # Chaos hook: an injected routine failure must surface
                # as a typed engine error on this statement, leaving
                # the session and the connection usable.
                _FAULTS.plan.apply("blade.routine")
            return _encode_result(implementation(), blade, memo)

    elif len(coercers) == 1:
        (coerce0,) = coercers

        def sql_function(raw0):
            if _FAULTS.plan is not None:
                _FAULTS.plan.apply("blade.routine")
            if raw0 is None:
                return None
            return _encode_result(implementation(coerce0(raw0)), blade, memo)

    elif len(coercers) == 2:
        coerce0, coerce1 = coercers

        def sql_function(raw0, raw1):
            if _FAULTS.plan is not None:
                _FAULTS.plan.apply("blade.routine")
            if raw0 is None:
                return None
            arg0 = coerce0(raw0)
            if raw1 is None:
                return None
            return _encode_result(implementation(arg0, coerce1(raw1)), blade, memo)

    else:

        def sql_function(*raw_args):
            if _FAULTS.plan is not None:
                _FAULTS.plan.apply("blade.routine")
            args = []
            for raw, coerce in zip(raw_args, coercers):
                if raw is None:
                    return None
                args.append(coerce(raw))
            return _encode_result(implementation(*args), blade, memo)

    sql_function.__name__ = f"tip_sql_{routine.name}"
    sql_function.__doc__ = routine.doc
    return sql_function


def _make_sql_aggregate(aggregate: AggregateDef, blade: DataBlade) -> type:
    factory = aggregate.factory
    steps_name = f"blade.aggregate.{aggregate.name}.steps"
    # The same specialized coercion plan as scalar routines: compiled
    # once here, then run per input row.
    coerce = _compile_coercer(aggregate.arg_type, blade, {})

    class SqlAggregate:
        def __init__(self) -> None:
            self._inner = factory()

        def step(self, value) -> None:
            if value is None:
                return  # SQL aggregates ignore NULLs
            if obs.state.enabled:
                obs.counter(steps_name).inc()
            self._inner.step(coerce(value))

        def finalize(self):
            return _encode_result(self._inner.finish(), blade)

    SqlAggregate.__name__ = f"TipAggregate_{aggregate.name}"
    SqlAggregate.__doc__ = aggregate.doc
    # Per-group call count, latency, and errors for the finalize step.
    SqlAggregate.finalize = obs.instrumented(
        f"blade.aggregate.{aggregate.name}", SqlAggregate.finalize
    )
    return SqlAggregate


def install_blade(connection: sqlite3.Connection, blade: DataBlade) -> sqlite3.Connection:
    """Install every routine and aggregate of *blade* into *connection*.

    Returns the connection for chaining.  Installation is idempotent
    (re-creating a function replaces it).  Every entry point is wrapped
    with per-name call-count/latency/error instrumentation here, at
    ``create_function`` time; the wrappers are inert pass-throughs
    until :func:`repro.obs.enable` flips the process-wide switch.  The
    routines share one result memo per installation.
    """
    memo: dict = {}
    for (name, arity), routine in blade.routines.items():
        connection.create_function(
            name,
            arity,
            obs.instrumented(
                f"blade.routine.{name}", _make_sql_function(routine, blade, memo)
            ),
            deterministic=routine.deterministic,
        )
    for name, aggregate in blade.aggregates.items():
        connection.create_aggregate(name, 1, _make_sql_aggregate(aggregate, blade))
    return connection


def install_tip(connection: sqlite3.Connection) -> sqlite3.Connection:
    """Install the TIP blade into *connection* (the paper's ``install``)."""
    try:
        return install_blade(connection, tip_blade())
    except TipError:
        raise
