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

Nested calls run as fused trees (:mod:`repro.blade.fusion`): a TIP
cursor hands SQLite ``tip_eval('tlt(tsub(start(?),?),?)', valid, dob,
k)`` instead of the nested calls, and the installation's variadic
``tip_eval`` runs the whole tree in one SQLite callback per row.  Each
routine has one call plan: a *node* that applies the ``blade.routine``
fault hook, coerces its arguments left to right NULL-strictly, runs the
implementation and hands the result on as SQLite would (booleans as
0/1, non-TIP blade values encoded) — except that a TIP value stays an
object, which the next node accepts like its decoded blob, since
``decode(encode(v)) == v``.  A direct SQL call of the routine is the
same plan with the result encoded.  ``tip_eval`` compiles each template
once per installation (a bounded map) into arity-specialized closures
over the nodes; it evaluates every child left to right before its
parent, even after a NULL, because SQLite evaluates every argument of
a call.  Nodes and ``tip_eval`` are instrumented like every routine, so
``blade.routine.<name>.calls`` counts the same calls either way, plus
one ``blade.routine.tip_eval`` call per fused tree.
"""

from __future__ import annotations

import sqlite3
from typing import Callable, Dict, Optional

from repro import codec, obs
from repro.blade.datablade import TIP_TYPES, build_tip_blade
from repro.blade.fusion import EVAL_ROUTINE, parse_template
from repro.faults import state as _FAULTS
from repro.blade.registry import AggregateDef, DataBlade, RoutineDef
from repro.errors import TipError, TipTypeError

__all__ = ["install_blade", "install_tip", "tip_blade", "BladeConnection"]

_TIP_BLADE: Optional[DataBlade] = None

#: Compiled ``tip_eval`` templates one installation keeps.
TEMPLATE_CACHE_SIZE = 256


class BladeConnection(sqlite3.Connection):
    """A :class:`sqlite3.Connection` that can remember (as
    ``blade_routines``) the routines every blade installed into it, so
    ``tip_eval`` resolves a routine name to the routine SQLite itself
    would call: the last installed."""


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


def _encode_result(value, blade: DataBlade):
    """Marshal a routine result back to a SQLite storage class."""
    if value is None:
        return None
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, TIP_TYPES):
        return codec.encode(value)
    if isinstance(value, (int, float, str, bytes)):
        return value
    type_def = blade.type_for_class(type(value))
    if type_def is not None:
        return type_def.encode(value)
    raise TipTypeError(f"routine returned unsupported type {type(value).__name__}")


def _inner_result(value, blade: DataBlade):
    """A routine result as SQLite would hand it to the call around it,
    except that a TIP value stays an object."""
    if value is None or isinstance(value, TIP_TYPES):
        return value
    return _encode_result(value, blade)


def _compile_coercer(type_name: str, blade: DataBlade) -> Callable:
    """A specialized argument coercer for one declared signature slot.

    Compiled once per call plan, replacing the per-call branch ladder
    of :func:`_coerce_argument` with a closure that inlines the
    overwhelmingly common paths — an exact TIP blob (through the decode
    cache), an already-correct Python value (a fused tree's inner TIP
    result), or a literal string (through the parse cache) — and defers
    everything else (widening casts, blade-specific encodings,
    bytearray/memoryview arguments) to the generic branch chain.
    """
    decode = codec.decode
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
        if type(value) is python_type:  # a fused tree's inner result
            return value
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


def _call_plan(routine: RoutineDef, blade: DataBlade, finish: Callable) -> Callable:
    """Compile the specialized call plan for one routine.

    The plan is specialized twice: per *argument* (the coercers from
    :func:`_compile_coercer`) and per *arity*, so the common unary and
    binary routines run without the generic zip/loop/isinstance ladder.
    NULL handling keeps the engine's strict left-to-right semantics: a
    type error in an earlier argument still wins over a NULL in a later
    one, exactly as the generic path coerced them in order.  *finish*
    marshals the result: :func:`_encode_result` for a direct SQL call,
    :func:`_inner_result` for a node of a fused tree.
    """
    implementation = routine.implementation
    coercers = tuple(_compile_coercer(type_name, blade) for type_name in routine.arg_types)

    if len(coercers) == 0:

        def plan():
            if _FAULTS.plan is not None:
                # Chaos hook: an injected routine failure must surface
                # as a typed engine error on this statement, leaving
                # the session and the connection usable.
                _FAULTS.plan.apply("blade.routine")
            return finish(implementation(), blade)

    elif len(coercers) == 1:
        (coerce0,) = coercers

        def plan(raw0):
            if _FAULTS.plan is not None:
                _FAULTS.plan.apply("blade.routine")
            if raw0 is None:
                return None
            return finish(implementation(coerce0(raw0)), blade)

    elif len(coercers) == 2:
        coerce0, coerce1 = coercers

        def plan(raw0, raw1):
            if _FAULTS.plan is not None:
                _FAULTS.plan.apply("blade.routine")
            if raw0 is None:
                return None
            arg0 = coerce0(raw0)
            if raw1 is None:
                return None
            return finish(implementation(arg0, coerce1(raw1)), blade)

    else:

        def plan(*raw_args):
            if _FAULTS.plan is not None:
                _FAULTS.plan.apply("blade.routine")
            args = []
            for raw, coerce in zip(raw_args, coercers):
                if raw is None:
                    return None
                args.append(coerce(raw))
            return finish(implementation(*args), blade)

    plan.__name__ = f"tip_sql_{routine.name}"
    plan.__doc__ = routine.doc
    return plan


def _compile_tree(tree, node_for: Callable) -> Callable:
    """A closure evaluating one parsed template *tree* over a tuple of
    leaf values, specialized by arity and by leaf/subtree children."""
    name, children = tree
    node = node_for(name, len(children))
    if len(children) == 1:
        (child0,) = children
        if type(child0) is int:
            return lambda leaves: node(leaves[child0])
        tree0 = _compile_tree(child0, node_for)
        return lambda leaves: node(tree0(leaves))
    if len(children) == 2:
        child0, child1 = children
        if type(child0) is int:
            if type(child1) is int:
                return lambda leaves: node(leaves[child0], leaves[child1])
            tree1 = _compile_tree(child1, node_for)
            return lambda leaves: node(leaves[child0], tree1(leaves))
        tree0 = _compile_tree(child0, node_for)
        if type(child1) is int:
            return lambda leaves: node(tree0(leaves), leaves[child1])
        tree1 = _compile_tree(child1, node_for)
        return lambda leaves: node(tree0(leaves), tree1(leaves))
    parts = tuple((lambda leaves, index=child: leaves[index]) if type(child) is int
                  else _compile_tree(child, node_for) for child in children)
    return lambda leaves: node(*[part(leaves) for part in parts])


def _make_eval(routines: Dict) -> Callable:
    """The variadic ``tip_eval(template, leaf, ...)`` of one installation.

    *routines* maps ``(name, arity)`` to ``(routine, blade)``; nodes are
    built on first use and templates compiled once, at most
    :data:`TEMPLATE_CACHE_SIZE` of them.
    """
    nodes: Dict = {}
    compiled: Dict = {}

    def node_for(name: str, arity: int) -> Callable:
        key = (name, arity)
        node = nodes.get(key)
        if node is None:
            if key not in routines:
                raise TipError(f"{EVAL_ROUTINE}: no routine {name} taking {arity} argument(s)")
            routine, blade = routines[key]
            node = nodes[key] = obs.instrumented(
                f"blade.routine.{name}", _call_plan(routine, blade, _inner_result))
        return node

    def compile_template(template) -> tuple:
        if not isinstance(template, str):
            raise TipTypeError(f"{EVAL_ROUTINE} expects a text template first")
        tree, width = parse_template(template)
        entry = (_compile_tree(tree, node_for), width)
        if len(compiled) >= TEMPLATE_CACHE_SIZE:
            del compiled[next(iter(compiled))]
        compiled[template] = entry
        return entry

    def tip_eval(template, *leaves):
        entry = compiled.get(template)
        if entry is None:
            entry = compile_template(template)
        evaluate, width = entry
        if len(leaves) != width:
            raise TipError(f"{EVAL_ROUTINE} template {template!r} takes {width} "
                           f"argument(s), got {len(leaves)}")
        value = evaluate(leaves)
        return codec.encode(value) if isinstance(value, TIP_TYPES) else value

    return tip_eval


def _make_sql_aggregate(aggregate: AggregateDef, blade: DataBlade) -> type:
    factory = aggregate.factory
    steps_name = f"blade.aggregate.{aggregate.name}.steps"
    # The same specialized coercion plan as scalar routines: compiled
    # once here, then run per input row.
    coerce = _compile_coercer(aggregate.arg_type, blade)

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
    installation also (re)registers ``tip_eval``, which evaluates fused
    trees over every routine installed so far on a connection that
    takes attributes, such as a :class:`BladeConnection` (over *blade*'s
    alone on a plain :class:`sqlite3.Connection`).
    """
    routines = getattr(connection, "blade_routines", None)
    if routines is None:
        routines = {}
        try:
            connection.blade_routines = routines
        except AttributeError:
            pass  # a plain sqlite3.Connection takes no attributes
    for key, routine in blade.routines.items():
        name, arity = key
        routines[key] = (routine, blade)
        connection.create_function(
            name,
            arity,
            obs.instrumented(
                f"blade.routine.{name}", _call_plan(routine, blade, _encode_result)
            ),
            deterministic=routine.deterministic,
        )
    connection.create_function(
        EVAL_ROUTINE, -1,
        obs.instrumented(f"blade.routine.{EVAL_ROUTINE}", _make_eval(routines)),
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
