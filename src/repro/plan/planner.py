"""The temporal query planner: route matched shapes to the kernels.

Sits between tSQL translation and SQLite execution.  For each
translated statement the planner decides — visibly, via ``EXPLAIN
TEMPORAL`` and the ``plan.*`` counters — whether to evaluate it with a
set-based kernel (:mod:`repro.plan.kernels`) or to leave it on the
naive UDF path.  The naive path is always correct, so every decision
here is allowed to say "no": unmatched shapes, TIP-typed comparison
columns, inputs below the row threshold, or an armed fault plan that
does not target ``plan.kernel`` all fall back.  Observation never
does: a profiled statement runs the plan an unprofiled one runs, and
reports its kernel through the ``plan.kernel.*`` counter deltas its
profile carries.

Shape matching happens once per compiled statement: the statement
cache stamps the matched shape onto
:attr:`repro.tsql.compiled.CompiledStatement.shape`, and because that
cache is generation-keyed, any DDL or registry change that invalidates
prepared statements invalidates kernel plans with it.  Callers without
a compiled statement go through a small shape LRU keyed on the same
generation.  Declared column types
(:func:`repro.tsql.compiled.declared_columns`) are cached per
connection under the same generation key.

Knobs: ``TIP_KERNEL=0`` disables the planner process-wide, and
``min_rows`` (start value :data:`DEFAULT_MIN_ROWS`) is the bigger-side
row count below which bulk fetching cannot beat SQLite's own loop;
both are adjustable at runtime via :func:`configure`.
"""

from __future__ import annotations

import gc
import os
import weakref
from typing import Dict, List, Optional, Tuple, Union

from repro.client.literals import literal
from repro.codec.cache import LRUCache
from repro.core.nowctx import bind_now_seconds, reset_now
from repro.errors import TipError
from repro.faults import state as _FAULTS
from repro.obs import flight as _flight
from repro.obs.registry import get_registry as _obs_registry
from repro.obs.registry import state as _obs_state
from repro.plan import kernels, shapes
from repro.plan.kernels import KernelResult
from repro.plan.shapes import CoalesceShape, JoinShape
from repro.tsql import compiled
from repro.tsql.parser import Column

__all__ = [
    "state", "configure", "is_candidate", "maybe_execute_kernel",
    "describe", "clear_caches", "DEFAULT_MIN_ROWS",
]

DEFAULT_MIN_ROWS = 256

#: Declared types whose storage is TIP-encoded: comparing or grouping
#: on them in Python would diverge from the blade's semantics, so any
#: such column in a residual/key position vetoes the kernel.
TIP_DECLTYPES = frozenset(
    {"ELEMENT", "PERIOD", "CHRONON", "SPAN", "INSTANT"}
)


def _env_enabled() -> bool:
    return os.environ.get("TIP_KERNEL", "1").strip().lower() not in (
        "0", "false", "no", "off",
    )


class PlanState:
    """Process-wide planner switches, read per statement without a lock."""

    __slots__ = ("enabled", "min_rows")

    def __init__(self) -> None:
        self.enabled = _env_enabled()
        self.min_rows = DEFAULT_MIN_ROWS


state = PlanState()

#: (generation, translated sql) -> (shape | None,); keyed on the
#: statement-cache generation so DDL invalidates kernel plans exactly
#: when it invalidates prepared statements.
SHAPE_CACHE = LRUCache("plan.shape", 256)

#: connection -> (generation, {table: {column: decltype-or-""}}).
_SCHEMA_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def configure(
    *,
    enabled: Optional[bool] = None,
    min_rows: Optional[int] = None,
) -> None:
    """Adjust the planner knobs at runtime (used by benches and tests)."""
    if enabled is not None:
        state.enabled = enabled
        if not enabled:
            SHAPE_CACHE.clear()
    if min_rows is not None:
        state.min_rows = max(0, min_rows)


def clear_caches() -> None:
    """Drop cached shapes and schemas (tests; ``faults.arm`` bypasses
    the caches instead of clearing them, see :func:`_lookup_shape`)."""
    SHAPE_CACHE.clear()
    _SCHEMA_CACHE.clear()


def is_candidate(sql: str) -> bool:
    """Cheap pre-filter: does *sql* contain a kernel-evaluable operator?

    One lowercase scan; the hot prepared path pays only this check, so
    a SNAPSHOT query (``contains_instant``) or plain SQL skips the
    matcher entirely.
    """
    lowered = sql.lower()
    return "tintersect(" in lowered or "group_union(" in lowered


# -- decision pipeline --------------------------------------------------


def _count(value_name: str) -> None:
    if _obs_state.enabled:
        _obs_registry().counter(value_name).inc()


def _fallback(reason: str) -> None:
    _count(f"plan.fallback.{reason}")
    if _flight.state.enabled:
        _flight.record("plan.fallback", reason=reason)


def _lookup_shape(sql: str) -> Optional[Union[JoinShape, CoalesceShape]]:
    """Match *sql*, via the generation-keyed cache when no plan is armed."""
    if _FAULTS.plan is not None:
        # Armed chaos runs bypass the cache (mirroring the statement
        # cache) so every run exercises the same code path.
        return shapes.match(sql)
    key = (compiled.generation(), sql)
    cached = SHAPE_CACHE.get(key)
    if cached is not None:
        _count("plan.cache.hit")
        return cached[0]
    _count("plan.cache.miss")
    shape = shapes.match(sql)
    SHAPE_CACHE.put(key, (shape,))
    return shape


def _table_schema(connection, table: str) -> Optional[Dict[str, str]]:
    """``{column: DECLTYPE}`` for *table* (generation-cached), or None."""
    generation = compiled.generation()
    cached = _SCHEMA_CACHE.get(connection)
    if cached is None or cached[0] != generation:
        try:
            declared = compiled.declared_columns(connection)
        except Exception:
            declared = {}
        schemas = {key: {column: decltype.upper() for column, decltype in columns}
                   for key, (_name, columns, _valid) in declared.items()}
        cached = _SCHEMA_CACHE[connection] = (generation, schemas)
    return cached[1].get(table.lower())


def _affinity(decltype: str) -> str:
    """The affinity SQLite derives from a declared type, as far as
    comparisons care: numeric (INTEGER, REAL, NUMERIC), text or none."""
    if "INT" in decltype:
        return "numeric"
    if any(part in decltype for part in ("CHAR", "CLOB", "TEXT")):
        return "text"
    if not decltype or "BLOB" in decltype:
        return "none"
    return "numeric"


def _schema_ok(connection, shape) -> bool:
    """Every referenced column exists and key/residual columns are
    plain-typed (TIP-typed values would need blade comparison rules)."""
    if shape.kind == "join":
        left = _table_schema(connection, shape.left_table)
        right = _table_schema(connection, shape.right_table)
        if left is None or right is None:
            return False
        if left.get(shape.left_valid) != "ELEMENT":
            return False
        if right.get(shape.right_valid) != "ELEMENT":
            return False
        for output in shape.outputs:
            schema = left if output.alias == shape.left_alias else right
            if output.column not in schema:
                return False
        for left_col, right_col in shape.equalities:
            if left.get(left_col, "") in TIP_DECLTYPES or left_col not in left:
                return False
            if right.get(right_col, "") in TIP_DECLTYPES \
                    or right_col not in right:
                return False
        conditions = (shape.cross + shape.left_filters
                      + shape.right_filters)
        for condition in conditions:
            for operand in (condition.left, condition.right):
                if not isinstance(operand, Column):
                    continue
                schema = left if operand.table == shape.left_alias else right
                if operand.name not in schema \
                        or schema[operand.name] in TIP_DECLTYPES:
                    return False
        # Keys and cross residuals compare in Python, by storage class;
        # SQLite would first convert one side when the affinities differ
        # (2 = '2' between an INTEGER and a TEXT column is true).
        pairs = list(shape.equalities) + [
            (c.left.name, c.right.name) for c in shape.cross]
        return all(_affinity(left[left_col]) == _affinity(right[right_col])
                   for left_col, right_col in pairs)
    schema = _table_schema(connection, shape.table)
    if schema is None:
        return False
    if schema.get(shape.agg_column) != "ELEMENT":
        return False
    for column in shape.group_by:
        if column not in schema or schema[column] in TIP_DECLTYPES:
            return False
    for condition in shape.filters:
        for operand in (condition.left, condition.right):
            if isinstance(operand, Column) and (
                operand.name not in schema
                or schema[operand.name] in TIP_DECLTYPES
            ):
                return False
    return True


def _input_counts(connection, shape) -> List[int]:
    if shape.kind == "join":
        tables = [shape.left_table, shape.right_table]
    else:
        tables = [shape.table]
    counts = []
    for table in tables:
        # On the raw connection: a planner probe, not a statement of
        # its own (a profiler would otherwise record it as one).
        row = connection.raw.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
        counts.append(int(row[0]) if row else 0)
    return counts


def maybe_execute_kernel(
    connection, sql: str, shape=None
) -> Optional[KernelResult]:
    """Evaluate *sql* with a kernel, or return None to run it naively.

    *connection* is the :class:`~repro.client.connection.TipConnection`
    the statement would otherwise run on (locally the session's own,
    on the server the checked-out pool reader), so reads stay inside
    the caller's transaction/snapshot scope.

    *shape* is the compile-time matched shape when the caller already
    carries it (:attr:`repro.tsql.compiled.CompiledStatement.shape` —
    the hot prepared path, where re-matching per call would cost more
    than the statement); left None, the shape is matched here via the
    generation-keyed cache.  Runtime vetoes (armed faults, schema
    types, row counts) apply identically either way.
    """
    if not state.enabled:
        return None
    if shape is None and not is_candidate(sql):
        return None
    armed = _FAULTS.plan
    if armed is not None and not any(
        rule.point == "plan.kernel" for rule in armed.rules
    ):
        # A chaos plan aimed elsewhere: keep the run on the exact same
        # code path it exercised before the planner existed.
        _fallback("faults")
        return None
    if shape is None:
        shape = _lookup_shape(sql)
    if shape is None:
        _fallback("shape")
        return None
    if not _schema_ok(connection, shape):
        _fallback("schema")
        return None
    if max(_input_counts(connection, shape)) < state.min_rows:
        _fallback("small")
        return None
    if armed is not None:
        # The dedicated injection point: fires before the bulk fetch,
        # so a raise leaves the connection with nothing to roll back.
        armed.apply("plan.kernel")
    now_seconds = connection.statement_now_seconds()
    token = bind_now_seconds(now_seconds)
    # Kernels allocate result rows in bulk and drop nothing cyclic;
    # pausing the collector keeps generation scans from re-walking the
    # growing result list (reference counting still frees everything).
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        if shape.kind == "join":
            result = kernels.execute_join(connection, shape, now_seconds)
            _count("plan.kernel.join")
            if _obs_state.enabled:
                _obs_registry().counter("plan.join.candidates").add(
                    result.stats.get("candidates", 0)
                )
        else:
            result = kernels.execute_coalesce(connection, shape, now_seconds)
            _count("plan.kernel.coalesce")
    finally:
        reset_now(token)
        if gc_was_enabled:
            gc.enable()
    if _flight.state.enabled:
        _flight.record(
            "plan.kernel", shape=shape.kind, strategy=result.strategy,
            rows=len(result.rows), **result.stats,
        )
    return result


def describe(connection, sql: str) -> Dict[str, object]:
    """The planner's decision for *sql*, without executing anything.

    Powers the ``temporal strategy:`` line of ``EXPLAIN TEMPORAL``.
    """
    if not state.enabled:
        return {"strategy": "naive", "reason": "planner disabled"}
    if not is_candidate(sql):
        return {"strategy": "naive", "reason": "no set-evaluable operator"}
    shape = _lookup_shape(sql)
    if shape is None:
        return {"strategy": "naive", "reason": "statement shape not matched"}
    if not _schema_ok(connection, shape):
        return {"strategy": "naive",
                "reason": "column types outside kernel support"}
    try:
        counts = _input_counts(connection, shape)
    except TipError:
        counts = []
    if not counts or max(counts) < state.min_rows:
        return {
            "strategy": "naive",
            "reason": f"input below threshold ({state.min_rows} rows)",
        }
    if shape.kind == "join":
        kernel, _window = kernels.join_plan(
            shape, connection.statement_now_seconds()
        )
        tables = [shape.left_table, shape.right_table]
        pushed = shape.left_filters + shape.right_filters
    else:
        kernel = "sweep"
        tables = [shape.table]
        pushed = shape.filters
    return {
        "strategy": "kernel", "shape": shape.kind, "kernel": kernel,
        "tables": tables, "rows": counts,
        "pushdown": [_condition_text(condition) for condition in pushed],
    }


def _condition_text(condition) -> str:
    """A filter the kernel's bulk fetch hands to SQLite, as SQL text."""
    def operand(op) -> str:
        if not isinstance(op, Column):
            return literal(op.value)
        return f"{op.table}.{op.name}" if op.table else op.name
    return (f"{operand(condition.left)} {condition.op} "
            f"{operand(condition.right)}")
