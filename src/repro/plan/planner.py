"""The temporal query planner: route matched shapes to the kernels.

Sits between tSQL translation and SQLite execution.  For each
translated statement the planner decides — visibly, via ``EXPLAIN
TEMPORAL`` and the ``plan.*`` counters — whether to evaluate it with a
set-based kernel (:mod:`repro.plan.kernels`) or to leave it on the
naive UDF path.  The naive path is always correct, so every decision
here is allowed to say "no": unmatched shapes, TIP-typed comparison
columns, compared columns whose affinities differ, inputs below the
row threshold, or an armed fault plan that does not target
``plan.kernel`` all fall back.  A declared collation is no reason: the
kernels compare SQLite's own ranks of the stored values, which follow
it (:mod:`repro.plan.images`).  Observation never
does: a profiled statement runs the plan an unprofiled one runs, and
reports its kernel through the ``plan.kernel.*`` counter deltas its
profile carries.

Shape matching happens once per compiled statement: the statement
cache stamps the matched shape onto
:attr:`repro.tsql.compiled.CompiledStatement.shape`, and because that
cache is generation-keyed, any DDL or registry change that invalidates
prepared statements invalidates kernel plans with it.  Callers without
a compiled statement (EXPLAIN, :func:`describe`) match directly.
Declared column types
(:func:`repro.tsql.compiled.declared_columns`) are cached per
connection under the same generation and the schema versions.

:func:`configure` sets ``enabled`` (off runs every statement on the
naive UDF path, the semantics oracle) and ``min_rows`` (start value
:data:`DEFAULT_MIN_ROWS`), the bigger-side row count below which bulk
fetching cannot beat SQLite's own loop.
"""

from __future__ import annotations

import gc
import weakref
from typing import Dict, List, Optional, Tuple

from repro.client.literals import literal
from repro.core.nowctx import bind_now_seconds, reset_now
from repro.errors import TipError
from repro.faults import state as _FAULTS
from repro.obs import flight as _flight
from repro.obs.registry import get_registry as _obs_registry
from repro.obs.registry import state as _obs_state
from repro.plan import images, kernels, shapes
from repro.plan.kernels import KernelResult
from repro.tsql import compiled
from repro.tsql.parser import Column, tokens

__all__ = [
    "state", "configure", "is_candidate", "maybe_execute_kernel",
    "describe", "clear_caches", "DEFAULT_MIN_ROWS",
]

DEFAULT_MIN_ROWS = 256

#: Declared types whose storage is TIP-encoded: ranking their stored
#: bytes would diverge from the blade's comparison semantics, so any
#: such column in a residual/key position vetoes the kernel.
TIP_DECLTYPES = frozenset(
    {"ELEMENT", "PERIOD", "CHRONON", "SPAN", "INSTANT"}
)


class PlanState:
    """Process-wide planner switches, read per statement without a lock."""

    __slots__ = ("enabled", "min_rows")

    def __init__(self) -> None:
        self.enabled = True
        self.min_rows = DEFAULT_MIN_ROWS


state = PlanState()

#: connection -> ((generation, schema versions), declared types).
_SCHEMA_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def configure(
    *,
    enabled: Optional[bool] = None,
    min_rows: Optional[int] = None,
) -> None:
    """Adjust the planner knobs at runtime (used by benches and tests)."""
    if enabled is not None:
        state.enabled = enabled
    if min_rows is not None:
        state.min_rows = max(0, min_rows)


def clear_caches() -> None:
    """Drop the cached column types (tests)."""
    _SCHEMA_CACHE.clear()


def is_candidate(sql: str) -> bool:
    """Cheap pre-filter: does *sql* contain a kernel-evaluable operator?

    One lowercase scan; the hot prepared path pays only this check, so
    a SNAPSHOT query (``contains_instant``) or plain SQL skips the
    matcher entirely.  A join shape has exactly one ``tintersect`` and
    a coalesce none, so a multi-way join's translation (one per extra
    table) skips it too.
    """
    lowered = sql.lower()
    joins = lowered.count("tintersect(")
    return joins == 1 or (not joins and "group_union(" in lowered)


# -- decision pipeline --------------------------------------------------


def _count(value_name: str) -> None:
    if _obs_state.enabled:
        _obs_registry().counter(value_name).inc()


def _fallback(reason: str) -> None:
    _count(f"plan.fallback.{reason}")
    if _flight.state.enabled:
        _flight.record("plan.fallback", reason=reason)


def _schemas(connection) -> Dict[str, Dict[str, str]]:
    """``{table: {column: DECLTYPE}}`` for every rowid table the kernels
    can read (lower-cased table names), cached per generation and
    schema version (DDL need not pass through a session)."""
    raw = connection.raw
    key = (compiled.generation(),
           raw.execute("PRAGMA schema_version").fetchone()[0],
           raw.execute("PRAGMA temp.schema_version").fetchone()[0])
    cached = _SCHEMA_CACHE.get(connection)
    if cached is None or cached[0] != key:
        try:
            declared = compiled.declared_columns(connection)
        except Exception:
            declared = {}
        try:
            tables = connection.query(
                "SELECT name, sql FROM sqlite_master WHERE type = 'table'")
        except Exception:
            tables = []
        # The kernels address rows by rowid: a WITHOUT ROWID table, one
        # whose definition could not be read, or one with a column that
        # hides the rowid's name is not theirs.
        rowid = {name.lower() for name, sql in tables
                 if not _without_rowid(sql or "")}
        schemas = {
            table: {column: decltype.upper() for column, decltype in columns}
            for table, (_name, columns, _valid) in declared.items()
            if table in rowid and images.ROWID_NAMES.isdisjoint(
                column.lower() for column, _decltype in columns)}
        cached = _SCHEMA_CACHE[connection] = (key, schemas)
    return cached[1]


def _without_rowid(create_sql: str) -> bool:
    """Whether a ``CREATE TABLE`` statement declares ``WITHOUT ROWID``
    after its column definitions."""
    depth = 0
    closed = False
    for token in tokens(create_sql):
        if token.text == "(":
            depth += 1
        elif token.text == ")":
            depth -= 1
            closed = closed or depth == 0
        elif closed and not depth and token.key == "WITHOUT":
            return True
    return False


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
    """Every referenced column exists (an output may also name the
    rowid) and key/residual/group columns are plain-typed: TIP-typed
    values would need blade comparison rules."""
    schemas = _schemas(connection)
    if shape.kind == "join":
        by_alias = {shape.left_alias: schemas.get(shape.left_table.lower()),
                    shape.right_alias: schemas.get(shape.right_table.lower())}
        left, right = by_alias.values()
        if left is None or right is None:
            return False
        if left.get(shape.left_valid) != "ELEMENT":
            return False
        if right.get(shape.right_valid) != "ELEMENT":
            return False
        for output in shape.outputs:
            if output.column not in by_alias[output.alias] \
                    and output.column.lower() not in images.ROWID_NAMES:
                return False
        compared = shape.equalities + shape.cross
        for condition in compared + shape.left_filters + shape.right_filters:
            for operand in (condition.left, condition.right):
                if isinstance(operand, Column) and not _plain(
                        by_alias[operand.table], operand.name):
                    return False
        # SQLite's ORDER BY ranks stored values as they are, but its
        # comparison first converts one side when the affinities differ
        # (2 = '2' between an INTEGER and a TEXT column is true).
        return all(
            _affinity(by_alias[c.left.table][c.left.name])
            == _affinity(by_alias[c.right.table][c.right.name])
            for c in compared)
    schema = schemas.get(shape.table.lower())
    if schema is None or schema.get(shape.agg_column) != "ELEMENT":
        return False
    operands = [operand for condition in shape.filters
                for operand in (condition.left, condition.right)
                if isinstance(operand, Column)]
    return all(_plain(schema, column) for column in shape.group_by) \
        and all(_plain(schema, operand.name) for operand in operands)


def _plain(schema: Dict[str, str], column: str) -> bool:
    """Whether *schema* declares *column* with no TIP type."""
    return column in schema and schema[column] not in TIP_DECLTYPES


def _sources(shape) -> List[Tuple[str, str]]:
    """The ``(table, validity column)`` pairs *shape* reads."""
    if shape.kind == "join":
        return [(shape.left_table, shape.left_valid),
                (shape.right_table, shape.right_valid)]
    return [(shape.table, shape.agg_column)]


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
    than the statement); left None, the shape is matched here.  Runtime
    vetoes (armed faults, schema types, row counts) apply identically
    either way.
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
        shape = shapes.match(sql)
    if shape is None:
        _fallback("shape")
        return None
    if not _schema_ok(connection, shape):
        _fallback("schema")
        return None
    with images.snapshot(connection) as snap:
        if max(snap.rows(*source) for source in _sources(shape)) \
                < state.min_rows:
            _fallback("small")
            return None
        if armed is not None:
            # The dedicated injection point: fires before the bulk
            # fetch, so a raise leaves the connection with nothing to
            # roll back.
            armed.apply("plan.kernel")
        result = _run_kernel(connection, shape)
    if _flight.state.enabled:
        _flight.record(
            "plan.kernel", shape=shape.kind, strategy=result.strategy,
            rows=len(result.rows), image=snap.state, **result.stats,
        )
    return result


def _run_kernel(connection, shape) -> KernelResult:
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
    return result


def describe(connection, sql: str) -> Dict[str, object]:
    """The planner's decision for *sql*, without executing anything.

    Powers the ``temporal strategy:`` line of ``EXPLAIN TEMPORAL``.
    """
    if not state.enabled:
        return {"strategy": "naive", "reason": "planner disabled"}
    if not is_candidate(sql):
        return {"strategy": "naive", "reason": "no set-evaluable operator"}
    shape = shapes.match(sql)
    if shape is None:
        return {"strategy": "naive", "reason": "statement shape not matched"}
    if not _schema_ok(connection, shape):
        return {"strategy": "naive",
                "reason": "column types outside kernel support"}
    try:
        with images.snapshot(connection) as snap:
            counts = [snap.rows(*source) for source in _sources(shape)]
            image = [snap.expect(*source) for source in _sources(shape)]
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
        pushed = shape.left_filters + shape.right_filters
    else:
        kernel = "sweep"
        pushed = shape.filters
    return {
        "strategy": "kernel", "shape": shape.kind, "kernel": kernel,
        "tables": [table for table, _valid in _sources(shape)],
        "rows": counts, "image": image,
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
