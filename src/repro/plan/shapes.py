"""Pattern matching for the temporal query planner.

The planner (:mod:`repro.plan.planner`) only rewrites statements it
*fully* understands; everything else keeps the tuple-at-a-time UDF
path.  This module is the understanding part: it recognizes the two
translated-SQL shapes the tSQL preprocessor (and hand-written TIP SQL
in the same spelling) produces for set-evaluable temporal operations.

**Sequenced overlap join** (two tables)::

    SELECT a.x, b.y, tintersect(a.valid, b.valid) AS valid
    FROM L AS a, R AS b
    WHERE (<residual>) AND overlaps(a.valid, b.valid)

optionally clipped to a period (the ``VALIDTIME PERIOD`` translation
wraps the validity in ``restrict(..., period('[..]'))`` and adds one
``overlaps(v, to_element(period('[..]')))`` conjunct per side).  The
residual may be any top-level AND of simple comparisons —
``alias.col <op> alias.col`` or ``alias.col <op> literal`` — which the
kernels evaluate with SQLite's own comparison semantics.

**Coalesce** (one table, the paper's ``group_union`` aggregation)::

    SELECT k1, k2, group_union(valid) FROM T [WHERE <residual>]
    GROUP BY k1, k2

with the aggregate optionally wrapped in ``length(...)`` or
``length_seconds(...)`` (Section 2's time-on-medication query).

The matcher reads the statement through :func:`repro.tsql.parser.parse`
and compares IR nodes, so string literals are opaque: a ``?`` or an
``AND`` inside one is literal text.  Matching is deliberately
conservative: subqueries, three-way joins, ORDER BY / HAVING / LIMIT
tails, ``DISTINCT``, OR-connected predicates, placeholder tokens, and
anything else unrecognized all yield ``None`` — the caller falls back
to the naive path, which is always correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import TranslationError
from repro.tsql.parser import Call, Column, Comparison, Literal, Select, parse

__all__ = [
    "Condition",
    "OutputColumn",
    "JoinShape",
    "CoalesceShape",
    "match",
]


@dataclass(frozen=True)
class Condition:
    """``left <op> right``: a column (IR node; ``table`` holds the alias,
    "" when bare) against a column or a literal."""

    left: Column
    op: str                   # =, !=, <, >, <= or >=
    right: Union[Column, Literal]


@dataclass(frozen=True)
class OutputColumn:
    """A plain column in the select list, with its result-column name."""

    name: str     # what sqlite3 would call the result column
    alias: str    # source table alias ("" when written bare)
    column: str   # source column name


@dataclass(frozen=True)
class JoinShape:
    """A sequenced two-table overlap join the kernels can evaluate."""

    left_table: str
    left_alias: str
    right_table: str
    right_alias: str
    outputs: Tuple[OutputColumn, ...]     # select list minus the validity slot
    valid_at: int                         # where the validity column goes
    valid_name: str
    left_valid: str                       # validity column on the left table
    right_valid: str
    window: Optional[str] = None          # VALIDTIME PERIOD text, sans brackets
    equalities: Tuple[Tuple[str, str], ...] = ()   # (left col, right col)
    cross: Tuple[Condition, ...] = ()     # non-equality cross-side residuals
    left_filters: Tuple[Condition, ...] = ()
    right_filters: Tuple[Condition, ...] = ()

    kind: str = field(default="join", init=False)


@dataclass(frozen=True)
class CoalesceShape:
    """A ``group_union`` coalescing aggregation over one table."""

    table: str
    alias: str
    outputs: Tuple[OutputColumn, ...]     # select list minus the aggregate
    agg_at: int                           # where the aggregate column goes
    agg_name: str
    agg_wrapper: str                      # "" | "length" | "length_seconds"
    agg_column: str
    group_by: Tuple[str, ...]             # column names, select-independent
    filters: Tuple[Condition, ...] = ()

    kind: str = field(default="coalesce", init=False)


# -- IR helpers ---------------------------------------------------------


def _call(expr, name: str, arity: int) -> bool:
    return isinstance(expr, Call) and expr.name == name and len(expr.args) == arity


def _period_literal(expr) -> Optional[str]:
    """The body of ``period('[<body>]')``, or None."""
    text = expr.string_arg() if _call(expr, "period", 1) else None
    return text[1:-1] if text and text[0] == "[" and text[-1] == "]" else None


def _qualified(expr) -> bool:
    """Is *expr* an alias-qualified column reference?"""
    return isinstance(expr, Column) and bool(expr.table)


_FLIPPED = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}


def _condition(expr, aliases: Sequence[str],
               allow_bare: bool) -> Optional[Condition]:
    """One ``side <op> side`` comparison of literals and columns of
    *aliases* (or bare columns, when *allow_bare*), or None."""
    def operand(side) -> bool:
        if isinstance(side, Column):
            return side.table in aliases if side.table else allow_bare
        return isinstance(side, Literal)

    if not (isinstance(expr, Comparison) and operand(expr.left) and operand(expr.right)):
        return None
    left, right = expr.left, expr.right
    op = {"==": "=", "<>": "!="}.get(expr.op, expr.op)
    if isinstance(left, Literal):
        if isinstance(right, Literal):
            return None  # two literals: not worth modeling
        left, right, op = right, left, _FLIPPED.get(op, op)
    return Condition(left, op, right)


# -- the matcher --------------------------------------------------------


def match(sql: str) -> Optional[Union[JoinShape, CoalesceShape]]:
    """Recognize *sql* as a kernel-evaluable shape, or return None."""
    try:
        select = parse(sql)
    except TranslationError:
        return None
    if select.modifier or select.params or select.distinct:
        return None
    if len(select.from_items) == 2:
        return _match_join(select)
    if len(select.from_items) == 1:
        return _match_coalesce(select)
    return None


def _match_join(select: Select) -> Optional[JoinShape]:
    if set(select.clauses) - {"select", "from", "where"}:
        return None
    left, right = select.from_items
    left_alias, right_alias = left.alias, right.alias
    if left_alias == right_alias:
        return None
    aliases = (left_alias, right_alias)

    outputs: List[OutputColumn] = []
    valid_at = valid_name = window = None
    validity_refs = set()
    for index, item in enumerate(select.items):
        expr, period = item.expr, None
        if _call(expr, "restrict", 2):
            period = _period_literal(expr.args[1])
            if period is not None:
                expr = expr.args[0]
        if _call(expr, "tintersect", 2) and all(map(_qualified, expr.args)):
            if valid_at is not None:
                return None  # two validity expressions: not our shape
            valid_at, validity_refs, window = index, set(expr.args), period
            valid_name = item.name if item.name is not None else item.text
            continue
        column = item.expr
        if not _qualified(column) or column.table not in aliases:
            return None
        outputs.append(OutputColumn(
            name=item.name if item.name is not None else column.name,
            alias=column.table, column=column.name,
        ))
    if valid_at is None or not select.where:
        return None

    # Resolve the validity refs: exactly one per side.
    by_alias = {column.table: column.name for column in validity_refs}
    if len(validity_refs) != 2 or set(by_alias) != set(aliases):
        return None
    left_valid, right_valid = by_alias[left_alias], by_alias[right_alias]

    pair_seen = False
    window_seen = set()
    equalities: List[Tuple[str, str]] = []
    cross: List[Condition] = []
    left_filters: List[Condition] = []
    right_filters: List[Condition] = []
    for conjunct in select.where:
        if _call(conjunct, "overlaps", 2):
            first, second = conjunct.args
            if _qualified(first) and _qualified(second):
                if pair_seen or {first, second} != validity_refs:
                    return None
                pair_seen = True
                continue
            if (_qualified(first) and _call(second, "to_element", 1)
                    and _period_literal(second.args[0]) is not None):
                if _period_literal(second.args[0]) != window or first not in validity_refs:
                    return None
                window_seen.add(first)
                continue
        condition = _condition(conjunct, aliases, allow_bare=False)
        if condition is None:
            return None
        sides = {op.table for op in (condition.left, condition.right)
                 if isinstance(op, Column)}
        if sides == set(aliases):
            if condition.op == "=":
                left_op, right_op = condition.left, condition.right
                if left_op.table == right_alias:
                    left_op, right_op = right_op, left_op
                equalities.append((left_op.name, right_op.name))
            else:
                cross.append(_normalize_cross(condition, left_alias))
        elif sides == {left_alias}:
            left_filters.append(condition)
        else:
            right_filters.append(condition)
    if not pair_seen:
        return None
    if window is not None and window_seen != validity_refs:
        return None

    # The validity columns take part in overlaps/tintersect only; a
    # validity column also appearing in a comparison would need blob
    # ordering semantics the kernels do not model.
    for condition in cross + left_filters + right_filters:
        if {condition.left, condition.right} & validity_refs:
            return None
    return JoinShape(
        left_table=left.table, left_alias=left_alias,
        right_table=right.table, right_alias=right_alias,
        outputs=tuple(outputs), valid_at=valid_at, valid_name=valid_name,
        left_valid=left_valid, right_valid=right_valid, window=window,
        equalities=tuple(equalities), cross=tuple(cross),
        left_filters=tuple(left_filters), right_filters=tuple(right_filters),
    )


def _normalize_cross(condition: Condition, left_alias: str) -> Condition:
    """Cross-side comparisons with the left table's operand first."""
    if condition.left.table == left_alias:
        return condition
    return Condition(condition.right,
                     _FLIPPED.get(condition.op, condition.op),
                     condition.left)


def _match_coalesce(select: Select) -> Optional[CoalesceShape]:
    (item,) = select.from_items
    alias = item.alias

    def own(expr) -> bool:
        return isinstance(expr, Column) and expr.table in ("", alias)

    if select.tail or not select.group_by or not all(map(own, select.group_by)):
        return None
    group_by = [key.name for key in select.group_by]
    outputs: List[OutputColumn] = []
    agg_at = agg_name = agg_column = None
    agg_wrapper = ""
    for index, entry in enumerate(select.items):
        expr, wrapper = entry.expr, ""
        if _call(expr, "length", 1) or _call(expr, "length_seconds", 1):
            expr, wrapper = expr.args[0], expr.name
        if _call(expr, "group_union", 1):
            if agg_at is not None or not own(expr.args[0]):
                return None
            agg_at, agg_wrapper, agg_column = index, wrapper, expr.args[0].name
            agg_name = entry.name if entry.name is not None else entry.text
            continue
        column = entry.expr
        if not own(column) or column.name not in group_by:
            return None  # a bare value outside GROUP BY comes from an arbitrary row
        outputs.append(OutputColumn(
            name=entry.name if entry.name is not None else column.name,
            alias=column.table, column=column.name,
        ))
    if agg_at is None or agg_column in group_by:
        return None
    filters = [_condition(conjunct, (alias,), allow_bare=True) for conjunct in select.where]
    if None in filters or any(isinstance(operand, Column) and operand.name == agg_column
                              for condition in filters
                              for operand in (condition.left, condition.right)):
        return None
    return CoalesceShape(
        table=item.table, alias=alias, outputs=tuple(outputs), agg_at=agg_at,
        agg_name=agg_name, agg_wrapper=agg_wrapper, agg_column=agg_column,
        group_by=tuple(group_by), filters=tuple(filters),
    )
