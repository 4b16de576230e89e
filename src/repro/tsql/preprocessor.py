"""The TSQL2 statement-modifier preprocessor.

Supported statement forms (a documented, restricted subset — enough to
express TSQL2's three evaluation modes over select-from-where blocks):

* ``SNAPSHOT [AT '<instant>'] SELECT ... FROM ... [WHERE ...]`` —
  *snapshot* semantics: the query sees the database as of one time
  point (default ``NOW``); timestamps disappear from the result.
* ``VALIDTIME [PERIOD '[a, b]'] SELECT ... FROM ... [WHERE ...]`` —
  *sequenced* semantics: the result holds wherever **all** operand
  tuples hold simultaneously, and carries that time as a trailing
  ``valid`` column (optionally clipped to the stated period).
* ``NONSEQUENCED VALIDTIME SELECT ...`` — timestamps are ordinary
  attributes; the statement passes through unchanged.

Restrictions (violations raise :class:`TranslationError`, carrying the
offending clause text and its character offset): the FROM list must be
plain ``table [AS] alias`` items — optionally grouped in parentheses,
as the linq query compiler emits (``FROM (Prescription AS p, Patient
AS q)``) — with no subqueries or JOIN syntax, and sequenced
(``VALIDTIME``) statements cannot use GROUP BY — sequenced aggregation
needs instant-by-instant group semantics that plain SQL cannot express
(use TIP's ``group_union`` family directly).

Temporal tables are detected from the schema: any column declared with
type ``ELEMENT`` is a validity column (the first one per table is
used); non-temporal tables in the FROM list simply contribute no
validity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.client.connection import TipConnection
from repro.errors import TranslationError
from repro.tsql import compiled

__all__ = ["TsqlSession", "translate_tsql", "split_select", "strip_explain"]

_EXPLAIN_RE = re.compile(
    r"^\s*EXPLAIN\s+TEMPORAL\s+(?P<rest>\S.*)$",
    re.IGNORECASE | re.DOTALL,
)


def strip_explain(statement: str) -> Optional[str]:
    """The statement under an ``EXPLAIN TEMPORAL`` prefix, or None.

    ``EXPLAIN TEMPORAL <sql>`` is TIP's per-query cost surface: the
    wrapped statement (TSQL2 modifiers included) is run under both the
    integrated blade engine and a layered TimeDB-style mirror, and the
    two profiles are reported side by side
    (:mod:`repro.tsql.explain`).  This helper only recognizes and
    strips the prefix, so the shell and CLI can route the statement.
    """
    match = _EXPLAIN_RE.match(statement)
    return match["rest"].strip() if match else None

_MODIFIER_RE = re.compile(
    r"""^\s*
        (?:
            (?P<nonseq>NONSEQUENCED\s+VALIDTIME)
          | (?P<validtime>VALIDTIME)(?:\s+PERIOD\s+'(?P<period>[^']*)')?
          | (?P<snapshot>SNAPSHOT)(?:\s+AT\s+'(?P<at>[^']*)')?
        )
        \s+(?P<rest>SELECT\b.*)$""",
    re.IGNORECASE | re.DOTALL | re.VERBOSE,
)

_CLAUSE_KEYWORDS = ("FROM", "WHERE", "GROUP BY", "ORDER BY", "HAVING", "LIMIT")


def _find_top_level(sql: str, keyword: str) -> int:
    """Index of *keyword* at paren/quote depth zero, or -1."""
    upper = sql.upper()
    target = keyword.upper()
    depth = 0
    in_string = False
    index = 0
    while index < len(sql):
        char = sql[index]
        if in_string:
            if char == "'":
                in_string = False
        elif char == "'":
            in_string = True
        elif char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif depth == 0 and upper.startswith(target, index):
            before_ok = index == 0 or not (sql[index - 1].isalnum() or sql[index - 1] == "_")
            after = index + len(target)
            after_ok = after >= len(sql) or not (sql[after].isalnum() or sql[after] == "_")
            if before_ok and after_ok:
                return index
        index += 1
    return -1


@dataclass
class SelectParts:
    """A SELECT statement split into its top-level clauses."""

    select_list: str
    from_list: str
    where: Optional[str]
    tail: str  # GROUP BY / ORDER BY / ... onwards, verbatim


def split_select(sql: str) -> SelectParts:
    """Split a single SELECT into clauses at top level."""
    stripped = sql.strip().rstrip(";")
    if not stripped.upper().startswith("SELECT"):
        raise TranslationError("statement must start with SELECT")
    from_at = _find_top_level(stripped, "FROM")
    if from_at < 0:
        raise TranslationError("statement has no FROM clause")
    select_list = stripped[len("SELECT"):from_at].strip()
    remainder = stripped[from_at + len("FROM"):]

    boundaries: List[Tuple[int, str]] = []
    for keyword in ("WHERE", "GROUP BY", "ORDER BY", "HAVING", "LIMIT"):
        at = _find_top_level(remainder, keyword)
        if at >= 0:
            boundaries.append((at, keyword))
    boundaries.sort()

    from_end = boundaries[0][0] if boundaries else len(remainder)
    from_list = remainder[:from_end].strip()

    where = None
    tail_start = from_end
    if boundaries and boundaries[0][1] == "WHERE":
        where_start = boundaries[0][0] + len("WHERE")
        where_end = boundaries[1][0] if len(boundaries) > 1 else len(remainder)
        where = remainder[where_start:where_end].strip()
        tail_start = where_end
    tail = remainder[tail_start:].strip()
    return SelectParts(select_list, from_list, where, tail)


def _split_commas_with_offsets(text: str) -> List[Tuple[str, int]]:
    """Top-level comma parts of *text* with the offset of each part.

    Offsets point at the first non-space character of the (stripped)
    part within *text*, so error reports can locate the clause.
    """
    parts: List[Tuple[str, int]] = []
    depth = 0
    in_string = False
    start = 0
    index = 0
    for index, char in enumerate(text):
        if in_string:
            if char == "'":
                in_string = False
            continue
        if char == "'":
            in_string = True
        elif char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif char == "," and depth == 0:
            parts.append((text[start:index], start))
            start = index + 1
    parts.append((text[start:], start))
    stripped: List[Tuple[str, int]] = []
    for part, at in parts:
        lead = len(part) - len(part.lstrip())
        part = part.strip()
        if part:
            stripped.append((part, at + lead))
    return stripped


def _split_top_level_commas(text: str) -> List[str]:
    return [part for part, _ in _split_commas_with_offsets(text)]


_FROM_ITEM_RE = re.compile(
    r"^(?P<table>[A-Za-z_][A-Za-z0-9_]*)(?:\s+(?:AS\s+)?(?P<alias>[A-Za-z_][A-Za-z0-9_]*))?$",
    re.IGNORECASE,
)


def _parse_from_items(from_list: str, *, base: int = 0) -> List[Tuple[str, str]]:
    """``(table, alias)`` pairs; alias defaults to the table name.

    Items may be grouped in parentheses — ``(a AS x, b AS y)``, nested
    arbitrarily — which is how the linq compiler spells a join's FROM
    list.  *base* offsets error positions into the caller's statement.
    """
    items = []
    for part, at in _split_commas_with_offsets(from_list):
        if part.startswith("(") and part.endswith(")"):
            items.extend(_parse_from_items(part[1:-1], base=base + at + 1))
            continue
        match = _FROM_ITEM_RE.match(part)
        if not match:
            raise TranslationError(
                f"unsupported FROM item {part!r} at offset {base + at} "
                "(plain 'table [AS] alias' items, optionally parenthesized)",
                clause=part,
                offset=base + at,
            )
        table = match["table"]
        alias = match["alias"] or table
        items.append((table, alias))
    return items


def translate_tsql(
    statement: str,
    valid_columns: Dict[str, str],
) -> str:
    """Rewrite one TSQL2-modified statement into TIP SQL.

    *valid_columns* maps (lower-cased) temporal table names to their
    validity column.  A statement without a modifier passes through
    unchanged.
    """
    match = _MODIFIER_RE.match(statement)
    if not match:
        return statement.strip()
    if match["nonseq"]:
        return match["rest"].strip()

    parts = split_select(match["rest"])
    from_base = statement.find(parts.from_list) if parts.from_list else 0
    from_items = _parse_from_items(parts.from_list, base=max(from_base, 0))
    validities = [
        f"{alias}.{valid_columns[table.lower()]}"
        for table, alias in from_items
        if table.lower() in valid_columns
    ]

    if match["snapshot"]:
        at = match["at"] or "NOW"
        conjuncts = [f"contains_instant({v}, instant('{at}'))" for v in validities]
        return _reassemble(parts, parts.select_list, conjuncts)

    # VALIDTIME (sequenced).
    if "GROUP BY" in parts.tail.upper() or "HAVING" in parts.tail.upper():
        raise TranslationError(
            "sequenced (VALIDTIME) aggregation is not expressible in this subset; "
            "use TIP's group_union/group_intersect aggregates directly",
            clause=parts.tail,
            offset=max(statement.find(parts.tail), 0) if parts.tail else None,
        )
    if not validities:
        raise TranslationError(
            "VALIDTIME requires at least one temporal table in FROM",
            clause=parts.from_list,
            offset=max(from_base, 0),
        )

    validity_expr = validities[0]
    for v in validities[1:]:
        validity_expr = f"tintersect({validity_expr}, {v})"
    conjuncts = [
        f"overlaps({a}, {b})"
        for i, a in enumerate(validities)
        for b in validities[i + 1:]
    ]
    if match["period"]:
        validity_expr = f"restrict({validity_expr}, period('[{match['period']}]'))"
        conjuncts.extend(
            f"overlaps({v}, to_element(period('[{match['period']}]')))" for v in validities
        )
    select_list = f"{parts.select_list}, {validity_expr} AS valid"
    return _reassemble(parts, select_list, conjuncts)


def _reassemble(parts: SelectParts, select_list: str, conjuncts: Sequence[str]) -> str:
    where = parts.where
    if conjuncts:
        extra = " AND ".join(conjuncts)
        where = f"({where}) AND {extra}" if where else extra
    sql = f"SELECT {select_list} FROM {parts.from_list}"
    if where:
        sql += f" WHERE {where}"
    if parts.tail:
        sql += f" {parts.tail}"
    return sql


_ELEMENT_COLUMN_RE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*)\s+ELEMENT\b", re.IGNORECASE
)

class TsqlSession:
    """Execute TSQL2-modified statements on a TIP connection.

    Validity columns are auto-discovered from the schema (first column
    declared ``ELEMENT`` per table); :meth:`register` overrides or adds
    mappings explicitly.  Discovered and registered mappings are kept
    apart so :meth:`rescan` can *drop* a mapping whose table lost its
    validity column (or was dropped outright) without clobbering
    explicit registrations — previously a stale discovery stuck forever
    and a re-created table kept its old validity column.

    Translation runs through the process-wide compiled-statement cache
    (:mod:`repro.tsql.compiled`): any change to the effective registry
    bumps the cache generation, so a plan compiled before a table
    gained (or lost) its valid-time column is never served after.
    """

    def __init__(self, connection: TipConnection) -> None:
        self._connection = connection
        self._discovered: Dict[str, str] = {}
        self._overrides: Dict[str, str] = {}
        self._merged: Dict[str, str] = {}
        self.rescan()

    def rescan(self) -> None:
        """Re-discover temporal tables from sqlite_master.

        Replaces (not merges) the discovered mapping; the compiled
        cache generation is bumped only when discovery actually
        changed, so sessions opening against an unchanged schema keep
        every cached plan warm.
        """
        discovered = compiled.discover_valid_columns(self._connection)
        if discovered != self._discovered:
            self._discovered = discovered
            self._merged = {**self._discovered, **self._overrides}
            compiled.bump_generation()

    def register(self, table: str, valid_column: str) -> None:
        """Explicitly declare *table*'s validity column."""
        key = table.lower()
        if self._overrides.get(key) != valid_column:
            self._overrides[key] = valid_column
            self._merged = {**self._discovered, **self._overrides}
            compiled.bump_generation()

    @property
    def temporal_tables(self) -> Dict[str, str]:
        return dict(self._merged)

    def compile(self, statement: str) -> "compiled.CompiledStatement":
        """The statement's compiled form, served from the LRU."""
        return compiled.compile_statement(statement, self._merged)

    def translate(self, statement: str) -> str:
        """Rewrite without executing (for inspection and tests)."""
        return self.compile(statement).sql

    def query(self, statement: str, parameters: Sequence = ()) -> List[Tuple]:
        """Translate and execute, returning type-mapped rows.

        A committed DDL statement triggers a :meth:`rescan`, so a table
        gaining or losing its valid-time column is picked up (and the
        compiled cache invalidated) without the caller remembering to.

        Translated statements the temporal planner fully understands
        run on its set-based kernels (:mod:`repro.plan`) instead of the
        UDF path; the planner returns None for anything else — same
        rows either way, so callers never see the difference except in
        ``EXPLAIN TEMPORAL`` and the ``plan.*`` counters.
        """
        plan = self.compile(statement)
        if plan.shape is not None and not parameters:
            # The shape was matched at compile time; statements without
            # one (the vast majority) skip the planner entirely here.
            result = self._connection.cursor().execute_kernel(
                plan.sql, plan.shape
            )
            if result is not None:
                return result.rows
        rows = self._connection.query(plan.sql, parameters)
        if plan.ddl:
            self.rescan()
        return rows
