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

The statement is read once through :func:`repro.tsql.parser.parse`,
and the output is rebuilt from the source spans of its clauses, so the
user's select list, FROM list, WHERE body and tail reach SQLite
verbatim.

Temporal tables are detected from the schema: any column declared with
type ``ELEMENT`` is a validity column (the first one per table is
used; :func:`repro.tsql.compiled.discover_valid_columns`);
non-temporal tables in the FROM list simply contribute no validity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.client.connection import TipConnection
from repro.errors import TranslationError
from repro.tsql import compiled, parser

__all__ = ["TsqlSession", "translate_tsql", "strip_explain"]


def strip_explain(statement: str) -> Optional[str]:
    """The statement under an ``EXPLAIN TEMPORAL`` prefix, or None.

    ``EXPLAIN TEMPORAL <sql>`` is TIP's per-query cost surface: the
    wrapped statement (TSQL2 modifiers included) is run under both the
    integrated blade engine and a layered TimeDB-style mirror, and the
    two profiles are reported side by side
    (:mod:`repro.tsql.explain`).  This helper only recognizes and
    strips the prefix, so the shell and CLI can route the statement.
    """
    head = (token for token in parser.tokens(statement) if token.kind != "comment")
    try:
        first, second, rest = next(head, None), next(head, None), next(head, None)
    except TranslationError:
        return None
    if rest is None or (first.key, second.key) != ("EXPLAIN", "TEMPORAL"):
        return None
    return statement[rest.start:].strip()


def translate_tsql(
    statement: str,
    valid_columns: Dict[str, str],
) -> str:
    """Rewrite one TSQL2-modified statement into TIP SQL.

    *valid_columns* maps (lower-cased) temporal table names to their
    validity column.  A statement without a modifier passes through
    unchanged.
    """
    mode = parser.statement_mode(statement)
    if mode is None:
        return statement.strip()
    if mode[0] == "NONSEQUENCED":
        return statement[mode[2]:].strip()

    select = parser.parse(statement)
    validities = [
        f"{item.alias}.{valid_columns[item.table.lower()]}"
        for item in select.from_items
        if item.table.lower() in valid_columns
    ]
    # GROUP BY / HAVING / ORDER BY / LIMIT onwards, verbatim.
    rest = [span for name, span in select.clauses.items()
            if name not in ("select", "from", "where")]
    tail = statement[rest[0].start:rest[-1].end] if rest else ""

    if select.modifier == "SNAPSHOT":
        at = select.argument or "NOW"
        conjuncts = [f"contains_instant({v}, instant('{at}'))" for v in validities]
        return _reassemble(select, select.body("select"), conjuncts, tail)

    # VALIDTIME (sequenced).
    if "group_by" in select.clauses or "having" in select.clauses:
        raise TranslationError(
            "sequenced (VALIDTIME) aggregation is not expressible in this subset; "
            "use TIP's group_union/group_intersect aggregates directly",
            clause=tail,
            offset=rest[0].start,
        )
    if not validities:
        raise TranslationError(
            "VALIDTIME requires at least one temporal table in FROM",
            clause=select.body("from"),
            offset=select.clauses["from"].body,
        )

    validity_expr = validities[0]
    for v in validities[1:]:
        validity_expr = f"tintersect({validity_expr}, {v})"
    conjuncts = [
        f"overlaps({a}, {b})"
        for i, a in enumerate(validities)
        for b in validities[i + 1:]
    ]
    if select.argument:
        window = f"period('[{select.argument}]')"
        validity_expr = f"restrict({validity_expr}, {window})"
        conjuncts.extend(f"overlaps({v}, to_element({window}))" for v in validities)
    select_list = f"{select.body('select')}, {validity_expr} AS valid"
    return _reassemble(select, select_list, conjuncts, tail)


def _reassemble(select: parser.Select, select_list: str,
                conjuncts: Sequence[str], tail: str) -> str:
    where = select.body("where")
    if conjuncts:
        extra = " AND ".join(conjuncts)
        where = f"({where}) AND {extra}" if where else extra
    sql = f"SELECT {select_list} FROM {select.body('from')}"
    if where:
        sql += f" WHERE {where}"
    if tail:
        sql += f" {tail}"
    return sql


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
