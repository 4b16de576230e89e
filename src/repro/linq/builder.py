"""Schema-bound tables and the relational combinators.

:class:`Linq` is the front: bind it to a local
:class:`~repro.client.connection.TipConnection` or a
:class:`~repro.server.client.RemoteTipConnection` (both expose
``.linq()``), and it discovers the schema — column declared types and
ELEMENT validity columns, the same first-ELEMENT-column rule
:class:`~repro.tsql.preprocessor.TsqlSession` applies — so every
column reference is typed at construction.

Queries are immutable: each combinator returns a new
:class:`Query`, so partial queries are shareable and reusable::

    q = conn.linq()
    active = q.table("Prescription", "p").where(p.drug == "Tylenol")
    active.snapshot(at="1999-09-01").run()          # evaluation mode
    active.validtime().with_now("2001-01-01").run() # sequenced, what-if NOW

The three TSQL2 evaluation modes are first-class wrappers
(:meth:`Query.snapshot`, :meth:`Query.validtime`,
:meth:`Query.nonsequenced`), and the session-NOW override is a
combinator (:meth:`Query.with_now`) applied for exactly one execution —
never shell state.  Compilation is deterministic and already
normalized for the compiled-statement cache; execution goes through
the local statement cache
(:func:`repro.tsql.compiled.compile_normalized`) or, remotely, through
PREPARE/EXECUTE (:meth:`Query.prepare`), so a builder query becomes a
cached :class:`~repro.server.client.PreparedStatement` with bound
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.chronon import Chronon
from repro.core.instant import Instant
from repro.core.parser import parse_chronon, parse_instant, parse_period
from repro.core.period import Period
from repro.errors import TipParseError
from repro.linq import types as _t
from repro.linq.ast import Column, Expr, as_expr, call
from repro.linq.compile import emit
from repro.linq.errors import LinqError, LinqTypeError
from repro.linq.params import ParamSpec
from repro.tsql import compiled

__all__ = ["Linq", "Schema", "Table", "Query", "LinqPrepared"]


@dataclass(frozen=True)
class TableInfo:
    """One table's declared shape, as SQLite parsed its DDL."""

    name: str
    columns: Tuple[Tuple[str, str], ...]  # (name, type name) in DDL order
    valid_column: Optional[str]  # first ELEMENT column, if any


class Schema:
    """Declared shapes of every table, discovered from sqlite_master."""

    def __init__(self, tables: Dict[str, TableInfo]) -> None:
        self.tables = tables

    @classmethod
    def from_connection(cls, connection) -> "Schema":
        """Discover via ``connection.query`` (local or remote alike)."""
        tables: Dict[str, TableInfo] = {}
        for key, (name, declared, valid) in compiled.declared_columns(connection).items():
            columns = tuple(
                (column, _t.decltype_name(decltype)) for column, decltype in declared
            )
            tables[key] = TableInfo(name, columns, valid)
        return cls(tables)

    def valid_columns(self) -> Dict[str, str]:
        """``lower-cased table -> validity column`` (temporal tables)."""
        return {
            key: info.valid_column
            for key, info in self.tables.items()
            if info.valid_column
        }


class Table:
    """One FROM item: a schema table under an alias.

    Columns are reachable as attributes (``p.drug``) or via
    :meth:`col` (needed when a column name collides with a method).
    The query combinators are available directly and start a fresh
    single-table :class:`Query`.
    """

    def __init__(self, linq: "Linq", info: TableInfo, alias: str) -> None:
        self.linq = linq
        self.info = info
        self.alias = alias
        self._column_types = {name.lower(): kind for name, kind in info.columns}
        self._column_names = {name.lower(): name for name, _ in info.columns}

    def col(self, name: str) -> Column:
        """The typed column expression ``alias.name``."""
        kind = self._column_types.get(name.lower())
        if kind is None:
            known = ", ".join(name for name, _ in self.info.columns)
            raise LinqError(
                f"no column {name!r} in {self.info.name} (columns: {known})"
            )
        return Column(self.alias, self._column_names[name.lower()], kind)

    @property
    def valid(self) -> Column:
        """The table's validity column (ELEMENT-typed)."""
        if not self.info.valid_column:
            raise LinqError(f"{self.info.name} has no ELEMENT validity column")
        return self.col(self.info.valid_column)

    @property
    def temporal(self) -> bool:
        return self.info.valid_column is not None

    def __getattr__(self, name: str) -> Column:
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self.col(name)
        except LinqError as exc:
            raise AttributeError(str(exc)) from exc

    def query(self) -> "Query":
        return Query(linq=self.linq, tables=(self,))

    # Combinator entry points, so ``table.where(...)`` reads naturally.

    def where(self, *predicates) -> "Query":
        return self.query().where(*predicates)

    def select(self, *items) -> "Query":
        return self.query().select(*items)

    def join(self, other, *, on) -> "Query":
        return self.query().join(other, on=on)

    def coalesce(self, *group_items, valid=None) -> "Query":
        return self.query().coalesce(*group_items, valid=valid)

    def snapshot(self, at=None) -> "Query":
        return self.query().snapshot(at=at)

    def validtime(self, period=None) -> "Query":
        return self.query().validtime(period=period)

    def nonsequenced(self) -> "Query":
        return self.query().nonsequenced()

    def with_now(self, now) -> "Query":
        return self.query().with_now(now)

    def __repr__(self) -> str:
        return f"Table({self.info.name} AS {self.alias})"


def _boolean_predicate(value, context: str) -> Expr:
    expr = as_expr(value)
    if expr.type_name not in (_t.BOOLEAN, _t.ANY):
        raise LinqTypeError(
            f"{context} needs a boolean expression, got {expr.type_name}"
        )
    return expr


def _instant_text(at) -> str:
    if isinstance(at, (Chronon, Instant)):
        return str(at)
    if isinstance(at, str):
        try:
            parse_instant(at)
        except TipParseError as exc:
            raise LinqError(f"snapshot at: {exc}") from exc
        return at.strip()
    raise LinqError(
        f"snapshot at wants an instant (Chronon, Instant, or text), "
        f"got {type(at).__name__}"
    )


def _period_body(period) -> str:
    """The bracket-free body the VALIDTIME PERIOD modifier carries."""
    if isinstance(period, Period):
        return str(period)[1:-1]
    if isinstance(period, str):
        body = period.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        try:
            parse_period(f"[{body}]")
        except TipParseError as exc:
            raise LinqError(f"validtime period: {exc}") from exc
        return body
    raise LinqError(
        f"validtime period wants a Period or text, got {type(period).__name__}"
    )


@dataclass(frozen=True, eq=False)
class Query:
    """An immutable query under construction.

    Every combinator validates its inputs against the schema and the
    TIP type rules, then returns a new query; :meth:`sql` compiles
    deterministically to tSQL text (cached per instance).
    """

    linq: "Linq"
    tables: Tuple[Table, ...]
    wheres: Tuple[Expr, ...] = ()
    selects: Optional[Tuple[Tuple[Optional[str], Expr], ...]] = None
    group: Optional[Tuple[Expr, ...]] = None
    order: Tuple[Expr, ...] = ()
    mode: Optional[Tuple] = None
    now_text: Optional[str] = None
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    # -- combinators ----------------------------------------------------

    def _evolve(self, **changes) -> "Query":
        changes.setdefault("_cache", {})
        return replace(self, **changes)

    def where(self, *predicates) -> "Query":
        """AND the predicates into the WHERE clause (boolean-checked)."""
        checked = tuple(
            _boolean_predicate(p, "where()") for p in predicates
        )
        return self._evolve(wheres=self.wheres + checked)

    def _resolve_item(self, item) -> Tuple[Optional[str], Expr]:
        if isinstance(item, tuple):
            alias, expr = item
            return alias, as_expr(expr)
        if isinstance(item, str):
            if len(self.tables) != 1:
                raise LinqError(
                    f"bare column name {item!r} is ambiguous over a join; "
                    "use table.col(name)"
                )
            return None, self.tables[0].col(item)
        return None, as_expr(item)

    def select(self, *items) -> "Query":
        """Project the given expressions (or ``(alias, expr)`` pairs)."""
        if not items:
            raise LinqError("select() needs at least one expression")
        return self._evolve(
            selects=tuple(self._resolve_item(item) for item in items)
        )

    def join(self, other, *, on) -> "Query":
        """Add a FROM item with an ON predicate (compiled into WHERE)."""
        table = other if isinstance(other, Table) else self.linq.table(other)
        if any(t.alias.lower() == table.alias.lower() for t in self.tables):
            raise LinqError(
                f"alias {table.alias!r} already in FROM; pass a distinct "
                "alias via linq.table(name, alias)"
            )
        predicate = _boolean_predicate(on, "join(on=...)")
        return self._evolve(
            tables=self.tables + (table,), wheres=self.wheres + (predicate,)
        )

    def coalesce(self, *group_items, valid=None) -> "Query":
        """Merge value-equivalent rows: GROUP BY + ``group_union``.

        Projects the grouping expressions plus ``group_union(valid)``
        as the ``valid`` column — the paper's coalescing step.  The
        validity expression defaults to the query's single temporal
        table's column.  Not combinable with ``validtime`` (sequenced
        aggregation is outside the translatable subset).
        """
        if self.mode and self.mode[0] == "validtime":
            raise LinqError(
                "coalesce under VALIDTIME is sequenced aggregation; "
                "the translator rejects it — coalesce first, or use "
                "nonsequenced semantics"
            )
        if not group_items:
            raise LinqError("coalesce() needs at least one grouping column")
        if valid is None:
            temporal = [t for t in self.tables if t.temporal]
            if len(temporal) != 1:
                raise LinqError(
                    "coalesce() needs valid=... when the query does not "
                    "have exactly one temporal table"
                )
            valid = temporal[0].valid
        resolved = tuple(self._resolve_item(item) for item in group_items)
        aggregate = call("group_union", as_expr(valid))
        return self._evolve(
            selects=resolved + (("valid", aggregate),),
            group=tuple(expr for _, expr in resolved),
        )

    # -- evaluation modes ----------------------------------------------

    def _set_mode(self, mode: Tuple) -> "Query":
        if self.mode is not None:
            raise LinqError(
                f"evaluation mode already set to {self.mode[0]!r}"
            )
        return self._evolve(mode=mode)

    def snapshot(self, at=None) -> "Query":
        """Snapshot semantics: the database as of one instant."""
        return self._set_mode(
            ("snapshot", None if at is None else _instant_text(at))
        )

    def validtime(self, period=None) -> "Query":
        """Sequenced semantics: result holds where all operands hold."""
        if self.group is not None:
            raise LinqError(
                "VALIDTIME over a coalesced query is sequenced "
                "aggregation; the translator rejects it"
            )
        if not any(t.temporal for t in self.tables):
            raise LinqError(
                "VALIDTIME requires at least one temporal table in FROM"
            )
        return self._set_mode(
            ("validtime", None if period is None else _period_body(period))
        )

    def nonsequenced(self) -> "Query":
        """Nonsequenced semantics: timestamps are ordinary attributes."""
        return self._set_mode(("nonsequenced",))

    def with_now(self, now) -> "Query":
        """Override the session ``NOW`` for this query's execution only."""
        if isinstance(now, Chronon):
            text = str(now)
        elif isinstance(now, str):
            try:
                parse_chronon(now)
            except TipParseError as exc:
                raise LinqError(f"with_now: {exc}") from exc
            text = now.strip()
        else:
            raise LinqError(
                f"with_now wants a Chronon or text, got {type(now).__name__}"
            )
        return self._evolve(now_text=text)

    def order_by(self, *items) -> "Query":
        """Deterministic output order (plain ORDER BY, ascending)."""
        resolved = tuple(self._resolve_item(item)[1] for item in items)
        return self._evolve(order=self.order + resolved)

    # -- compilation ----------------------------------------------------

    def _default_selects(self) -> Tuple[Tuple[Optional[str], Expr], ...]:
        hide_valid = self.mode is not None and self.mode[0] in (
            "snapshot",
            "validtime",
        )
        items: List[Tuple[Optional[str], Expr]] = []
        for table in self.tables:
            for name, _ in table.info.columns:
                if hide_valid and name == table.info.valid_column:
                    continue
                items.append((None, table.col(name)))
        if not items:
            raise LinqError("nothing to select")
        return tuple(items)

    def _compile(self) -> Tuple[str, ParamSpec]:
        if "plan" in self._cache:
            return self._cache["plan"]
        params: List = []
        pieces: List[str] = []
        if self.mode is not None:
            kind = self.mode[0]
            if kind == "snapshot":
                pieces.append(
                    "SNAPSHOT "
                    if self.mode[1] is None
                    else f"SNAPSHOT AT '{self.mode[1]}' "
                )
            elif kind == "validtime":
                pieces.append(
                    "VALIDTIME "
                    if self.mode[1] is None
                    else f"VALIDTIME PERIOD '{self.mode[1]}' "
                )
            else:
                pieces.append("NONSEQUENCED VALIDTIME ")
        selects = self.selects if self.selects is not None else self._default_selects()
        rendered = []
        for alias, expr in selects:
            sql, _ = emit(expr, params)
            rendered.append(f"{sql} AS {alias}" if alias else sql)
        pieces.append("SELECT " + ", ".join(rendered))
        items = [
            t.info.name
            if t.alias.lower() == t.info.name.lower()
            else f"{t.info.name} AS {t.alias}"
            for t in self.tables
        ]
        from_list = ", ".join(items)
        if len(items) > 1:
            from_list = f"({from_list})"
        pieces.append(f" FROM {from_list}")
        if self.wheres:
            conjuncts = []
            for predicate in self.wheres:
                sql, _ = emit(predicate, params)
                conjuncts.append(sql)
            pieces.append(" WHERE " + " AND ".join(conjuncts))
        if self.group:
            grouped = []
            for expr in self.group:
                sql, _ = emit(expr, params)
                grouped.append(sql)
            pieces.append(" GROUP BY " + ", ".join(grouped))
        if self.order:
            ordered = []
            for expr in self.order:
                sql, _ = emit(expr, params)
                ordered.append(sql)
            pieces.append(" ORDER BY " + ", ".join(ordered))
        statement = "".join(pieces)
        if obs.state.enabled:
            obs.counter("linq.compile.count").inc()
            obs.counter("linq.compile.chars").add(len(statement))
        plan = (statement, ParamSpec(params))
        self._cache["plan"] = plan
        return plan

    def sql(self) -> str:
        """The compiled tSQL text (deterministic, already normalized)."""
        return self._compile()[0]

    @property
    def params(self) -> ParamSpec:
        """The ordered named-parameter slots behind the ``?`` holders."""
        return self._compile()[1]

    # -- execution ------------------------------------------------------

    def run(self, *args, on=None, **kwargs) -> List[Tuple]:
        """Execute and fetch all rows, locally or remotely.

        Parameters bind by name or positionally (:class:`ParamSpec`).
        *on* overrides the bound connection — pass a
        :class:`~repro.server.client.RemoteTipConnection` to run the
        same query over the wire.  A :meth:`with_now` override is
        applied around exactly this execution and restored after.
        """
        bound = self.params.bind(*args, **kwargs)
        statement = self.sql()
        executor = on if on is not None else self.linq.connection
        if hasattr(executor, "prepare") and hasattr(executor, "session_now"):
            return self._run_remote(executor, statement, bound)
        return self._run_local(executor, statement, bound)

    def _run_local(self, connection, statement: str, bound) -> List[Tuple]:
        saved = connection.now_override
        if self.now_text is not None:
            connection.set_now(self.now_text)
        try:
            plan = compiled.compile_normalized(
                statement, self.linq.valid_columns()
            )
            return connection.query(plan.sql, bound)
        finally:
            if self.now_text is not None:
                connection.set_now(saved)

    def _run_remote(self, remote, statement: str, bound) -> List[Tuple]:
        saved = remote.session_now
        if self.now_text is not None:
            remote.set_now(self.now_text)
        try:
            return remote.execute(statement, bound).rows
        finally:
            if self.now_text is not None:
                remote.set_now(saved)

    def prepare(self, on=None) -> "LinqPrepared":
        """PREPARE this query on a remote connection.

        The compiled tSQL becomes a server-side
        :class:`~repro.server.client.PreparedStatement`; executions
        bind parameters by name through the same checked
        :class:`ParamSpec` as :meth:`run`.
        """
        remote = on if on is not None else self.linq.connection
        if not hasattr(remote, "prepare"):
            raise LinqError(
                "prepare() needs a remote connection (PREPARE/EXECUTE); "
                "local queries are cached by the statement cache already"
            )
        return LinqPrepared(self, remote.prepare(self.sql()))

    def __repr__(self) -> str:
        return f"Query({self.sql()!r})"


class LinqPrepared:
    """A builder query bound to a server-side prepared statement."""

    def __init__(self, query: Query, prepared) -> None:
        self.query = query
        self.prepared = prepared
        self._spec = query.params  # resolved once; binds are per-call

    def execute(self, *args, **kwargs):
        """One execution; returns the :class:`RemoteResult`."""
        return self.prepared.execute(self._spec.bind(*args, **kwargs))

    def rows(self, *args, **kwargs) -> List[Tuple]:
        """One execution; just the type-mapped rows."""
        return self.execute(*args, **kwargs).rows

    def deallocate(self) -> None:
        self.prepared.deallocate()

    def __enter__(self) -> "LinqPrepared":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.deallocate()


class Linq:
    """The builder front bound to one connection (local or remote)."""

    def __init__(self, connection) -> None:
        self.connection = connection
        self._schema: Optional[Schema] = None
        self.refresh()

    def refresh(self) -> None:
        """Re-discover the schema (call after DDL)."""
        self._schema = Schema.from_connection(self.connection)

    @property
    def schema(self) -> Schema:
        return self._schema

    def valid_columns(self) -> Dict[str, str]:
        return self._schema.valid_columns()

    def table(self, name: str, alias: Optional[str] = None) -> Table:
        """A FROM item for *name*, optionally under *alias*."""
        info = self._schema.tables.get(name.lower())
        if info is None:
            known = ", ".join(
                sorted(info.name for info in self._schema.tables.values())
            )
            raise LinqError(f"unknown table {name!r} (tables: {known})")
        return Table(self, info, alias or info.name)

    def tables(self) -> List[str]:
        """Known table names, sorted."""
        return sorted(info.name for info in self._schema.tables.values())
