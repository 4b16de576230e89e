"""TIP-enabled database connections.

:func:`connect` opens a SQLite database, installs the TIP DataBlade
into it, and wraps it in :class:`TipConnection`, which adds the two
behaviours a temporal client needs beyond DB-API:

* **Per-statement ``NOW`` binding.**  The interpretation of ``NOW`` is
  sampled once when a statement starts and held fixed for all engine
  routine invocations of that statement, *including those that happen
  during later fetches* — SQLite evaluates rows lazily, so the cursor
  re-enters the statement's ``NOW`` context around every fetch.
* **``NOW`` override** (:meth:`TipConnection.set_now`), the what-if
  mechanism the TIP Browser exposes: queries evaluate in a temporal
  context different from the present.

Result values pass through a :class:`~repro.client.typemap.TypeMap`,
so TIP values come back as their datatype classes whether they arrive
from declared columns or from expressions.

A cursor's ``execute`` and ``execute_fetchall`` hand SQLite the
statement with its nested TIP routine calls fused into one call per
tree (:mod:`repro.blade.fusion`); the rows, their column names and the
per-routine call counts are those of the statement as written.
"""

from __future__ import annotations

import sqlite3
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.blade.fusion import executed_sql
from repro.blade.sqlite_backend import BladeConnection, install_tip
from repro.client.typemap import TypeMap
from repro.core.chronon import Chronon
from repro.core.formatter import chronon_text
from repro.core.granularity import check_chronon_seconds, wall_clock_seconds
from repro.core.nowctx import bind_now_seconds, reset_now, use_now
from repro.core.parser import parse_chronon
from repro.faults import state as _FAULTS
from repro.obs.profile import StatementRecorder, publish
from repro.obs.profile import state as _PROFILE

__all__ = ["connect", "TipConnection", "TipCursor"]


def connect(
    database: str = ":memory:",
    *,
    now: "Chronon | str | None" = None,
    type_map: Optional[TypeMap] = None,
    check_same_thread: bool = True,
) -> "TipConnection":
    """Open a TIP-enabled database.

    *now*, when given, overrides the interpretation of ``NOW`` for every
    statement on this connection (what-if analysis); otherwise each
    statement binds ``NOW`` to the wall clock at execution time.
    *check_same_thread=False* permits cross-thread use — the caller must
    then serialize access itself (the network server does, via a lock).
    """
    raw = sqlite3.connect(
        database,
        detect_types=sqlite3.PARSE_DECLTYPES,
        check_same_thread=check_same_thread,
        factory=BladeConnection,
    )
    install_tip(raw)
    return TipConnection(raw, now=now, type_map=type_map)


class TipConnection:
    """A DB-API-flavoured wrapper around a TIP-enabled connection."""

    def __init__(
        self,
        raw: sqlite3.Connection,
        *,
        now: "Chronon | str | None" = None,
        type_map: Optional[TypeMap] = None,
    ) -> None:
        self._raw = raw
        self._now_override: Optional[int] = None
        self.type_map = type_map if type_map is not None else TypeMap()
        self._last_profile = None
        if now is not None:
            self.set_now(now)

    @property
    def last_profile(self):
        """The :class:`~repro.obs.profile.QueryProfile` of the most
        recent profiled statement on this connection (None while the
        profiler is off)."""
        return self._last_profile

    # -- NOW control ---------------------------------------------------

    def set_now(self, now: "Chronon | str | int | None") -> None:
        """Override ``NOW`` for subsequent statements (None clears it).

        An ``int`` is taken as chronon seconds directly — the pool's
        per-checkout fast path, which re-binds a session NOW on every
        read without constructing a throwaway :class:`Chronon`.
        """
        if now is None:
            self._now_override = None
        elif isinstance(now, int):
            self._now_override = check_chronon_seconds(now)
        elif isinstance(now, str):
            self._now_override = parse_chronon(now).seconds
        elif isinstance(now, Chronon):
            self._now_override = now.seconds
        else:
            raise TypeError(f"set_now expects Chronon, str, int, or None, got {type(now).__name__}")

    @property
    def now_override(self) -> Optional[Chronon]:
        """The active override, or None when tracking the wall clock."""
        return None if self._now_override is None else Chronon(self._now_override)

    def statement_now_seconds(self) -> int:
        """The ``NOW`` a statement starting right now would bind."""
        if self._now_override is not None:
            return self._now_override
        return wall_clock_seconds()

    # -- statement execution --------------------------------------------

    def cursor(self) -> "TipCursor":
        return TipCursor(self._raw.cursor(), self)

    def execute(self, sql: str, parameters: Sequence = ()) -> "TipCursor":
        """Execute one statement, binding ``NOW`` for its whole lifetime."""
        return self.cursor().execute(sql, parameters)

    def executemany(self, sql: str, seq_of_parameters: Iterable[Sequence]) -> "TipCursor":
        return self.cursor().executemany(sql, seq_of_parameters)

    def executescript(self, script: str) -> "TipCursor":
        cursor = self.cursor()
        cursor.executescript(script)
        return cursor

    def query(self, sql: str, parameters: Sequence = ()) -> List[Tuple]:
        """Execute and fetch all rows, type-mapped."""
        return self.execute(sql, parameters).fetchall()

    def query_one(self, sql: str, parameters: Sequence = ()) -> Optional[Tuple]:
        """Execute and fetch the first row, type-mapped."""
        return self.execute(sql, parameters).fetchone()

    def query_stored_columns(
        self, sql: str, parameters: Sequence = ()
    ) -> List[Sequence]:
        """All rows of *sql*, column by column, exactly as stored.

        The planner kernels' bulk fetch: no type map runs, so their
        hash keys, residuals and group keys compare the values SQLite
        stored (the kernels map only the projected columns that hold
        blobs), and the validity column, selected last as an
        expression (``+valid``), reaches them undecoded.  Runs on the
        raw connection under the caller's ``NOW`` binding.
        """
        if _FAULTS.plan is not None:
            _FAULTS.plan.apply("conn.execute")
        cursor = self._raw.execute(sql, parameters)
        fetched = cursor.fetchall()
        return list(zip(*fetched)) or [()] * len(cursor.description)

    # -- transactions and lifecycle ---------------------------------------

    def commit(self) -> None:
        self._raw.commit()

    def rollback(self) -> None:
        self._raw.rollback()

    def close(self) -> None:
        self._raw.close()

    @property
    def raw(self) -> sqlite3.Connection:
        """The underlying sqlite3 connection (blade already installed)."""
        return self._raw

    def linq(self) -> "object":
        """A typed query-builder front bound to this connection.

        Discovers the schema now; call :meth:`repro.linq.Linq.refresh`
        after DDL.  See :mod:`repro.linq`.
        """
        from repro.linq import Linq  # lazy: linq imports this module

        return Linq(self)

    def __enter__(self) -> "TipConnection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        self.close()


class TipCursor:
    """Cursor holding its statement's ``NOW`` across lazy evaluation.

    When the query profiler (:mod:`repro.obs.profile`) is on, each
    ``execute`` leaves its :class:`~repro.obs.profile.QueryProfile` in
    :attr:`profile` (and on the connection's ``last_profile``); lazy
    fetches keep adding their time, rows and routine calls to it.  With
    the profiler off, the only footprint is the attribute check guarding
    the branch — no extra Python-level calls (settrace-verified in
    ``tests/test_profile.py``).
    """

    def __init__(self, raw: sqlite3.Cursor, connection: TipConnection) -> None:
        self._raw = raw
        self._connection = connection
        self._stmt_now: int = connection.statement_now_seconds()
        self.profile = None
        self._recorder = None

    # -- execution -------------------------------------------------------

    def execute(self, sql: str, parameters: Sequence = ()) -> "TipCursor":
        if _FAULTS.plan is not None:
            # Chaos hook: a statement that fails before reaching the
            # engine must leave the connection consistent (nothing ran,
            # nothing to roll back).
            _FAULTS.plan.apply("conn.execute")
        if _PROFILE.enabled or _PROFILE.forced:
            return self._execute_profiled(sql, parameters)
        # An earlier profiled statement's profile must not collect this
        # statement's fetches.
        self.profile = self._recorder = None
        self._stmt_now = self._connection.statement_now_seconds()
        # Direct token bind/reset: this brackets every statement and
        # every fetch, so it skips use_now's generator + dispatch cost.
        token = bind_now_seconds(self._stmt_now)
        try:
            self._raw.execute(executed_sql(sql), parameters)
        finally:
            reset_now(token)
        return self

    def execute_fetchall(self, sql: str, parameters: Sequence = ()):
        """Execute and fetch under ONE ``NOW`` binding; rows or None.

        The server's per-statement fast path: one bind/reset pair
        covers execute and fetch (semantically identical — both bind
        the same ``self._stmt_now``), and non-row statements report
        ``None`` (callers commit and read :attr:`rowcount`).  Falls
        back to the ordinary profiled path when recording.
        """
        if _FAULTS.plan is not None:
            _FAULTS.plan.apply("conn.execute")
        if _PROFILE.enabled or _PROFILE.forced:
            # The profile is stored once the fetch has charged its rows.
            self._execute_profiled(sql, parameters, defer=True)
            try:
                if self._raw.description is None:
                    return None
                return self._fetch_profiled(lambda: self._raw.fetchall())
            finally:
                publish(self.profile)
        self._stmt_now = self._connection.statement_now_seconds()
        token = bind_now_seconds(self._stmt_now)
        try:
            raw = self._raw
            raw.execute(executed_sql(sql), parameters)
            if raw.description is None:
                return None
            return self._connection.type_map.map_rows(raw.fetchall(), None)
        finally:
            reset_now(token)

    def _execute_profiled(self, sql: str, parameters: Sequence,
                          defer: bool = False) -> "TipCursor":
        self._stmt_now = self._connection.statement_now_seconds()
        recorder = StatementRecorder(sql).start()
        try:
            with use_now(self._stmt_now):
                self._raw.execute(executed_sql(sql), parameters)
        except Exception as exc:
            recorder.finish(
                ok=False, error=str(exc),
                statement_now=str(Chronon(self._stmt_now)),
            )
            raise
        self.profile = recorder.finish(
            rowcount=self._raw.rowcount,
            statement_now=str(Chronon(self._stmt_now)),
            defer=defer,
        )
        self._recorder = recorder
        self._connection._last_profile = self.profile
        return self

    def execute_kernel(self, sql: str, shape=None):
        """Offer *sql* to the temporal planner: its result, or None.

        None means the planner declined and the caller runs the
        statement normally (:mod:`repro.plan.planner`; *shape* is the
        compile-time matched shape, if the caller has one).  The
        decision never depends on the profiler.  Profiled like
        :meth:`execute`: with the profiler on, a statement the kernel
        takes leaves its profile in :attr:`profile`, whose counter
        deltas name the kernel (``plan.kernel.join`` /
        ``plan.kernel.coalesce``, ``plan.join.candidates``).
        """
        # Imported per call: the planner imports repro.client, and the
        # lookup also picks up a rebound planner.maybe_execute_kernel.
        from repro.plan.planner import maybe_execute_kernel

        if not (_PROFILE.enabled or _PROFILE.forced):
            result = maybe_execute_kernel(self._connection, sql, shape)
        else:
            recorder = StatementRecorder(sql).start()
            try:
                result = maybe_execute_kernel(self._connection, sql, shape)
            except Exception as exc:
                recorder.finish(ok=False, error=str(exc))
                raise
            if result is not None:
                recorder.profile.rows = len(result.rows)
                self.profile = recorder.finish(
                    statement_now=chronon_text(result.now_seconds)
                )
                self._recorder = recorder
                self._connection._last_profile = self.profile
        if result is not None:
            self._stmt_now = result.now_seconds
        return result

    def executemany(self, sql: str, seq_of_parameters: Iterable[Sequence]) -> "TipCursor":
        self._stmt_now = self._connection.statement_now_seconds()
        token = bind_now_seconds(self._stmt_now)
        try:
            self._raw.executemany(sql, seq_of_parameters)
        finally:
            reset_now(token)
        return self

    def executescript(self, script: str) -> "TipCursor":
        self._stmt_now = self._connection.statement_now_seconds()
        token = bind_now_seconds(self._stmt_now)
        try:
            self._raw.executescript(script)
        finally:
            reset_now(token)
        return self

    # -- fetching ----------------------------------------------------------

    def _decltypes(self) -> Optional[List[Optional[str]]]:
        description = self._raw.description
        if description is None:
            return None
        # sqlite3 exposes no decltype in description; converters already
        # handled declared columns.  The type map's blob detection covers
        # expression results, so no per-column decltype is needed here.
        return None

    def fetchone(self) -> Optional[Tuple]:
        if self.profile is not None:
            return self._fetch_profiled(lambda: self._raw.fetchone(), one=True)
        token = bind_now_seconds(self._stmt_now)
        try:
            row = self._raw.fetchone()
            return self._connection.type_map.map_row(row, self._decltypes())
        finally:
            reset_now(token)

    def fetchmany(self, size: int = 64) -> List[Tuple]:
        if self.profile is not None:
            return self._fetch_profiled(lambda: self._raw.fetchmany(size))
        token = bind_now_seconds(self._stmt_now)
        try:
            rows = self._raw.fetchmany(size)
            return self._connection.type_map.map_rows(rows, self._decltypes())
        finally:
            reset_now(token)

    def fetchall(self) -> List[Tuple]:
        if self.profile is not None:
            return self._fetch_profiled(lambda: self._raw.fetchall())
        token = bind_now_seconds(self._stmt_now)
        try:
            rows = self._raw.fetchall()
            return self._connection.type_map.map_rows(rows, self._decltypes())
        finally:
            reset_now(token)

    def _fetch_profiled(self, fetch, one: bool = False):
        """A fetch that charges its time and rows to the open profile."""
        from time import perf_counter

        started = perf_counter()
        with use_now(self._stmt_now):
            fetched = fetch()
            if one:
                mapped = self._connection.type_map.map_row(fetched, self._decltypes())
            else:
                mapped = self._connection.type_map.map_rows(fetched, self._decltypes())
        self.profile.fetch_seconds += perf_counter() - started
        if one:
            self.profile.rows += 1 if mapped is not None else 0
        else:
            self.profile.rows += len(mapped)
        if self._recorder is not None:
            self._recorder.count()
        return mapped

    def __iter__(self) -> Iterator[Tuple]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # -- metadata ------------------------------------------------------------

    @property
    def description(self):
        return self._raw.description

    @property
    def rowcount(self) -> int:
        return self._raw.rowcount

    @property
    def lastrowid(self) -> Optional[int]:
        return self._raw.lastrowid

    @property
    def statement_now(self) -> Chronon:
        """The ``NOW`` this cursor's current statement is bound to."""
        return Chronon(self._stmt_now)

    @property
    def statement_now_text(self) -> str:
        """``str(self.statement_now)`` without constructing the Chronon
        — the server stamps every response frame with it."""
        return chronon_text(self._stmt_now)

    def close(self) -> None:
        self._raw.close()
