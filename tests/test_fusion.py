"""Fused routine trees and deterministic routine declarations.

The fused path (a TIP cursor hands SQLite one ``tip_eval`` call per
tree of nested routine calls, :mod:`repro.blade.fusion`) must be
observationally the unfused statement: the same rows in the same order,
the same column names, the same errors and the same per-routine call
counts.  The oracle is the statement as written, run on the same
connection's raw ``sqlite3`` handle under the same NOW.

Routines declared deterministic let SQLite evaluate a constant call once
per statement; the declaration is only sound for routines whose result
never depends on NOW, which the property below checks.
"""

from __future__ import annotations

import re
import sqlite3

import pytest
from hypothesis import HealthCheck, event, find, given, settings
from hypothesis import strategies as st

import repro
from repro import obs
from repro.blade import fusion
from repro.blade.datablade import TIP_TYPES
from repro.blade.sqlite_backend import tip_blade
from repro.core.chronon import Chronon
from repro.core.element import Element
from repro.core.instant import Instant
from repro.core.nowctx import use_now
from repro.core.period import Period
from repro.core.span import Span
from repro.errors import TipError
from repro.workload.medical import MedicalConfig, generate_prescriptions, load_tip
from tests.strategies import chronons, elements, instants, periods, spans

ROUTINES = sorted(tip_blade().routines.items())


def _routine(name: str):
    return next(routine for (routine_name, _), routine in ROUTINES if routine_name == name)


# -- the differential table --------------------------------------------

COLUMNS = {
    "Element": ("e",), "Chronon": ("c",), "Span": ("s",), "Instant": ("i",),
    "Period": ("p",), "boolean": ("b",), "integer": ("n", "b"), "number": ("n",),
    "float": ("n",), "text": ("t",),
}
ALL_COLUMNS = ("e", "c", "s", "i", "p", "b", "n", "t")
LITERALS = {
    "Element": ("'{[1999-01-01, NOW]}'", "'{}'", "'{[NOW+1, NOW+3]}'"),
    "Chronon": ("'1999-06-01'",),
    "Span": ("'7'", "'-3'"),
    "Instant": ("'NOW-30'", "'1999-02-01'"),
    "Period": ("'[1999-01-01, NOW]'",),
    "boolean": ("1", "0"),
    "integer": ("3", "0", "-2"),
    "number": ("2", "0.5"),
    "float": ("1.5",),
    "text": ("'abc'", "'{[1999-03-01, NOW]}'"),
}
#: Constant routine subtrees: leaves that SQLite evaluates once per
#: statement when every routine in them is deterministic.
CONSTANTS = ("tmul(span('7'), 3)", "span('2')", "element('{[1999-03-01, NOW]}')",
             "tadd(chronon('1999-01-01'), span('5'))", "tdiv(span('9'), 2)")
WIDENS = {
    "Element": {"Element", "Period", "Instant", "Chronon"},
    "Period": {"Period", "Instant", "Chronon"},
    "Instant": {"Instant", "Chronon"},
    "integer": {"integer", "boolean"},
    "boolean": {"integer", "boolean"},
    "number": {"integer", "boolean", "float"},
    "float": {"integer", "float"},
}
ROWS = [
    (1, Element.parse("{[1999-01-01, NOW]}"), Chronon.parse("1950-03-26"), Span.parse("7"),
     Instant.parse("NOW-30"), Period.parse("[1999-01-01, NOW]"), 1, 3,
     "{[1999-06-01, NOW]}"),
    # NOW-relative bounds on both sides, empty at the test NOWs.
    (2, Element.parse("{[NOW+1, NOW+3], [1999-06-01, NOW-400]}"), None, Span.parse("-2"),
     Instant.parse("NOW+2"), Period.parse("[NOW-5, NOW]"), 0, 0, "garbage"),
    # A Chronon stored where an Element is declared (widening).
    (3, Chronon.parse("1999-07-04"), Chronon.parse("1970-01-01"), None, None, None,
     None, -4, None),
    (4, Element.parse("{[1998-01-01, 1998-03-01], [1999-01-01, 1999-02-01]}"),
     Chronon.parse("1999-12-31"), Span.parse("400"), Instant.parse("1999-01-02"),
     Period.parse("[1998-01-01, 1999-12-31]"), 1, None, "{}"),
    (5, None, None, None, None, None, None, None, None),
]
NOWS = ("2000-01-01", "1999-06-15", "2001-03-01")


def _open():
    connection = repro.connect()
    connection.execute(
        "CREATE TABLE F (k INTEGER, e ELEMENT, c CHRONON, s SPAN, i INSTANT, "
        "p PERIOD, b INTEGER, n INTEGER, t TEXT)")
    connection.executemany("INSERT INTO F VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)", ROWS)
    connection.commit()
    return connection


_CONNECTION = None


def _connection():
    global _CONNECTION
    if _CONNECTION is None:
        _CONNECTION = _open()
    return _CONNECTION


def _fits(produced: str, wanted: str) -> bool:
    return (wanted == "any" or produced == "any" or produced == wanted
            or produced in WIDENS.get(wanted, ()))


def _param_values(wanted: str):
    tip = st.one_of(elements(max_periods=3), chronons(), spans(), instants(), periods())
    return {
        "Element": elements(max_periods=3) | chronons(),
        "Chronon": chronons(), "Span": spans(), "Instant": instants(),
        "Period": periods(),
        "text": st.sampled_from(["{[1999-01-01, NOW]}", "x", "7"]),
    }.get(wanted, st.one_of(st.integers(-3, 3), tip, st.none()))


@st.composite
def expressions(draw, wanted: str, depth: int, params: list):
    """One SQL expression for a slot of type *wanted*: a routine tree
    (up to *depth* nested calls) or a leaf; ``?`` values go to *params*."""
    if depth > 0 and draw(st.integers(0, 9)) < 6:
        candidates = [(key, routine) for key, routine in ROUTINES
                      if _fits(routine.return_type, wanted)]
        if not candidates or draw(st.integers(0, 19)) == 0:
            candidates = ROUTINES  # a type error now and then
        (name, _), routine = draw(st.sampled_from(candidates))
        args = [draw(expressions(arg_type, depth - 1, params))
                for arg_type in routine.arg_types]
        return f"{name}({', '.join(args)})"
    kind = draw(st.sampled_from(
        ["column", "column", "column", "literal", "param", "null", "constant", "case"]))
    if kind == "column":
        return draw(st.sampled_from(COLUMNS.get(wanted, ALL_COLUMNS)))
    if kind == "literal":
        return draw(st.sampled_from(LITERALS.get(wanted, LITERALS["text"])))
    if kind == "param":
        params.append(draw(_param_values(wanted)))
        return "?"
    if kind == "null":
        return "NULL"
    if kind == "constant":
        return draw(st.sampled_from(CONSTANTS))
    branch = draw(expressions(wanted, max(depth - 1, 0), params))
    return f"CASE WHEN b THEN {branch} ELSE NULL END"


@st.composite
def statements(draw):
    params: list = []
    projected = draw(expressions("any", 3, params))
    if draw(st.booleans()):
        return f"SELECT k, {projected} FROM F ORDER BY k", params
    condition = draw(expressions("boolean", 3, params))
    return f"SELECT k, {projected} FROM F WHERE {condition} ORDER BY k", params


def _call_sites(sql: str) -> int:
    """The number of routine calls written in *sql*."""
    names = {name for (name, _), _ in ROUTINES}
    return sum(name in names for name in re.findall(r"(\w+)\(", sql))


def _comparable(value):
    return ("tip", repro.codec.encode(value)) if isinstance(value, TIP_TYPES) else value


def _routine_calls(registry) -> dict:
    """``blade.routine.<name>.calls`` counts, ``tip_eval`` aside."""
    counters = registry.snapshot()["counters"]
    return {name: count for name, count in counters.items()
            if name.startswith("blade.routine.") and name.endswith(".calls")
            and name != f"blade.routine.{fusion.EVAL_ROUTINE}.calls" and count}


def _outcome(run):
    with obs.capture() as registry:
        try:
            names, rows = run()
            result = ("ok", names, [tuple(map(_comparable, row)) for row in rows])
        except Exception as exc:  # both sides must fail alike
            result = ("error", type(exc).__name__, str(exc))
        return result, _routine_calls(registry)


def _fused(connection, sql, params):
    cursor = connection.execute(sql, params)
    return [column[0] for column in cursor.description], cursor.fetchall()


def _unfused(connection, sql, params):
    with use_now(connection.statement_now_seconds()):
        cursor = connection.raw.execute(sql, params)
        rows = cursor.fetchall()
    return ([column[0] for column in cursor.description],
            connection.type_map.map_rows(rows, None))


class TestFusedEqualsUnfused:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(statement=statements(), now=st.sampled_from(NOWS))
    def test_rows_errors_and_calls_match(self, statement, now):
        sql, params = statement
        connection = _connection()
        connection.set_now(now)
        (fused, fused_calls) = _outcome(lambda: _fused(connection, sql, params))
        (unfused, unfused_calls) = _outcome(lambda: _unfused(connection, sql, params))
        context = fusion.fused_sql(sql)
        event("fused" if context != sql else "unfused")
        assert fused == unfused, context
        if fused[0] == "ok":
            assert fused_calls == unfused_calls, context
        else:
            # SQLite evaluates a tip_eval's arguments before its tree, so
            # a constant leaf (evaluated once per statement) can run
            # ahead of a nested call on the row that fails: the counts
            # may differ by at most one call per call site in the text
            # (docs/architecture.md, "Fused routine trees").
            difference = sum(abs(fused_calls.get(name, 0) - unfused_calls.get(name, 0))
                             for name in set(fused_calls) | set(unfused_calls))
            assert difference <= _call_sites(sql), context

    def test_generated_statements_do_fuse(self):
        """The generator reaches the rewrite, including trees with a
        parameter, a constant subtree and a CASE leaf."""
        for needle in ("?", "tmul(span('7'), 3)", "CASE WHEN"):
            def leaves(sql):  # the text after the first template
                return fusion.fused_sql(sql).partition("tip_eval('")[2].partition("'")[2]

            sql, _ = find(statements(), lambda statement: needle in leaves(statement[0]),
                          settings=settings(max_examples=2000, database=None))
            assert needle in leaves(sql)

    def test_nested_calls_run_in_one_callback_per_tree(self):
        connection = _connection()
        connection.set_now("2000-01-01")
        sql = "SELECT k, tip_text(tsub(start(e), c)) FROM F ORDER BY k"
        assert fusion.fused_sql(sql) == (
            "SELECT k, tip_eval('tip_text(tsub(start(?),?))', e, c) "
            "AS \"tip_text(tsub(start(e), c))\" FROM F ORDER BY k")
        with obs.capture() as registry:
            cursor = connection.execute(sql)
            rows = cursor.fetchall()
        assert [column[0] for column in cursor.description] == [
            "k", "tip_text(tsub(start(e), c))"]
        assert rows[0] == (1, "17813")
        assert registry.counter_value("blade.routine.tip_eval.calls") == len(ROWS)
        assert registry.counter_value("blade.routine.start.calls") == len(ROWS)

    @pytest.mark.parametrize("sql", [
        "SELECT tip_text( start( e ) ) FROM F",
        "SELECT span_seconds(tsub(start(e), c)) * 2, k FROM F",
        "SELECT DISTINCT tip_text(start(e)) FROM F",
        "SELECT tip_text(start(e)) /* note */ FROM F",
        "SELECT \"k\", tip_text(start(\"e\")) FROM F",
        "WITH w AS (SELECT k, tip_text(start(e)) FROM F) SELECT * FROM w",
        "SELECT * FROM (SELECT tip_text(start(e)) FROM F)",
        "SELECT tip_text(start(e)) FROM F UNION ALL SELECT tip_text(end_time(e)) FROM F",
        "SELECT (SELECT tip_text(start(e)) FROM F WHERE k = 1), tip_text(start(e)) t FROM F",
    ])
    def test_column_names_survive_the_rewrite(self, sql):
        connection = _connection()
        connection.set_now("2000-01-01")
        assert fusion.fused_sql(sql) != sql
        assert _outcome(lambda: _fused(connection, sql, ())) == _outcome(
            lambda: _unfused(connection, sql, ()))

    def test_what_stays_unfused(self):
        unchanged = [
            # a single call, a constant tree, an aggregate argument
            "SELECT is_empty(e) FROM F",
            "SELECT tip_text(tmul(span('7'), 3)) FROM F",
            "SELECT length(group_union(e)) FROM F",
            # parameters only: SQLite hoists it when deterministic
            "SELECT tip_text(tadd(?, span('1'))) FROM F",
            # not a statement the cursor rewrites
            "CREATE VIEW v AS SELECT tip_text(start(e)) FROM F",
        ]
        for sql in unchanged:
            assert fusion.fused_sql(sql) == sql
        # Aliased result columns keep their alias; leaves are rewritten.
        assert fusion.fused_sql(
            "SELECT tip_text(start(e)) AS s, CASE WHEN b THEN tip_text(start(e)) END x "
            "FROM F WHERE overlaps(tunion(e, p), ?)"
        ) == ("SELECT tip_eval('tip_text(start(?))', e) AS s, CASE WHEN b THEN "
              "tip_eval('tip_text(start(?))', e) END x FROM F "
              "WHERE tip_eval('overlaps(tunion(?,?),?)', e, p, ?)")

    def test_armed_fault_plan_runs_the_statement_as_written(self):
        sql = "SELECT tip_text(start(e)) FROM F"
        assert fusion.executed_sql(sql) != sql
        with repro.faults.inject("conn.execute:raise:p=0", seed=1):
            assert fusion.executed_sql(sql) == sql

    def test_tip_eval_rejects_bad_templates(self):
        raw = _connection().raw
        for sql in ("SELECT tip_eval('start(?', 1)", "SELECT tip_eval('nosuch(?)', 1)",
                    "SELECT tip_eval('start(?)', 1, 2)", "SELECT tip_eval(3, 1)"):
            with pytest.raises(sqlite3.OperationalError):
                raw.execute(sql).fetchall()
        with pytest.raises(TipError):
            fusion.parse_template("start(?)x")
        assert fusion.parse_template("tlt(tsub(start(?),?),?)") == (
            ("tlt", (("tsub", (("start", (0,)), 1)), 2)), 3)

    def test_a_constant_leaf_runs_ahead_of_a_failing_nested_call(self):
        """The one ordering difference: SQLite evaluates tip_eval's
        arguments before the tree, so a constant leaf runs (once) even
        when a nested call before it fails on the first row."""
        connection = _connection()
        connection.set_now("2000-01-01")
        sql = "SELECT tadd(start(t), tmul(span('7'), 3)) FROM F WHERE k = 2"
        assert fusion.fused_sql(sql) != sql
        fused = _outcome(lambda: _fused(connection, sql, ()))
        unfused = _outcome(lambda: _unfused(connection, sql, ()))
        assert fused[0] == unfused[0] == (
            "error", "OperationalError", "user-defined function raised exception")
        assert unfused[1] == {"blade.routine.start.calls": 1}
        assert fused[1] == {"blade.routine.start.calls": 1, "blade.routine.span.calls": 1,
                            "blade.routine.tmul.calls": 1}


    def test_tip_eval_calls_the_routine_sqlite_would(self):
        """A blade installed later replaces a routine for direct calls
        and fused trees alike, and leaves the other routines fused."""
        from repro.blade.registry import DataBlade, RoutineDef
        from repro.blade.sqlite_backend import install_blade

        connection = _open()
        try:
            blade = DataBlade(name="override")
            blade.register_routine(RoutineDef("start", ("any",), "text", lambda value: "7"))
            install_blade(connection.raw, blade)
            connection.set_now("2000-01-01")
            sql = ("SELECT k, span_seconds(span(start(e))), n_periods(tunion(e, e)) "
                   "FROM F ORDER BY k")
            assert fusion.fused_sql(sql).count("tip_eval(") == 2
            rows = connection.query(sql)
            assert rows[0] == (1, 7 * 86400, 1) and rows[-1] == (5, None, None)
            assert _outcome(lambda: _fused(connection, sql, ())) == _outcome(
                lambda: _unfused(connection, sql, ()))
        finally:
            connection.close()


# -- deterministic routines ------------------------------------------------

TEXT_LITERALS = st.sampled_from(
    ["{[1999-01-01, NOW]}", "[NOW-3, NOW]", "NOW", "NOW+2", "7", "1999-06-01", "x", ""])
SLOT_VALUES = {
    "Element": st.one_of(elements(max_periods=4), periods(), instants(), chronons()),
    "Period": st.one_of(periods(), instants(), chronons()),
    "Instant": st.one_of(instants(), chronons()),
    "Chronon": chronons(), "Span": spans(),
    "integer": st.integers(-10_000, 10_000), "text": TEXT_LITERALS,
}
ANY_VALUE = st.one_of(elements(max_periods=4), periods(), instants(), chronons(), spans(),
                      st.integers(-1000, 1000), st.floats(-50, 50), TEXT_LITERALS)


@st.composite
def deterministic_calls(draw):
    (name, arity), routine = draw(st.sampled_from(
        [item for item in ROUTINES if item[1].deterministic]))
    args = [draw(st.one_of(SLOT_VALUES.get(arg_type, ANY_VALUE), ANY_VALUE, st.none()))
            for arg_type in routine.arg_types]
    return name, args


def _evaluate(connection, sql, args, now_seconds):
    with use_now(now_seconds):
        try:
            (value,) = connection.raw.execute(sql, args).fetchone()
        except Exception as exc:
            return "error", type(exc).__name__, str(exc)
    return "ok", value


class TestDeterministicRoutines:
    @settings(max_examples=600, deadline=None)
    @given(call=deterministic_calls(),
           first=st.integers(0, 2_000_000_000), second=st.integers(0, 2_000_000_000))
    def test_results_do_not_depend_on_now(self, call, first, second):
        """A deterministic routine gives equal results (blobs compared
        byte for byte) or equal errors under two bound NOWs."""
        name, args = call
        sql = f"SELECT {name}({', '.join('?' * len(args))})"
        connection = _connection()
        assert (_evaluate(connection, sql, args, first)
                == _evaluate(connection, sql, args, second))

    @pytest.mark.parametrize("name", ["start", "is_empty", "tsub", "tlt", "overlaps",
                                      "tintersect", "tip_now", "ground"])
    def test_now_dependent_routines_stay_non_deterministic(self, name):
        assert not any(routine.deterministic for (routine_name, _), routine in ROUTINES
                       if routine_name == name)
        connection = repro.connect()
        try:
            connection.execute("CREATE TABLE g (e ELEMENT)")
            args = ", ".join(["e"] * len(_routine(name).arg_types))
            with pytest.raises(sqlite3.OperationalError, match="non-deterministic"):
                connection.execute(f"CREATE INDEX g_x ON g ({name}({args}))")
        finally:
            connection.close()

    def test_span_arithmetic_is_deterministic(self):
        for name in ("tmul", "tdiv", "tadd", "shift"):
            assert _routine(name).deterministic, name
        connection = repro.connect()
        try:
            connection.execute("CREATE TABLE g (s SPAN)")
            connection.execute("CREATE INDEX g_x ON g (tmul(s, 2))")
        finally:
            connection.close()

    def test_paper_q1_calls_tmul_once_per_statement(self):
        connection = repro.connect(now="1999-09-01")
        try:
            load_tip(connection, generate_prescriptions(
                MedicalConfig(n_prescriptions=300, n_patients=30, seed=4)))
            sql = ("SELECT patient, drug FROM Prescription WHERE drug = 'Aspirin' "
                   "AND CASE WHEN is_empty(valid) THEN 0 "
                   "ELSE tlt(tsub(start(valid), patientdob), tmul(span('7'), 900)) END")
            (aspirin,) = connection.query_one(
                "SELECT COUNT(*) FROM Prescription WHERE drug = 'Aspirin'")
            with obs.capture() as registry:
                rows = connection.query(sql)
            assert aspirin > 10 and rows
            assert registry.counter_value("blade.routine.tmul.calls") == 1
            assert registry.counter_value("blade.routine.span.calls") == 1
            assert registry.counter_value("blade.routine.is_empty.calls") == aspirin
        finally:
            connection.close()

    def test_constant_where_term_is_evaluated_even_over_an_empty_table(self):
        """SQLite evaluates a constant WHERE term once, before the scan:
        an erroneous constant call raises even when no row exists
        (``docs/architecture.md``, *Fused routine trees*)."""
        connection = repro.connect()
        try:
            connection.execute("CREATE TABLE e (s SPAN)")
            for term in ("tmul(span('1'), 'x')", "span('nonsense')"):
                with pytest.raises(sqlite3.OperationalError):
                    connection.query(f"SELECT s FROM e WHERE {term}")
            # A row-dependent erroneous call never runs on an empty table.
            assert connection.query("SELECT s FROM e WHERE tmul(s, 'x')") == []
        finally:
            connection.close()
