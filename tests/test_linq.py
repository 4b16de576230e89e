"""Tests for the typed query builder (repro.linq).

Construction-time checking, deterministic compilation, the three
TSQL2 evaluation modes, parameter binding, and execution on both the
local connection (through the compiled-statement cache) and a live
server (through PREPARE/EXECUTE).  The differential property suite
lives in ``tests/test_linq_properties.py``; the ill-typed rejection
sweep in ``tests/test_linq_typing.py``.
"""

from __future__ import annotations

import pytest

import repro
from repro import obs
from repro.cli import TipShell
from repro.core.chronon import Chronon
from repro.core.period import Period
from repro.linq import (
    LinqError,
    LinqTypeError,
    allen,
    call,
    compile_expr,
    lit,
    now,
    param,
)
from repro.server import RemoteTipConnection, TipServer
from repro.tsql.compiled import (
    CACHE,
    compile_normalized,
    count_params,
    normalize_statement,
)
from repro.tsql.preprocessor import TsqlSession

DDL = [
    "CREATE TABLE Prescription (patient TEXT, drug TEXT, dosage INTEGER, "
    "filled CHRONON, valid ELEMENT)",
    "CREATE TABLE Patient (name TEXT, city TEXT)",
]

ROWS = [
    ("Mr.Showbiz", "Diabeta", 1, "1999-10-01", "{[1999-10-01, NOW]}"),
    ("Ms.Info", "Tylenol", 2, "1999-08-01", "{[1999-08-01, 1999-08-20]}"),
    ("Ms.Info", "Prozac", 1, "1999-01-01",
     "{[1999-01-01, 1999-04-30], [1999-07-01, 1999-10-31]}"),
]

PATIENTS = [("Mr.Showbiz", "Tucson"), ("Ms.Info", "Phoenix")]


def _load(connection) -> None:
    for ddl in DDL:
        connection.execute(ddl)
    for row in ROWS:
        connection.execute(
            "INSERT INTO Prescription VALUES (?, ?, ?, chronon(?), element(?))",
            row,
        )
    for row in PATIENTS:
        connection.execute("INSERT INTO Patient VALUES (?, ?)", row)


@pytest.fixture
def conn():
    connection = repro.connect(now="1999-09-01")
    _load(connection)
    yield connection
    connection.close()


@pytest.fixture
def front(conn):
    return conn.linq()


@pytest.fixture(scope="module")
def server():
    with TipServer(":memory:", observability=False) as srv:
        yield srv


@pytest.fixture
def remote(server):
    host, port = server.address
    connection = RemoteTipConnection(host, port, request_timeout=5.0)
    connection.execute("DROP TABLE IF EXISTS Prescription")
    connection.execute("DROP TABLE IF EXISTS Patient")
    _load(connection)
    connection.set_now("1999-09-01")
    yield connection
    connection.set_now(None)
    connection.close()


class TestSchemaDiscovery:
    def test_tables_listed(self, front):
        assert front.tables() == ["Patient", "Prescription"]

    def test_valid_columns_match_session_discovery(self, conn, front):
        session = TsqlSession(conn)
        assert front.valid_columns() == session.temporal_tables

    def test_columns_are_typed_from_ddl(self, front):
        p = front.table("Prescription", "p")
        assert p.drug.type_name == "text"
        assert p.dosage.type_name == "integer"
        assert p.filled.type_name == "Chronon"
        assert p.valid.type_name == "Element"

    def test_column_lookup_is_case_insensitive(self, front):
        p = front.table("Prescription", "p")
        assert p.col("DRUG").name == "drug"

    def test_unknown_column_lists_alternatives(self, front):
        p = front.table("Prescription", "p")
        with pytest.raises(LinqError, match="columns: patient, drug"):
            p.col("doseage")

    def test_unknown_table_lists_alternatives(self, front):
        with pytest.raises(LinqError, match="tables:.*Prescription"):
            front.table("Prescriptions")

    def test_non_temporal_table_has_no_valid(self, front):
        d = front.table("Patient", "d")
        assert not d.temporal
        with pytest.raises(LinqError, match="no ELEMENT validity column"):
            d.valid

    def test_columns_come_from_declared_types(self, conn):
        """A comment inside the DDL is neither a column nor a type."""
        conn.execute("CREATE TABLE Lab (test TEXT, -- an ELEMENT, the validity\n"
                     "  valid ELEMENT)")
        lab = conn.linq().table("Lab")
        assert [name for name, _ in lab.info.columns] == ["test", "valid"]
        assert lab.info.valid_column == "valid"
        assert lab.test.type_name == "text"

    def test_refresh_sees_new_tables(self, conn, front):
        conn.execute("CREATE TABLE Lab (test TEXT, valid ELEMENT)")
        with pytest.raises(LinqError):
            front.table("Lab")
        front.refresh()
        assert front.table("Lab").temporal


class TestCompileGoldens:
    def test_plain_select_all(self, front):
        q = front.table("Prescription", "p").query()
        assert q.sql() == (
            "SELECT p.patient, p.drug, p.dosage, p.filled, p.valid "
            "FROM Prescription AS p"
        )

    def test_alias_defaults_to_table_name(self, front):
        q = front.table("Patient").query()
        assert q.sql() == "SELECT Patient.name, Patient.city FROM Patient"

    def test_scalar_comparison_stays_infix(self, front):
        p = front.table("Prescription", "p")
        q = p.where(p.drug == "Tylenol").select(p.patient)
        assert q.sql() == (
            "SELECT p.patient FROM Prescription AS p "
            "WHERE (p.drug = 'Tylenol')"
        )

    def test_tip_comparison_lowers_to_generic_routine(self, front):
        p = front.table("Prescription", "p")
        q = p.where(p.filled <= Chronon.parse("1999-09-01")).select(p.drug)
        assert "tle(p.filled, chronon('1999-09-01'))" in q.sql()

    def test_tip_literals_are_constructor_calls(self, front):
        p = front.table("Prescription", "p")
        period = Period.parse("[1999-08-05, 1999-08-10]")
        q = p.where(p.valid.overlaps(lit(period))).select(p.drug)
        assert "overlaps(p.valid, period('[1999-08-05, 1999-08-10]'))" in q.sql()

    def test_snapshot_golden(self, front):
        q = front.table("Prescription", "p").snapshot(at="1999-09-01")
        sql = q.sql()
        assert sql.startswith("SNAPSHOT AT '1999-09-01' SELECT ")
        assert "p.valid" not in sql  # validity hidden under snapshot

    def test_validtime_period_golden(self, front):
        q = front.table("Prescription", "p").validtime(
            period="[1999-08-05, 1999-08-10]"
        )
        assert q.sql().startswith("VALIDTIME PERIOD '1999-08-05, 1999-08-10' ")

    def test_nonsequenced_golden(self, front):
        q = front.table("Prescription", "p").nonsequenced()
        sql = q.sql()
        assert sql.startswith("NONSEQUENCED VALIDTIME SELECT ")
        assert "p.valid" in sql  # timestamps are plain attributes

    def test_join_emits_parenthesized_from(self, front):
        p = front.table("Prescription", "p")
        d = front.table("Patient", "d")
        q = p.join(d, on=p.patient == d.name).select(p.drug, d.city)
        assert q.sql() == (
            "SELECT p.drug, d.city FROM (Prescription AS p, Patient AS d) "
            "WHERE (p.patient = d.name)"
        )

    def test_coalesce_golden(self, front):
        q = front.table("Prescription", "p").coalesce("patient")
        assert q.sql() == (
            "SELECT p.patient, group_union(p.valid) AS valid "
            "FROM Prescription AS p GROUP BY p.patient"
        )

    def test_order_by(self, front):
        p = front.table("Prescription", "p")
        q = p.select(p.drug).order_by(p.drug)
        assert q.sql().endswith(" ORDER BY p.drug")

    def test_logic_and_not(self, front):
        p = front.table("Prescription", "p")
        predicate = (p.drug == "Tylenol") | ~(p.dosage > 1)
        q = p.where(predicate).select(p.patient)
        assert "((p.drug = 'Tylenol') OR (NOT (p.dosage > 1)))" in q.sql()

    def test_allen_and_now_sugar(self, front):
        p = front.table("Prescription", "p")
        period = Period.parse("[1999-08-01, 1999-08-20]")
        sql, _ = compile_expr(allen("meets", p.filled, lit(period)))
        assert sql == "allen_meets(p.filled, period('[1999-08-01, 1999-08-20]'))"
        sql, _ = compile_expr(now())
        assert sql == "tip_now()"

    def test_allen_rejects_element_operand(self, front):
        # allen_* relations are Period predicates; an Element does not
        # narrow, matching the blade signature exactly.
        p = front.table("Prescription", "p")
        period = Period.parse("[1999-08-01, 1999-08-20]")
        with pytest.raises(LinqTypeError, match="wants Period, got Element"):
            allen("equals", p.valid, lit(period))

    def test_output_is_already_normalized(self, front):
        p = front.table("Prescription", "p")
        d = front.table("Patient", "d")
        queries = [
            p.query(),
            p.where(p.drug == "Tylenol").snapshot(at="1999-09-01"),
            p.join(d, on=p.patient == d.name).validtime(),
            p.coalesce("patient"),
        ]
        for q in queries:
            assert normalize_statement(q.sql()) == q.sql()

    def test_compile_is_deterministic_and_cached(self, front):
        p = front.table("Prescription", "p")
        q = p.where(p.drug == param("drug", "text")).select(p.patient)
        first = q.sql()
        assert q.sql() is first  # per-instance plan cache
        rebuilt = p.where(p.drug == param("drug", "text")).select(p.patient)
        assert rebuilt.sql() == first  # deterministic across instances

    def test_combinators_are_immutable(self, front):
        p = front.table("Prescription", "p")
        base = p.query()
        narrowed = base.where(p.dosage > 1)
        assert base.sql() != narrowed.sql()
        assert base.wheres == ()


class TestParams:
    def test_placeholders_and_arity(self, front):
        p = front.table("Prescription", "p")
        q = p.where(
            p.drug == param("drug", "text"),
            p.dosage >= param("dose", "integer"),
        ).select(p.patient)
        assert q.sql().count("?") == 2
        assert q.params.arity == 2
        assert q.params.names == ("drug", "dose")

    def test_count_params_agrees_with_spec(self, front):
        p = front.table("Prescription", "p")
        q = p.where(p.drug == param("drug", "text")).select(p.patient)
        assert count_params(q.sql()) == q.params.arity

    def test_repeated_name_binds_once(self, front):
        p = front.table("Prescription", "p")
        who = param("who", "text")
        q = p.where((p.patient == who) | (p.drug == who)).select(p.patient)
        assert q.params.arity == 2
        assert q.params.names == ("who",)
        assert q.params.bind(who="Tylenol") == ("Tylenol", "Tylenol")

    def test_bind_type_checked(self, front):
        p = front.table("Prescription", "p")
        q = p.where(p.dosage >= param("dose", "integer")).select(p.patient)
        with pytest.raises(LinqTypeError, match="declared integer, got text"):
            q.params.bind(dose="two")

    def test_bind_mixing_rejected(self, front):
        p = front.table("Prescription", "p")
        q = p.where(p.drug == param("drug", "text")).select(p.patient)
        with pytest.raises(LinqError, match="not both"):
            q.params.bind("Tylenol", drug="Tylenol")

    def test_bind_name_mismatch(self, front):
        p = front.table("Prescription", "p")
        q = p.where(p.drug == param("drug", "text")).select(p.patient)
        with pytest.raises(LinqError, match="missing \\['drug'\\]"):
            q.params.bind(dose=1)

    def test_describe(self, front):
        p = front.table("Prescription", "p")
        q = p.where(p.drug == param("drug", "text")).select(p.patient)
        assert q.params.describe() == {"drug": "text"}


class TestBuildTimeRejections:
    def test_second_mode_rejected(self, front):
        q = front.table("Prescription", "p").snapshot()
        with pytest.raises(LinqError, match="already set to 'snapshot'"):
            q.validtime()

    def test_validtime_needs_temporal_table(self, front):
        with pytest.raises(LinqError, match="temporal table"):
            front.table("Patient", "d").validtime()

    def test_validtime_over_coalesce_rejected(self, front):
        q = front.table("Prescription", "p").coalesce("patient")
        with pytest.raises(LinqError, match="sequenced"):
            q.validtime()

    def test_coalesce_under_validtime_rejected(self, front):
        q = front.table("Prescription", "p").validtime()
        with pytest.raises(LinqError, match="sequenced"):
            q.coalesce("patient")

    def test_bad_snapshot_instant(self, front):
        with pytest.raises(LinqError, match="snapshot at"):
            front.table("Prescription", "p").snapshot(at="not-a-date")

    def test_bad_validtime_period(self, front):
        with pytest.raises(LinqError, match="validtime period"):
            front.table("Prescription", "p").validtime(period="wibble")

    def test_bad_with_now(self, front):
        with pytest.raises(LinqError, match="with_now"):
            front.table("Prescription", "p").query().with_now("soon")

    def test_where_needs_boolean(self, front):
        p = front.table("Prescription", "p")
        with pytest.raises(LinqTypeError, match="boolean"):
            p.where(p.dosage + 1)

    def test_join_alias_collision(self, front):
        p = front.table("Prescription", "p")
        with pytest.raises(LinqError, match="already in FROM"):
            p.join(front.table("Patient", "P"), on=lit(1) == 1)

    def test_bare_column_ambiguous_over_join(self, front):
        p = front.table("Prescription", "p")
        d = front.table("Patient", "d")
        q = p.join(d, on=p.patient == d.name)
        with pytest.raises(LinqError, match="ambiguous"):
            q.select("patient")

    def test_truthiness_of_expressions_rejected(self, front):
        p = front.table("Prescription", "p")
        with pytest.raises(LinqError, match="& \\| ~"):
            bool(p.drug == "Tylenol")

    def test_coalesce_needs_group(self, front):
        with pytest.raises(LinqError, match="grouping column"):
            front.table("Prescription", "p").coalesce()


class TestLocalExecution:
    def test_where_matches_handwritten(self, conn, front):
        p = front.table("Prescription", "p")
        got = p.where(p.drug == "Tylenol").select(p.patient).run()
        want = conn.query(
            "SELECT patient FROM Prescription WHERE drug = 'Tylenol'"
        )
        assert got == want

    def test_snapshot_matches_handwritten(self, conn, front):
        session = TsqlSession(conn)
        p = front.table("Prescription", "p")
        got = p.select(p.drug).snapshot(at="1999-08-10").order_by(p.drug).run()
        want = session.query(
            "SNAPSHOT AT '1999-08-10' SELECT drug FROM Prescription "
            "ORDER BY drug"
        )
        assert got == want == [("Prozac",), ("Tylenol",)]

    def test_validtime_matches_handwritten(self, conn, front):
        session = TsqlSession(conn)
        p = front.table("Prescription", "p")
        got = p.select(p.drug).validtime(period="[1999-08-05, 1999-08-10]").run()
        want = session.query(
            "VALIDTIME PERIOD '1999-08-05, 1999-08-10' "
            "SELECT drug FROM Prescription"
        )
        assert sorted(map(str, got)) == sorted(map(str, want))

    def test_coalesce_runs(self, front):
        rows = front.table("Prescription", "p").coalesce("patient").run()
        by_patient = {patient: element for patient, element in rows}
        assert set(by_patient) == {"Mr.Showbiz", "Ms.Info"}

    def test_params_run(self, front):
        p = front.table("Prescription", "p")
        q = p.where(p.drug == param("drug", "text")).select(p.patient)
        assert q.run(drug="Diabeta") == [("Mr.Showbiz",)]
        assert q.run("Prozac") == [("Ms.Info",)]

    def test_with_now_applies_and_restores(self, conn, front):
        p = front.table("Prescription", "p")
        open_ended = p.where(p.drug == "Diabeta").select(p.drug).snapshot()
        # NOW-relative row [1999-10-01, NOW] is not yet valid at the
        # session NOW (1999-09-01) but is under the override.
        assert open_ended.run() == []
        assert open_ended.with_now("2001-01-01").run() == [("Diabeta",)]
        assert conn.now_override == Chronon.parse("1999-09-01")

    def test_now_restored_after_query_error(self, conn, front):
        p = front.table("Prescription", "p")
        q = p.select(p.drug).with_now("2001-01-01")
        conn.execute("DROP TABLE Prescription")
        with pytest.raises(Exception):
            q.run()
        assert conn.now_override == Chronon.parse("1999-09-01")

    def test_run_on_overrides_connection(self, front):
        other = repro.connect(now="1999-09-01")
        try:
            _load(other)
            other.execute(
                "INSERT INTO Prescription VALUES "
                "('Extra', 'Advil', 1, chronon('1999-05-01'), "
                "element('{[1999-05-01, 1999-06-01]}'))"
            )
            p = front.table("Prescription", "p")
            q = p.select(call("count", p.drug))
            assert q.run() == [(3,)]
            assert q.run(on=other) == [(4,)]
        finally:
            other.close()

    def test_local_path_hits_statement_cache(self, conn, front):
        p = front.table("Prescription", "p")
        q = p.where(p.drug == "Tylenol").select(p.patient)
        obs.enable()
        try:
            CACHE.clear()
            plan_a = compile_normalized(q.sql(), front.valid_columns())
            plan_b = compile_normalized(q.sql(), front.valid_columns())
            assert plan_a is plan_b  # same cached plan object
        finally:
            obs.disable()

    def test_compile_counters_flow_to_obs(self, front):
        obs.enable()
        try:
            p = front.table("Prescription", "p")
            p.where(p.drug == "Tylenol").select(p.patient).sql()
            counters = obs.snapshot()["counters"]
            assert counters.get("linq.compile.count", 0) >= 1
            assert counters.get("linq.compile.chars", 0) > 0
        finally:
            obs.disable()


class TestRemoteExecution:
    def test_run_over_the_wire(self, remote):
        front = remote.linq()
        p = front.table("Prescription", "p")
        got = p.where(p.drug == "Tylenol").select(p.patient).run()
        assert got == [("Ms.Info",)]

    def test_prepare_execute_deallocate(self, remote):
        front = remote.linq()
        p = front.table("Prescription", "p")
        q = p.where(p.drug == param("drug", "text")).select(p.patient)
        with q.prepare() as prepared:
            assert prepared.rows(drug="Diabeta") == [("Mr.Showbiz",)]
            assert prepared.rows(drug="Prozac") == [("Ms.Info",)]

    def test_prepared_bind_is_type_checked(self, remote):
        front = remote.linq()
        p = front.table("Prescription", "p")
        q = p.where(p.dosage >= param("dose", "integer")).select(p.patient)
        with q.prepare() as prepared:
            with pytest.raises(LinqTypeError):
                prepared.rows(dose="two")

    def test_with_now_restores_session_now(self, remote):
        front = remote.linq()
        p = front.table("Prescription", "p")
        q = p.where(p.drug == "Diabeta").select(p.drug).snapshot()
        assert q.run() == []
        assert q.with_now("2001-01-01").run() == [("Diabeta",)]
        assert remote.session_now == "1999-09-01"

    def test_local_prepare_is_rejected(self, front):
        q = front.table("Prescription", "p").query()
        with pytest.raises(LinqError, match="remote connection"):
            q.prepare()

    def test_schema_discovery_over_the_wire(self, remote):
        front = remote.linq()
        assert front.valid_columns() == {"prescription": "valid"}


class TestShellIntegration:
    @pytest.fixture
    def shell(self):
        sh = TipShell()
        sh.execute_line(".now 1999-09-01")
        for ddl in DDL:
            sh.execute_line(ddl)
        for row in ROWS:
            sh.execute_line(
                "INSERT INTO Prescription VALUES "
                f"('{row[0]}', '{row[1]}', {row[2]}, "
                f"chronon('{row[3]}'), element('{row[4]}'))"
            )
        yield sh
        sh.close()

    def test_usage_text(self, shell):
        assert shell.execute_line(".linq").startswith("usage: .linq")

    def test_query_shows_tsql_and_rows(self, shell):
        output = shell.execute_line(
            ".linq t('Prescription', 'p').where("
            "t('Prescription', 'p').col('drug') == 'Tylenol')"
        )
        assert output.startswith("tSQL: SELECT ")
        assert "Ms.Info" in output

    def test_expression_shows_sql_and_type(self, shell):
        assert shell.execute_line(".linq lit(5) + 3") == "(5 + 3)  [number]"

    def test_type_error_is_text(self, shell):
        output = shell.execute_line(
            ".linq t('Prescription', 'p').valid < 5"
        )
        assert "error" in output.lower()

    def test_python_error_is_text(self, shell):
        output = shell.execute_line(".linq nonsense")
        assert output.startswith("error: NameError")
        output = shell.execute_line(".linq lit(")
        assert output.startswith("error: SyntaxError")

    def test_helpers_visible_inside_lambda_bodies(self, shell):
        # Free variables in a lambda resolve against the eval globals,
        # so the helper namespace must be the globals dict, not locals.
        output = shell.execute_line(
            ".linq (lambda p: p.select(call('count', p.patient))"
            ".nonsequenced())(t('Prescription', 'p'))"
        )
        assert output.startswith("tSQL: NONSEQUENCED VALIDTIME SELECT ")
        assert output.splitlines()[3].strip() == str(len(ROWS))

    def test_parameterized_query_refuses_to_run(self, shell):
        output = shell.execute_line(
            ".linq t('Prescription', 'p').where("
            "t('Prescription', 'p').col('drug') == param('d', 'text'))"
        )
        assert "tSQL: " in output
        assert "inline literals" in output
