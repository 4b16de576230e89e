"""Tests for the TSQL2 statement-modifier preprocessor."""

from __future__ import annotations

import pytest

import repro
from repro.core.chronon import Chronon
from repro.core.element import Element
from repro.errors import TranslationError
from repro.tsql import TsqlSession, translate_tsql
from repro.tsql.parser import Column, Comparison, Literal, Raw, parse
from repro.workload import graphs
from tests.conftest import C, E


@pytest.fixture
def session(demo_prescriptions):
    return TsqlSession(demo_prescriptions)


class TestClauseSplitting:
    def test_basic(self):
        select = parse("SELECT a, b FROM t WHERE x = 1 ORDER BY a")
        assert select.body("select") == "a, b"
        assert select.body("from") == "t"
        assert select.body("where") == "x = 1"
        assert select.tail == "ORDER BY a"

    def test_no_where(self):
        select = parse("SELECT a FROM t GROUP BY a")
        assert select.where == () and "where" not in select.clauses
        assert select.group_by == (Column("", "a"),)
        assert select.tail == ""

    def test_keywords_inside_strings_ignored(self):
        select = parse("SELECT a FROM t WHERE name = 'WHERE FROM'")
        assert select.body("where") == "name = 'WHERE FROM'"

    def test_keywords_inside_parens_ignored(self):
        select = parse("SELECT length(group_union(v)) FROM t")
        assert select.body("select") == "length(group_union(v))"

    def test_conjuncts_flatten_but_keep_between_and_case_whole(self):
        select = parse("SELECT a FROM t WHERE ((a = 1) AND (b BETWEEN 1 AND 2)) "
                       "AND CASE WHEN c AND d THEN 1 END")
        assert select.where == (
            Comparison(Column("", "a"), "=", Literal(1)),
            Raw("b BETWEEN 1 AND 2"),
            Raw("CASE WHEN c AND d THEN 1 END"),
        )

    def test_requires_select_and_from(self):
        with pytest.raises(TranslationError):
            parse("DELETE FROM t")
        with pytest.raises(TranslationError):
            parse("SELECT 1")


class TestDiscovery:
    def test_element_columns_discovered(self, session):
        assert session.temporal_tables == {"prescription": "valid"}

    def test_register_override(self, session):
        session.register("Other", "vt")
        assert session.temporal_tables["other"] == "vt"

    def test_discovery_reads_declared_types_not_ddl_text(self):
        """Words in a DEFAULT literal or a comment are not column types."""
        with repro.connect() as conn:
            conn.execute("CREATE TABLE t (note TEXT DEFAULT 'see ELEMENT', valid ELEMENT)")
            conn.execute("CREATE TABLE c (x INTEGER, -- an ELEMENT, the validity\n"
                         "  valid ELEMENT)")
            session = TsqlSession(conn)
            assert session.temporal_tables == {"t": "valid", "c": "valid"}
            assert session.translate("VALIDTIME SELECT note FROM t") == (
                "SELECT note, t.valid AS valid FROM t")


class TestSnapshot:
    def test_snapshot_at_filters_to_the_instant(self, session):
        rows = session.query(
            "SNAPSHOT AT '1999-08-10' SELECT patient, drug FROM Prescription"
        )
        assert sorted(rows) == [("Ms.Info", "Prozac"), ("Ms.Info", "Tylenol")]

    def test_snapshot_defaults_to_now(self, session):
        # Fixture NOW is 1999-09-01; only Prozac's 2nd period is active.
        rows = session.query("SNAPSHOT SELECT patient, drug FROM Prescription")
        assert rows == [("Ms.Info", "Prozac")]

    def test_snapshot_has_no_timestamp_column(self, session):
        sql = session.translate("SNAPSHOT SELECT patient FROM Prescription")
        assert "AS valid" not in sql

    def test_snapshot_preserves_user_where(self, session):
        rows = session.query(
            "SNAPSHOT AT '1999-08-10' SELECT patient FROM Prescription "
            "WHERE drug = 'Tylenol'"
        )
        assert rows == [("Ms.Info",)]

    def test_snapshot_alias(self, session):
        rows = session.query(
            "SNAPSHOT AT '1999-08-10' SELECT p.patient FROM Prescription p "
            "WHERE p.drug = 'Tylenol'"
        )
        assert rows == [("Ms.Info",)]


class TestValidtime:
    def test_single_table_carries_validity(self, session):
        rows = session.query(
            "VALIDTIME SELECT patient FROM Prescription WHERE drug = 'Prozac'"
        )
        assert len(rows) == 1
        patient, valid = rows[0]
        assert patient == "Ms.Info"
        assert isinstance(valid, Element)
        assert str(valid) == "{[1999-01-01, 1999-04-30], [1999-07-01, 1999-10-31]}"

    def test_sequenced_join_intersects_validities(self, session):
        """The paper's self-join, in TSQL2 clothing."""
        rows = session.query(
            "VALIDTIME SELECT p1.patient FROM Prescription p1, Prescription p2 "
            "WHERE p1.drug = 'Tylenol' AND p2.drug = 'Prozac' "
            "AND p1.patient = p2.patient"
        )
        assert len(rows) == 1
        _patient, valid = rows[0]
        # Tylenol [08-01, 08-20] inside Prozac's [07-01, 10-31].
        assert str(valid.ground(C("1999-09-01"))) == "{[1999-08-01, 1999-08-20]}"

    def test_sequenced_join_drops_non_overlapping_pairs(self, session):
        rows = session.query(
            "VALIDTIME SELECT p1.patient FROM Prescription p1, Prescription p2 "
            "WHERE p1.drug = 'Tylenol' AND p2.drug = 'Aspirin'"
        )
        assert rows == []  # Tylenol (Aug) and Aspirin (Nov-Dec) never co-hold

    def test_period_restriction_clips(self, session):
        rows = session.query(
            "VALIDTIME PERIOD '1999-08-05, 1999-08-10' SELECT patient "
            "FROM Prescription WHERE drug = 'Tylenol'"
        )
        assert len(rows) == 1
        assert str(rows[0][1].ground(C("1999-09-01"))) == "{[1999-08-05, 1999-08-10]}"

    def test_period_restriction_filters_disjoint_rows(self, session):
        rows = session.query(
            "VALIDTIME PERIOD '1999-03-01, 1999-03-10' SELECT patient, drug "
            "FROM Prescription"
        )
        assert [(row[0], row[1]) for row in rows] == [("Ms.Info", "Prozac")]

    def test_group_by_rejected(self, session):
        with pytest.raises(TranslationError):
            session.translate(
                "VALIDTIME SELECT patient FROM Prescription GROUP BY patient"
            )

    def test_requires_a_temporal_table(self, session):
        session._connection.execute("CREATE TABLE plain (x INTEGER)")
        with pytest.raises(TranslationError):
            session.translate("VALIDTIME SELECT x FROM plain")

    def test_agrees_with_handwritten_tip_sql(self, session):
        tsql = session.query(
            "VALIDTIME SELECT p1.patient FROM Prescription p1, Prescription p2 "
            "WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin'"
        )
        session._connection.set_now("1999-12-01")
        tsql_later = session.query(
            "VALIDTIME SELECT p1.patient FROM Prescription p1, Prescription p2 "
            "WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin'"
        )
        manual = session._connection.query(
            "SELECT p1.patient, tintersect(p1.valid, p2.valid) "
            "FROM Prescription p1, Prescription p2 "
            "WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin' "
            "AND overlaps(p1.valid, p2.valid)"
        )
        assert tsql == []  # nothing overlaps at NOW=1999-09-01
        assert [(r[0], str(r[1])) for r in tsql_later] == [
            (r[0], str(r[1])) for r in manual
        ]


class TestNonsequencedAndPassthrough:
    def test_nonsequenced_passthrough(self, session):
        rows = session.query(
            "NONSEQUENCED VALIDTIME SELECT patient, valid FROM Prescription "
            "WHERE drug = 'Tylenol'"
        )
        assert len(rows) == 1
        assert isinstance(rows[0][1], Element)

    def test_plain_sql_untouched(self, session):
        sql = "SELECT COUNT(*) FROM Prescription"
        assert session.translate(sql) == sql
        assert session.query(sql) == [(4,)]

    def test_unsupported_from_item(self, session):
        with pytest.raises(TranslationError):
            session.translate(
                "SNAPSHOT SELECT x FROM (SELECT 1 AS x) sub"
            )


class TestTranslateFunction:
    def test_direct_translation_api(self):
        sql = translate_tsql(
            "SNAPSHOT AT '1999-01-01' SELECT a FROM t",
            {"t": "vt"},
        )
        assert sql == (
            "SELECT a FROM t WHERE contains_instant(t.vt, instant('1999-01-01'))"
        )

    @pytest.mark.parametrize("suffix", [" ", "\n", " ;", ";  ", "\t;\n"])
    def test_trailing_whitespace_and_semicolons_ignored(self, suffix):
        statement = "VALIDTIME SELECT a FROM t WHERE b = 1"
        assert translate_tsql(statement + suffix, {"t": "vt"}) == translate_tsql(
            statement, {"t": "vt"})

    def test_validtime_two_tables_translation(self):
        sql = translate_tsql(
            "VALIDTIME SELECT a.x FROM t a, t b WHERE a.k = b.k",
            {"t": "vt"},
        )
        assert "tintersect(a.vt, b.vt) AS valid" in sql
        assert "overlaps(a.vt, b.vt)" in sql
        assert "(a.k = b.k) AND" in sql


class TestParenthesizedFromLists:
    """The FROM-list grammar the linq compiler emits: items may be
    grouped in parentheses, arbitrarily nested."""

    def test_parenthesized_group_translates_like_flat_list(self):
        flat = translate_tsql(
            "VALIDTIME SELECT a.x FROM t a, t b WHERE a.k = b.k",
            {"t": "vt"},
        )
        grouped = translate_tsql(
            "VALIDTIME SELECT a.x FROM (t a, t b) WHERE a.k = b.k",
            {"t": "vt"},
        )
        assert grouped == flat.replace("FROM t a, t b", "FROM (t a, t b)")

    def test_nested_groups_flatten(self):
        sql = translate_tsql(
            "SNAPSHOT SELECT a.x FROM ((t AS a), (t AS b, t AS c))",
            {"t": "vt"},
        )
        for alias in ("a", "b", "c"):
            assert f"contains_instant({alias}.vt, instant('NOW'))" in sql

    def test_grouped_items_execute(self, session):
        rows = session.query(
            "SNAPSHOT SELECT p.drug FROM (Prescription AS p) "
            "WHERE p.patient = 'Ms.Info' ORDER BY p.drug"
        )
        assert rows == [("Prozac",)]  # Tylenol's validity ended before NOW


class TestTranslationErrorMetadata:
    """TranslationError carries the offending clause text and its
    character offset into the original statement."""

    def test_bad_from_item_reports_clause_and_offset(self):
        statement = "SNAPSHOT SELECT x FROM t a, 1bad"
        with pytest.raises(TranslationError) as info:
            translate_tsql(statement, {"t": "vt"})
        assert info.value.clause == "1bad"
        assert info.value.offset == statement.index("1bad")
        assert statement[info.value.offset:].startswith(info.value.clause)

    def test_offset_points_inside_parenthesized_group(self):
        statement = "SNAPSHOT SELECT x FROM (t a, se-lect) WHERE x = 1"
        with pytest.raises(TranslationError) as info:
            translate_tsql(statement, {"t": "vt"})
        assert info.value.clause == "se-lect"
        assert statement[info.value.offset:].startswith("se-lect")

    def test_validtime_group_by_reports_tail_clause(self):
        with pytest.raises(TranslationError) as info:
            translate_tsql(
                "VALIDTIME SELECT a FROM t GROUP BY a",
                {"t": "vt"},
            )
        assert info.value.clause is not None
        assert "GROUP BY" in info.value.clause

    def test_validtime_without_temporal_table_reports_from_list(self):
        with pytest.raises(TranslationError) as info:
            translate_tsql("VALIDTIME SELECT a FROM plain", {"t": "vt"})
        assert info.value.clause == "plain"

    def test_untokenizable_input_reports_its_offset(self):
        statement = "VALIDTIME SELECT a FROM t WHERE b = 'unterminated"
        with pytest.raises(TranslationError) as info:
            translate_tsql(statement, {"t": "vt"})
        assert info.value.offset == statement.index("'")
        assert info.value.clause == "'unterminated"

    def test_metadata_defaults_to_none(self):
        error = TranslationError("boom")
        assert error.clause is None
        assert error.offset is None


#: Validity registry for the golden corpus below.
_GOLDEN_VALID = {"prescription": "valid", "edges": "valid", "t": "vt"}

#: (tSQL, exact translated SQL): the graph workload queries, the
#: analytics and serving statements with fixed literals, the paper's
#: queries, and every modifier / FROM-list spelling the translator
#: accepts.  Pinned byte for byte: statement-cache keys, prepared
#: handles and EXPLAIN output all depend on the exact text.
GOLDEN_TRANSLATIONS = [
    (graphs.path_query(),
     'SELECT e1.src, e1.dst, e2.dst, tintersect(e1.valid, e2.valid) AS valid FROM edges '
     'AS e1, edges AS e2 WHERE (e1.dst = e2.src) AND overlaps(e1.valid, e2.valid)'),
    (graphs.windowed_path_query("1997-01-01, 1997-06-30"),
     'SELECT e1.src, e1.dst, e2.dst, restrict(tintersect(e1.valid, e2.valid), '
     "period('[1997-01-01, 1997-06-30]')) AS valid FROM edges AS e1, edges AS e2 WHERE "
     '(e1.dst = e2.src) AND overlaps(e1.valid, e2.valid) AND overlaps(e1.valid, '
     "to_element(period('[1997-01-01, 1997-06-30]'))) AND overlaps(e2.valid, "
     "to_element(period('[1997-01-01, 1997-06-30]')))"),
    (graphs.coalesce_query(),
     'SELECT src, length_seconds(group_union(valid)) AS uptime FROM edges GROUP BY src'),
    ('VALIDTIME SELECT p1.patient, p1.drug, p2.drug FROM Prescription AS p1, '
     "Prescription AS p2 WHERE p1.patient = p2.patient AND p1.drug = 'Tylenol' AND "
     "p2.drug = 'Prozac'",
     'SELECT p1.patient, p1.drug, p2.drug, tintersect(p1.valid, p2.valid) AS valid FROM '
     'Prescription AS p1, Prescription AS p2 WHERE (p1.patient = p2.patient AND p1.drug '
     "= 'Tylenol' AND p2.drug = 'Prozac') AND overlaps(p1.valid, p2.valid)"),
    (graphs.windowed_path_query("1996-03-04, 1996-06-02"),
     'SELECT e1.src, e1.dst, e2.dst, restrict(tintersect(e1.valid, e2.valid), '
     "period('[1996-03-04, 1996-06-02]')) AS valid FROM edges AS e1, edges AS e2 WHERE "
     '(e1.dst = e2.src) AND overlaps(e1.valid, e2.valid) AND overlaps(e1.valid, '
     "to_element(period('[1996-03-04, 1996-06-02]'))) AND overlaps(e2.valid, "
     "to_element(period('[1996-03-04, 1996-06-02]')))"),
    ('SELECT patient, length_seconds(group_union(valid)) AS covered FROM Prescription '
     "WHERE patient <> 'Ms.Info' GROUP BY patient",
     'SELECT patient, length_seconds(group_union(valid)) AS covered FROM Prescription '
     "WHERE patient <> 'Ms.Info' GROUP BY patient"),
    ("SELECT patient, drug FROM Prescription WHERE drug = 'Tylenol' AND CASE WHEN "
     "is_empty(valid) THEN 0 ELSE tlt(tsub(start(valid), patientdob), tmul(span('7'), "
     '812)) END',
     "SELECT patient, drug FROM Prescription WHERE drug = 'Tylenol' AND CASE WHEN "
     "is_empty(valid) THEN 0 ELSE tlt(tsub(start(valid), patientdob), tmul(span('7'), "
     '812)) END'),
    ('SNAPSHOT SELECT drug, dosage, frequency FROM Prescription WHERE patient = ?',
     'SELECT drug, dosage, frequency FROM Prescription WHERE (patient = ?) AND '
     "contains_instant(Prescription.valid, instant('NOW'))"),
    ('SELECT drug, dosage, valid FROM Prescription WHERE patient = ? AND '
     'overlaps(valid, ?)',
     'SELECT drug, dosage, valid FROM Prescription WHERE patient = ? AND '
     'overlaps(valid, ?)'),
    ('VALIDTIME SELECT e1.src, e1.dst, e2.dst FROM edges AS e1, edges AS e2 WHERE '
     'e1.dst = e2.src AND e1.src = ?',
     'SELECT e1.src, e1.dst, e2.dst, tintersect(e1.valid, e2.valid) AS valid FROM edges '
     'AS e1, edges AS e2 WHERE (e1.dst = e2.src AND e1.src = ?) AND overlaps(e1.valid, '
     'e2.valid)'),
    ('INSERT INTO Prescription VALUES (?, ?, ?, ?, ?, ?, ?)',
     'INSERT INTO Prescription VALUES (?, ?, ?, ?, ?, ?, ?)'),
    ("SELECT patient FROM Prescription WHERE drug = 'Tylenol' AND "
     "tlt(tsub(start(valid), patientdob), tmul(span('7'), ?))",
     "SELECT patient FROM Prescription WHERE drug = 'Tylenol' AND "
     "tlt(tsub(start(valid), patientdob), tmul(span('7'), ?))"),
    ('SELECT p1.patient, p2.patient, tintersect(p1.valid, p2.valid) FROM Prescription '
     "p1, Prescription p2 WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin' AND "
     'overlaps(p1.valid, p2.valid)',
     'SELECT p1.patient, p2.patient, tintersect(p1.valid, p2.valid) FROM Prescription '
     "p1, Prescription p2 WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin' AND "
     'overlaps(p1.valid, p2.valid)'),
    ('SELECT patient, length_seconds(group_union(valid)) FROM Prescription GROUP BY '
     'patient',
     'SELECT patient, length_seconds(group_union(valid)) FROM Prescription GROUP BY '
     'patient'),
    ('SELECT patient, SUM(length_seconds(valid)) FROM Prescription GROUP BY patient',
     'SELECT patient, SUM(length_seconds(valid)) FROM Prescription GROUP BY patient'),
    ("SELECT length_seconds(ground(valid)) FROM Prescription WHERE drug = 'Diabeta'",
     "SELECT length_seconds(ground(valid)) FROM Prescription WHERE drug = 'Diabeta'"),
    ("SNAPSHOT AT '1999-08-10' SELECT patient, drug FROM Prescription",
     'SELECT patient, drug FROM Prescription WHERE contains_instant(Prescription.valid, '
     "instant('1999-08-10'))"),
    ("SNAPSHOT SELECT p.patient FROM Prescription p WHERE p.drug = 'Tylenol'",
     "SELECT p.patient FROM Prescription p WHERE (p.drug = 'Tylenol') AND "
     "contains_instant(p.valid, instant('NOW'))"),
    ("SNAPSHOT AT '1999-08-10' SELECT patient FROM Prescription WHERE drug = 'WHERE "
     "FROM'",
     "SELECT patient FROM Prescription WHERE (drug = 'WHERE FROM') AND "
     "contains_instant(Prescription.valid, instant('1999-08-10'))"),
    ('SNAPSHOT SELECT patient, COUNT(*) FROM Prescription GROUP BY patient HAVING '
     'COUNT(*) > 1 ORDER BY patient',
     'SELECT patient, COUNT(*) FROM Prescription WHERE '
     "contains_instant(Prescription.valid, instant('NOW')) GROUP BY patient HAVING "
     'COUNT(*) > 1 ORDER BY patient'),
    ("VALIDTIME PERIOD '1999-08-05, 1999-08-10' SELECT patient FROM Prescription WHERE "
     "drug = 'Tylenol'",
     "SELECT patient, restrict(Prescription.valid, period('[1999-08-05, 1999-08-10]')) "
     "AS valid FROM Prescription WHERE (drug = 'Tylenol') AND "
     "overlaps(Prescription.valid, to_element(period('[1999-08-05, 1999-08-10]')))"),
    ("VALIDTIME PERIOD '1997-01-01, NOW' SELECT a.x FROM t a, t b",
     "SELECT a.x, restrict(tintersect(a.vt, b.vt), period('[1997-01-01, NOW]')) AS "
     'valid FROM t a, t b WHERE overlaps(a.vt, b.vt) AND overlaps(a.vt, '
     "to_element(period('[1997-01-01, NOW]'))) AND overlaps(b.vt, "
     "to_element(period('[1997-01-01, NOW]')))"),
    ('VALIDTIME SELECT a.x FROM (t a, t b) WHERE a.k = b.k',
     'SELECT a.x, tintersect(a.vt, b.vt) AS valid FROM (t a, t b) WHERE (a.k = b.k) AND '
     'overlaps(a.vt, b.vt)'),
    ('SNAPSHOT SELECT a.x FROM ((t AS a), (t AS b, t AS c))',
     'SELECT a.x FROM ((t AS a), (t AS b, t AS c)) WHERE contains_instant(a.vt, '
     "instant('NOW')) AND contains_instant(b.vt, instant('NOW')) AND "
     "contains_instant(c.vt, instant('NOW'))"),
    ("SNAPSHOT SELECT p.drug FROM (Prescription AS p) WHERE p.patient = 'Ms.Info' ORDER "
     'BY p.drug',
     "SELECT p.drug FROM (Prescription AS p) WHERE (p.patient = 'Ms.Info') AND "
     "contains_instant(p.valid, instant('NOW')) ORDER BY p.drug"),
    ('VALIDTIME SELECT a.x FROM t a, t b, t c WHERE a.k = b.k AND b.k = c.k',
     'SELECT a.x, tintersect(tintersect(a.vt, b.vt), c.vt) AS valid FROM t a, t b, t c '
     'WHERE (a.k = b.k AND b.k = c.k) AND overlaps(a.vt, b.vt) AND overlaps(a.vt, c.vt) '
     'AND overlaps(b.vt, c.vt)'),
    ('VALIDTIME SELECT p.patient, q.n FROM Prescription p, plain q WHERE p.patient = '
     'q.name',
     'SELECT p.patient, q.n, p.valid AS valid FROM Prescription p, plain q WHERE '
     'p.patient = q.name'),
    ('VALIDTIME SELECT DISTINCT patient FROM Prescription ORDER BY patient LIMIT 3',
     'SELECT DISTINCT patient, Prescription.valid AS valid FROM Prescription ORDER BY '
     'patient LIMIT 3'),
    ('NONSEQUENCED VALIDTIME SELECT patient, valid FROM Prescription WHERE drug = '
     "'Tylenol';",
     "SELECT patient, valid FROM Prescription WHERE drug = 'Tylenol';"),
    ("validtime   select patient from Prescription where drug = 'x'  ;",
     "SELECT patient, Prescription.valid AS valid FROM Prescription WHERE drug = 'x'"),
    ('VALIDTIME\nSELECT a.x\nFROM t a,\n  t b\nWHERE a.k = b.k\nORDER BY a.x',
     'SELECT a.x, tintersect(a.vt, b.vt) AS valid FROM t a,\n  t b WHERE (a.k = b.k) '
     'AND overlaps(a.vt, b.vt) ORDER BY a.x'),
    ("SNAPSHOT SELECT f(a.x, ',') FROM t AS a WHERE a.y = '(' OR a.z = ')' LIMIT 5",
     "SELECT f(a.x, ',') FROM t AS a WHERE (a.y = '(' OR a.z = ')') AND "
     "contains_instant(a.vt, instant('NOW')) LIMIT 5"),
    ('SELECT COUNT(*) FROM Prescription  ',
     'SELECT COUNT(*) FROM Prescription'),
]


class TestGoldenTranslations:
    @pytest.mark.parametrize("statement, expected", GOLDEN_TRANSLATIONS)
    def test_translation_is_byte_identical(self, statement, expected):
        assert translate_tsql(statement, _GOLDEN_VALID) == expected
