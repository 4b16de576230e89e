"""EXPLAIN TEMPORAL: the blade-vs-layered per-query cost report."""

from __future__ import annotations

import json

import pytest

import repro
from repro import obs
from repro.cli import TipShell, explain_main
from repro.core.element import Element
from repro.core.parser import parse_chronon
from repro.core.period import Period
from repro.tsql.explain import explain_temporal
from repro.tsql.preprocessor import strip_explain


def element(lo: str, hi: str) -> Element:
    return Element([Period(parse_chronon(lo), parse_chronon(hi))])


@pytest.fixture
def connection():
    conn = repro.connect(now="2000-01-01")
    conn.execute("CREATE TABLE rx (patient TEXT, drug TEXT, valid ELEMENT)")
    conn.executemany("INSERT INTO rx VALUES (?, ?, ?)", [
        ("melanie", "proventil", element("1996-01-01", "1996-06-01")),
        ("melanie", "proventil", element("1996-03-01", "1996-09-01")),
        ("ben", "aspirin", element("1995-01-01", "1997-01-01")),
    ])
    with obs.capture():
        yield conn
    conn.close()


class TestStripExplain:
    def test_recognizes_the_prefix_case_insensitively(self):
        assert strip_explain("explain temporal SELECT 1") == "SELECT 1"
        assert strip_explain("  EXPLAIN   TEMPORAL  SELECT 1 ") == "SELECT 1"

    def test_plain_statements_pass(self):
        assert strip_explain("SELECT 1") is None
        assert strip_explain("EXPLAIN QUERY PLAN SELECT 1") is None


class TestExplainTemporal:
    def test_total_length_statement_compares_both_engines(self, connection):
        report = explain_temporal(
            connection,
            "EXPLAIN TEMPORAL SELECT patient, length(group_union(valid)) "
            "FROM rx GROUP BY patient",
        )
        blade, layered = report.blade, report.layered
        assert blade.profile is not None and layered.profile is not None
        # Same answer cardinality from both architectures.
        assert blade.profile.rows == layered.profile.rows == 2
        assert "total_length" in layered.operation
        # The paper's complexity finding: the translated SQL is an
        # order of magnitude larger and structurally deeper.
        assert layered.complexity["chars"] > 5 * blade.complexity["chars"]
        assert layered.complexity["not_exists"] >= 2
        assert blade.complexity["not_exists"] == 0
        # The blade side names its aggregate; the layered side its op.
        assert "blade.aggregate.group_union" in blade.profile.routines
        assert "layered.op.total_length" in layered.profile.routines

    def test_snapshot_statement_maps_to_layered_snapshot(self, connection):
        report = explain_temporal(
            connection, "SNAPSHOT AT '1996-04-01' SELECT patient, drug FROM rx"
        )
        assert "contains_instant" in report.translated
        assert "snapshot" in report.layered.operation
        assert report.blade.profile.rows == report.layered.profile.rows == 3

    def test_overlap_join_statement(self, connection):
        report = explain_temporal(
            connection,
            "SELECT p1.patient, p2.patient FROM rx p1, rx p2 "
            "WHERE overlaps(p1.valid, p2.valid)",
        )
        assert "overlap_join" in report.layered.operation
        assert report.layered.profile is not None

    def test_timeslice_statement(self, connection):
        report = explain_temporal(
            connection,
            "SELECT patient, restrict(valid, period('[1996-01-01, 1996-12-31]')) "
            "FROM rx",
        )
        assert "timeslice" in report.layered.operation

    def test_call_names_inside_literals_are_not_operations(self, connection):
        report = explain_temporal(
            connection,
            "SELECT patient, COUNT(*) FROM rx WHERE drug <> 'group_union(x)' "
            "GROUP BY patient",
        )
        assert report.layered.operation == ""
        assert report.layered.profile is None
        assert "no layered equivalent" in report.layered.note

    def test_untranslatable_shape_reports_static_complexity_only(self, connection):
        report = explain_temporal(connection, "SELECT patient FROM rx")
        assert report.layered.profile is None
        assert "no layered equivalent" in report.layered.note
        assert report.layered.complexity["chars"] > 0
        assert report.blade.profile is not None  # blade side still ran

    def test_non_temporal_table_skips_the_layered_side(self, connection):
        connection.execute("CREATE TABLE plain (n INTEGER)")
        report = explain_temporal(connection, "SELECT n FROM plain")
        assert "no temporal tables" in report.layered.note
        assert report.blade.profile is not None

    def test_render_is_a_side_by_side_report(self, connection):
        text = explain_temporal(
            connection,
            "SELECT patient, length(group_union(valid)) FROM rx GROUP BY patient",
        ).render()
        assert "blade (integrated)" in text
        assert "layered (TimeDB-style)" in text
        assert "wall time" in text and "sql not_exists" in text
        assert "layered SQL:" in text
        assert "query plan:" in text

    def test_executed_line_names_the_fused_statement(self, connection):
        """A statement whose nested routine calls fuse reports the SQL
        SQLite ran, and its routine breakdown names tip_eval beside the
        routines of the tree; one that does not fuse has no executed
        line."""
        report = explain_temporal(
            connection, "SELECT patient, tip_text(start(valid)) FROM rx")
        assert report.executed == (
            "SELECT patient, tip_eval('tip_text(start(?))', valid) "
            "AS \"tip_text(start(valid))\" FROM rx")
        assert report.render().splitlines()[1] == f"executed: {report.executed}"
        routines = report.blade.profile.routines
        assert {"blade.routine.tip_eval", "blade.routine.start",
                "blade.routine.tip_text"} <= set(routines)
        assert json.loads(json.dumps(report.as_dict()))["executed"] == report.executed
        plain = explain_temporal(connection, "SELECT patient, start(valid) FROM rx")
        assert plain.executed == ""
        assert "executed:" not in plain.render()

    def test_as_dict_is_json_framable(self, connection):
        report = explain_temporal(connection, "SELECT patient FROM rx")
        clone = json.loads(json.dumps(report.as_dict()))
        assert clone["blade"]["profile"]["rows"] == 3

    def test_profiler_and_metrics_switches_are_restored(self, connection):
        from repro.obs import profile

        assert not profile.state.enabled
        metrics_before = obs.is_enabled()
        explain_temporal(connection, "SELECT patient FROM rx")
        assert not profile.state.enabled and profile.state.forced == 0
        assert obs.is_enabled() == metrics_before

    def test_metrics_switch_restored_when_it_was_off(self, connection):
        obs.disable()
        explain_temporal(connection, "SELECT patient FROM rx")
        assert not obs.is_enabled()


class TestShellAndCli:
    def test_shell_routes_explain_temporal_input(self):
        shell = TipShell()
        try:
            shell.execute_line(".demo 10")
            with obs.capture():
                out = shell.execute_line(
                    "EXPLAIN TEMPORAL SNAPSHOT SELECT patient, drug FROM Prescription"
                )
        finally:
            shell.close()
        assert "blade (integrated)" in out and "layered (TimeDB-style)" in out

    def test_shell_dot_explain_command(self):
        shell = TipShell()
        try:
            shell.execute_line(".demo 10")
            with obs.capture():
                out = shell.execute_line(".explain SELECT patient FROM Prescription")
            usage = shell.execute_line(".explain")
        finally:
            shell.close()
        assert "blade (integrated)" in out
        assert "usage" in usage

    def test_explain_main_demo_database(self, capsys):
        with obs.capture():
            code = explain_main([
                "--demo", "10",
                "SELECT patient, length(group_union(valid)) "
                "FROM Prescription GROUP BY patient",
            ])
        out = capsys.readouterr().out
        assert code == 0
        assert "blade (integrated)" in out and "total_length" in out

    def test_explain_main_json_output(self, capsys):
        with obs.capture():
            code = explain_main(["--demo", "5", "--json", "SELECT patient FROM Prescription"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["blade"]["profile"]["ok"] is True

    def test_explain_main_bad_sql_is_an_error(self, capsys):
        with obs.capture():
            code = explain_main(["--demo", "5", "SELECT * FROM missing_table"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_explain_main_usage_errors(self, capsys):
        assert explain_main([]) == 2
        assert explain_main(["--demo"]) == 2
        assert explain_main(["--demo", "x", "SELECT 1"]) == 2
        assert explain_main(["--nope", "SELECT 1"]) == 2
        assert explain_main(["a", "b"]) == 2
