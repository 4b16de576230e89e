"""The per-statement query profiler: cost records, traces, slow log."""

from __future__ import annotations

import json
import os
import sys

import pytest

import repro
from repro import obs
from repro.obs import flight, profile
from repro.obs.export import render_profile, render_prometheus
from repro.obs.profile import QueryProfile
from repro.server import RemoteTipConnection, TipServer


@pytest.fixture
def captured():
    """Hermetic obs state (registry, flight ring, profiler switch)."""
    with obs.capture() as registry:
        yield registry


@pytest.fixture
def connection():
    conn = repro.connect(now="1999-09-01")
    conn.execute("CREATE TABLE t (k INTEGER, v ELEMENT)")
    conn.execute("INSERT INTO t VALUES (1, element('{[1999-01-01, NOW]}'))")
    yield conn
    conn.close()


class TestInertWhenDisabled:
    def test_execute_never_enters_the_profile_module(self, captured, connection):
        """Disabled, ``execute()`` pays two attribute loads and no call.

        Proven by tracing every Python function call during execute and
        fetch and asserting nothing defined in ``obs/profile.py`` ran.
        """
        profile_file = profile.__file__
        entered = []

        def tracer(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == profile_file:
                entered.append(frame.f_code.co_qualname)
            return None

        assert not profile.state.enabled and not profile.state.forced
        # Restore the prior tracer (coverage's, under CI) rather than
        # clearing it, so measurement survives this test.
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            cursor = connection.execute("SELECT tip_text(tunion(v, v)) FROM t")
            rows = cursor.fetchall()
        finally:
            sys.settrace(previous)
        assert rows and entered == []
        assert cursor.profile is None

    def test_positive_control_enabled_profiler_is_traced(self, captured, connection):
        """The same tracer *does* fire when the profiler is on — so the
        zero-call assertion above is not vacuous."""
        profile_file = profile.__file__
        entered = []

        def tracer(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == profile_file:
                entered.append(frame.f_code.co_qualname)
            return None

        profile.enable()
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            connection.execute("SELECT k FROM t").fetchall()
        finally:
            sys.settrace(previous)
        assert entered


class TestQueryProfile:
    def test_execute_collects_breakdown_and_fetch_accounting(
        self, captured, connection
    ):
        profile.enable()
        cursor = connection.execute("SELECT tip_text(tunion(v, v)) FROM t")
        rows = cursor.fetchall()
        prof = cursor.profile
        assert rows and prof is not None
        assert prof.wall_seconds > 0
        assert prof.fetch_seconds > 0
        assert prof.rows == 1
        assert prof.ok and prof.error is None
        assert prof.statement_now == "1999-09-01"
        assert "blade.routine.tunion" in prof.routines
        assert prof.routines["blade.routine.tunion"]["calls"] == 1
        assert prof.periods_processed > 0
        assert prof.trace_id and prof.span_id

    def test_error_statement_is_profiled_and_reraised(self, captured, connection):
        profile.enable()
        with pytest.raises(Exception):
            connection.execute("SELECT * FROM no_such_table")
        (prof,) = profile.recent_profiles(last=1)
        assert not prof.ok and "no_such_table" in (prof.error or "")

    def test_forced_profiles_one_statement_without_the_switch(
        self, captured, connection
    ):
        assert not profile.state.enabled
        with profile.forced():
            cursor = connection.execute("SELECT k FROM t")
            cursor.fetchall()
        assert cursor.profile is not None
        # Outside the block the profiler is inert again.
        other = connection.execute("SELECT k FROM t")
        assert other.profile is None

    def test_unprofiled_statement_leaves_the_earlier_profile_alone(
        self, captured, connection
    ):
        """A reused cursor: the unprofiled statement's fetches must not
        be charged to the profile of the profiled one before it."""
        connection.execute("INSERT INTO t VALUES (2, NULL)")
        for k in range(3, 6):
            connection.execute(f"INSERT INTO t VALUES ({k}, NULL)")
        cursor = connection.cursor()
        with profile.forced():
            cursor.execute("SELECT k FROM t WHERE k <= 2")
            assert len(cursor.fetchall()) == 2
        first = cursor.profile
        cursor.execute("SELECT k FROM t")
        assert len(cursor.fetchall()) == 5
        assert first.rows == 2
        assert cursor.profile is None

    def test_last_profile_exposed_on_the_connection(self, captured, connection):
        profile.enable()
        connection.execute("SELECT k FROM t").fetchall()
        assert connection.last_profile is not None
        assert connection.last_profile.sql == "SELECT k FROM t"

    @pytest.mark.parametrize("path", ["execute", "execute_fetchall"])
    def test_routine_calls_of_every_fetched_row_are_counted(
        self, captured, connection, path
    ):
        """SQLite evaluates every row after the first while fetching;
        the profile's deltas must include those rows' routine calls."""
        for k in (2, 3):
            connection.execute(
                f"INSERT INTO t VALUES ({k}, element('{{[1999-01-01, NOW]}}'))")
        sql = "SELECT k, tip_text(start(v)) FROM t"
        with profile.forced():
            if path == "execute":
                cursor = connection.execute(sql)
                rows = cursor.fetchall()
            else:
                cursor = connection.cursor()
                rows = cursor.execute_fetchall(sql)
        assert len(rows) == cursor.profile.rows == 3
        calls = {name: entry["calls"]
                 for name, entry in cursor.profile.routines.items()}
        assert calls == {"blade.routine.tip_eval": 3,
                         "blade.routine.start": 3,
                         "blade.routine.tip_text": 3}

    def test_wire_round_trip_preserves_fields(self):
        prof = QueryProfile(
            sql="SELECT 1", engine="blade", side="server",
            trace_id="a" * 32, span_id="b" * 16, parent_span_id="c" * 16,
            wall_seconds=0.25, rows=3,
            routines={"blade.routine.tunion": {"calls": 1, "seconds": 0.1}},
        )
        clone = QueryProfile.from_dict(json.loads(json.dumps(prof.as_dict())))
        assert clone == prof

    def test_from_dict_ignores_unknown_keys(self):
        clone = QueryProfile.from_dict({"sql": "SELECT 1", "future_field": 7})
        assert clone.sql == "SELECT 1"


class TestSlowQueryLog:
    def test_threshold_zero_captures_everything_with_breakdown(
        self, captured, connection
    ):
        profile.enable(slow_threshold=0.0)
        connection.execute("SELECT tip_text(tunion(v, v)) FROM t").fetchall()
        entries = profile.slow_log()
        assert len(entries) == 1
        assert "blade.routine.tunion" in entries[0].routines

    def test_threshold_none_disables_capture(self, captured, connection):
        profile.enable()  # no threshold
        connection.execute("SELECT k FROM t").fetchall()
        assert profile.slow_log() == []
        assert len(profile.recent_profiles()) == 1

    def test_high_threshold_filters_fast_statements(self, captured, connection):
        profile.enable(slow_threshold=60.0)
        connection.execute("SELECT k FROM t").fetchall()
        assert profile.slow_log() == []

    def test_jsonl_sink_mirrors_entries(self, captured, connection, tmp_path):
        sink = tmp_path / "slow.jsonl"
        profile.enable(slow_threshold=0.0, sink=str(sink))
        connection.execute("SELECT k FROM t").fetchall()
        connection.execute("SELECT k FROM t").fetchall()
        lines = sink.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["sql"] == "SELECT k FROM t"

    def test_broken_sink_never_fails_the_statement(self, captured, connection):
        profile.enable(slow_threshold=0.0, sink=os.path.join("no", "such", "dir", "x"))
        rows = connection.execute("SELECT k FROM t").fetchall()
        assert rows and len(profile.slow_log()) == 1

    def test_ring_is_bounded(self, captured, connection):
        """The slow log keeps what the flight ring keeps."""
        profile.enable(slow_threshold=0.0)
        flight.configure(capacity=3)
        for i in range(5):
            connection.execute(f"SELECT k FROM t WHERE k < {i}").fetchall()
        assert [p.sql for p in profile.slow_log()] == [
            f"SELECT k FROM t WHERE k < {i}" for i in (2, 3, 4)
        ]
        assert [p.sql for p in profile.slow_log(last=1)] == [
            "SELECT k FROM t WHERE k < 4"
        ]

    def test_profiles_are_stmt_profile_events(self, captured, connection):
        profile.enable()
        cursor = connection.execute("SELECT k FROM t")
        (event,) = flight.events(kind="stmt.profile")
        assert event.trace_id == cursor.profile.trace_id
        assert event.data["sql"] == "SELECT k FROM t"
        assert profile.recent_profiles() == [cursor.profile]

    def test_forced_profile_with_the_ring_off_is_not_stored(
        self, captured, connection
    ):
        assert not flight.state.enabled
        with profile.forced():
            cursor = connection.execute("SELECT k FROM t")
        assert cursor.profile is not None
        assert profile.recent_profiles() == [] and len(flight.get_recorder()) == 0


@pytest.fixture
def served(captured):
    with TipServer(":memory:") as server:
        host, port = server.address
        with RemoteTipConnection(host, port) as conn:
            conn.execute("CREATE TABLE t (k INTEGER, v ELEMENT)")
            conn.execute("INSERT INTO t VALUES (1, element('{[1999-01-01, NOW]}'))")
        yield host, port


class TestTracePropagation:
    def test_client_and_server_spans_share_one_trace(self, served):
        host, port = served
        profile.enable()
        with RemoteTipConnection(host, port) as conn:
            result = conn.execute("SELECT tip_text(tunion(v, v)) FROM t")
        client_prof, server_prof = result.client_profile, result.profile
        assert client_prof is not None and server_prof is not None
        # One trace across the wire: same trace_id, and the server span
        # is a child of the client span.
        assert client_prof.trace_id == server_prof.trace_id
        assert server_prof.parent_span_id == client_prof.span_id
        assert client_prof.side == "client" and server_prof.side == "server"
        # Both profiles landed in the shared flight ring, one trace.
        events = flight.events(kind="stmt.profile", trace_id=client_prof.trace_id)
        sides = sorted(event.data["side"] for event in events)
        assert sides == ["client", "server"]

    def test_server_profile_carries_the_routine_breakdown(self, served):
        host, port = served
        profile.enable()
        with RemoteTipConnection(host, port) as conn:
            result = conn.execute("SELECT tip_text(tunion(v, v)) FROM t")
        assert "blade.routine.tunion" in result.profile.routines
        assert result.profile.engine == "blade"
        assert result.client_profile.engine == "remote"

    def test_unprofiled_statement_carries_no_profile(self, served):
        host, port = served
        with RemoteTipConnection(host, port) as conn:
            result = conn.execute("SELECT k FROM t")
        assert result.profile is None and result.client_profile is None

    def test_profile_frame_returns_recent_profiles(self, served):
        host, port = served
        profile.enable(slow_threshold=0.0)
        with RemoteTipConnection(host, port) as conn:
            conn.query("SELECT k FROM t")
            data = conn.profiles()
            slow = conn.profiles(slow=True)
        assert data["enabled"]
        assert any(p["sql"] == "SELECT k FROM t" for p in data["profiles"])
        # The in-process test server shares the profiler rings with the
        # client side, so both spans of the statement are in the log;
        # the server-side one must be among them.
        assert any(p["side"] == "server" for p in slow["profiles"])

    def test_server_side_one_shot_profiling_flag(self, served):
        """``profile: true`` on the frame forces a one-shot server
        profile even though the server profiler switch is off."""
        host, port = served
        assert not profile.state.enabled
        with RemoteTipConnection(host, port) as conn:
            frame = {"op": "execute", "sql": "SELECT k FROM t", "params": [],
                     "profile": True,
                     "trace": {"trace_id": "f" * 32, "span_id": "e" * 16}}
            response = conn._round_trip(frame)
        assert response["profile"]["trace_id"] == "f" * 32
        assert response["trace"]["parent_span_id"] == "e" * 16


class TestRendering:
    def test_render_profile_lists_routines_by_cost(self):
        prof = QueryProfile(
            sql="SELECT 1", trace_id="t" * 32, span_id="s" * 16,
            wall_seconds=0.5, rows=2,
            routines={
                "blade.routine.cheap": {"calls": 1, "seconds": 0.01},
                "blade.routine.dear": {"calls": 2, "seconds": 0.4},
            },
        )
        text = render_profile(prof.as_dict())
        assert "SELECT 1" in text
        assert text.index("dear") < text.index("cheap")

    def test_render_prometheus_exposition_shape(self, captured, connection):
        profile.enable()
        connection.execute("SELECT tip_text(tunion(v, v)) FROM t").fetchall()
        text = render_prometheus(obs.snapshot())
        assert "# TYPE tip_blade_routine_tunion_calls_total counter" in text
        assert 'tip_blade_routine_tunion_seconds_bucket{le="+Inf"}' in text
        assert "tip_blade_routine_tunion_seconds_count 1" in text
        assert "tip_uptime_seconds" in text

    def test_snapshot_has_uptime_and_session_ledger(self, captured):
        snap = obs.snapshot()
        assert snap["uptime_seconds"] >= 0
        assert snap["ts_monotonic"] > 0
        assert snap["sessions"] == {"opened": 0, "closed": 0, "active": 0}
        assert snap["faults"] == {"armed": False}
