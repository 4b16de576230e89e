"""The flight recorder: ring mechanics, inertness, server events, chaos.

Five properties the tentpole must hold:

1. the ring is bounded, sequenced, and filterable (kind prefix,
   session, trace, newest-N applied after filtering);
2. a *disabled* recorder is inert — settrace-proven: executing
   statements enters ``obs/flight.py`` zero times (with a positive
   control showing the same tracer fires when enabled);
3. the concurrent server narrates itself: session open/close,
   statement begin/end, batch/stream lifecycle, pool checkouts, WAL
   checkpoints, cache invalidations, and fired faults all land as
   events carrying the session's connection key;
4. for a seeded fault plan driven by a deterministic workload, two
   runs produce **identical signature sequences** (timestamps, seq
   numbers, and trace ids excluded by construction);
5. an unhandled server error dumps the whole ring to the configured
   JSONL path — and two seeded runs dump the same event sequence.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro import codec, faults, obs
from repro.obs import flight, profile
from repro.server import RemoteTipConnection, TipServer
from repro.server.client import RemoteError, RetryPolicy

#: Fixed retry policy: no jitter, no sleeps — chaos runs stay seeded.
NO_RETRY = RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0)


@pytest.fixture
def captured():
    """Hermetic obs state: fresh registry and flight ring."""
    with obs.capture() as registry:
        yield registry


def _dict_signature(entry: dict) -> str:
    """:meth:`FlightEvent.signature` recomputed from a JSONL dict."""
    stable = {
        key: value for key, value in entry.get("data", {}).items()
        if not isinstance(value, float) and "span" not in key
    }
    payload = " ".join(f"{key}={stable[key]!r}" for key in sorted(stable))
    return f"{entry['kind']}[{entry.get('session') or ''}] {payload}".rstrip()


class TestRing:
    def test_bounded_with_monotonic_sequence(self):
        recorder = flight.FlightRecorder(capacity=8)
        for index in range(20):
            recorder.record("tick", n=index)
        events = recorder.events()
        assert len(recorder) == 8
        assert [event.seq for event in events] == list(range(13, 21))
        assert [event.data["n"] for event in events] == list(range(12, 20))

    def test_filters_compose_and_last_applies_after_filtering(self):
        recorder = flight.FlightRecorder()
        recorder.record("stmt.begin", session="a", trace_id="t1", sql="S1")
        recorder.record("stmt.end", session="a", trace_id="t1", ok=True)
        recorder.record("stmt.begin", session="b", sql="S2")
        recorder.record("pool.checkout", session="a", busy=0)
        # Dotted-prefix kind matching: "stmt" selects begin and end.
        assert [e.kind for e in recorder.events(kind="stmt")] == [
            "stmt.begin", "stmt.end", "stmt.begin",
        ]
        assert [e.kind for e in recorder.events(kind="stmt.begin")] == [
            "stmt.begin", "stmt.begin",
        ]
        # "pool" must not match a kind merely sharing the prefix text.
        assert recorder.events(kind="pool.check") == []
        assert len(recorder.events(session="a")) == 3
        assert len(recorder.events(trace_id="t1")) == 2
        # last trims *after* the filters, keeping the newest survivors.
        (only,) = recorder.events(kind="stmt", last=1)
        assert only.data == {"sql": "S2"}

    def test_resize_and_clear(self):
        recorder = flight.FlightRecorder(capacity=4)
        for index in range(4):
            recorder.record("tick", n=index)
        recorder.resize(2)
        assert [e.data["n"] for e in recorder.events()] == [2, 3]
        recorder.clear()
        assert len(recorder) == 0 and recorder.capacity == 2

    def test_module_record_respects_the_switch(self, captured):
        assert not flight.state.enabled
        flight.record("tick")
        assert flight.events() == []
        flight.enable()
        flight.record("tick")
        assert len(flight.events()) == 1

    def test_signature_drops_nondeterministic_fields(self):
        event = flight.FlightEvent(
            7, 123.456, "stmt.end", "s1", "deadbeef",
            {"ok": True, "seconds": 0.125, "span_id": "abc", "rowcount": 3},
        )
        assert event.signature() == "stmt.end[s1] ok=True rowcount=3"
        bare = flight.FlightEvent(1, 0.0, "session.open", None, None, {})
        assert bare.signature() == "session.open[]"

    def test_signature_drops_nested_profile_timings(self):
        event = flight.FlightEvent(
            3, 9.5, "stmt.profile", None, "feed",
            {"sql": "S", "wall_seconds": 0.5, "span_id": "ab",
             "statement_now": "1999-09-01",
             "routines": {"blade.routine.x": {"calls": 2, "seconds": 0.1}}},
        )
        assert event.signature() == (
            "stmt.profile[] routines={'blade.routine.x': {'calls': 2}} sql='S'"
        )


class TestInertWhenDisabled:
    """Disabled, no server code path enters ``obs/flight.py`` at all.

    Handler threads are traced via :func:`threading.settrace`, so the
    assertion covers the server side of every statement, not just the
    client thread.
    """

    def _trace_statements(self, tmp_path, **server_kwargs):
        flight_file = flight.__file__
        entered = []

        def tracer(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == flight_file:
                entered.append(frame.f_code.co_qualname)
            return None

        previous = sys.gettrace()
        threading.settrace(tracer)
        sys.settrace(tracer)
        try:
            with TipServer(str(tmp_path / "inert.db"), **server_kwargs) as server:
                host, port = server.address
                with RemoteTipConnection(host, port, retry=NO_RETRY) as connection:
                    connection.execute("CREATE TABLE t (x INTEGER)")
                    connection.execute("INSERT INTO t VALUES (1)")
                    assert connection.query_one("SELECT x FROM t") == (1,)
        finally:
            sys.settrace(previous)
            threading.settrace(previous)
        return entered

    def test_disabled_recorder_is_never_entered(self, captured, tmp_path):
        entered = self._trace_statements(
            tmp_path, observability=False, flight_recorder=False
        )
        assert not flight.state.enabled
        assert entered == []

    def test_positive_control_enabled_recorder_is_traced(
        self, captured, tmp_path
    ):
        entered = self._trace_statements(tmp_path, flight_recorder=True)
        assert entered, "the tracer must fire when the recorder is on"


class TestServerEvents:
    def test_statement_and_session_lifecycle(self, captured):
        with TipServer() as server:
            host, port = server.address
            with RemoteTipConnection(
                host, port, retry=NO_RETRY, session_label="c1"
            ) as connection:
                connection.execute("CREATE TABLE t (x INTEGER)")
                connection.execute("INSERT INTO t VALUES (1)")
                connection.query_one("SELECT x FROM t")
        # session.open precedes the HELLO frame, so it carries the
        # ordinal connection key; everything after HELLO carries the
        # label the client chose.
        (opened,) = flight.events(kind="session.open")
        assert opened.data["id"] == 1 and opened.session == "s1"
        kinds = [event.kind for event in flight.events(session="c1")]
        assert kinds[-1] == "session.close"
        assert kinds.count("stmt.begin") == 3
        assert kinds.count("stmt.end") == 3
        begins = flight.events(kind="stmt.begin", session="c1")
        assert begins[0].data["sql"].startswith("CREATE TABLE")
        ends = flight.events(kind="stmt.end", session="c1")
        assert all(event.data["ok"] for event in ends)
        assert ends[1].data["rowcount"] == 1
        (closed,) = flight.events(kind="session.close")
        assert closed.data["frames"] >= 4 and closed.data["errors"] == 0

    def test_decode_misses_do_not_flood_the_ring(self, captured):
        """A paper-Q1 statement over 1 200 rows of distinct validities
        misses the decode cache thousands of times; it still adds only
        a handful of events, so earlier statements' begin/end pairs
        survive in the ring (the miss counters still count)."""
        from repro.core.chronon import Chronon
        from repro.core.element import Element

        day = 86_400
        with TipServer() as server:
            with server.connection.raw as raw:
                raw.execute("CREATE TABLE rx (patient TEXT, valid ELEMENT, "
                            "dob CHRONON)")
                raw.executemany("INSERT INTO rx VALUES (?, ?, ?)", [(
                    f"p{n}",
                    codec.encode(Element.from_pairs(
                        [(n * day, n * day + 30 * day)])),
                    codec.encode(Chronon(-n * day)),
                ) for n in range(1_200)])
            codec.clear_caches(reset_stats=True)
            flight.clear()
            host, port = server.address
            with RemoteTipConnection(host, port, retry=NO_RETRY) as connection:
                for weeks in (1, 2, 3):
                    rows = connection.query(
                        "SELECT patient FROM rx WHERE CASE WHEN "
                        "is_empty(valid) THEN 0 ELSE tlt(tsub(start(valid), "
                        f"dob), tmul(span('7'), {weeks})) END")
                    # start(valid) - dob is 2n days for row n.
                    assert len(rows) == sum(2 * n < 7 * weeks
                                            for n in range(1_200))
                kinds = [event.kind for event in flight.events()]
        assert codec.cache.stats()["decode"]["misses"] >= 2_400
        assert kinds.count("stmt.begin") == kinds.count("stmt.end") == 3
        assert len(kinds) < 40

    def test_failed_statement_records_an_unhappy_end(self, captured):
        with TipServer() as server:
            host, port = server.address
            with RemoteTipConnection(host, port, retry=NO_RETRY) as connection:
                with pytest.raises(RemoteError):
                    connection.execute("SELECT * FROM no_such_table")
        (end,) = flight.events(kind="stmt.end")
        assert end.data["ok"] is False

    def test_batch_stream_and_many_lifecycles(self, captured):
        with TipServer() as server:
            host, port = server.address
            with RemoteTipConnection(host, port, retry=NO_RETRY) as connection:
                connection.execute("CREATE TABLE t (x INTEGER)")
                connection.execute_batch([
                    "INSERT INTO t VALUES (1)",
                    "SELECT * FROM missing",  # fails without aborting the batch
                    "INSERT INTO t VALUES (2)",
                ])
                connection.executemany(
                    "INSERT INTO t VALUES (?)", [(3,), (4,), (5,)]
                )
                assert sum(1 for _ in connection.stream("SELECT x FROM t")) == 5
        (begin,) = flight.events(kind="batch.begin")
        (end,) = flight.events(kind="batch.end")
        assert begin.data == {"count": 3}
        assert end.data == {"count": 3, "errors": 1}
        (many,) = flight.events(kind="stmt.many")
        assert many.data["count"] == 3
        (s_begin,) = flight.events(kind="stream.begin")
        (s_end,) = flight.events(kind="stream.end")
        assert s_begin.data["sql"] == "SELECT x FROM t"
        assert s_end.data["ok"] and s_end.data["rows_streamed"] == 5

    def test_pool_checkpoint_and_fault_events_carry_the_key(
        self, captured, tmp_path
    ):
        with TipServer(str(tmp_path / "pool.db"), readers=2,
                       checkpoint_every=1) as server:
            host, port = server.address
            with faults.inject("wal.checkpoint:raise:after=1", seed=3):
                with RemoteTipConnection(
                    host, port, retry=NO_RETRY, session_label="k1"
                ) as connection:
                    connection.execute("CREATE TABLE t (x INTEGER)")
                    connection.execute("INSERT INTO t VALUES (1)")
                    connection.query_one("SELECT x FROM t")
        checkouts = flight.events(kind="pool.checkout")
        assert checkouts and all(e.session == "k1" for e in checkouts)
        assert checkouts[0].data == {"busy": 0, "waited": False}
        statuses = [e.data["status"] for e in flight.events(kind="wal.checkpoint")]
        assert statuses == ["ran", "injected"]
        (fired,) = flight.events(kind="fault.fired")
        assert fired.session == "k1"
        assert fired.data == {"point": "wal.checkpoint", "mode": "raise", "hit": 2}

    def test_metrics_reset_clears_the_ring(self, captured):
        with TipServer() as server:
            host, port = server.address
            with RemoteTipConnection(host, port, retry=NO_RETRY) as connection:
                connection.execute("CREATE TABLE t (x INTEGER)")
                assert flight.events(kind="stmt")
                connection.metrics(reset=True)
                remaining = connection.flight()["events"]
        # Everything recorded before the reset is gone; only the reset
        # frame's own accounting may trail it.
        assert not [e for e in remaining if e["kind"].startswith("stmt")]

    def test_flight_frame_filters_on_the_wire(self, captured):
        with TipServer() as server:
            host, port = server.address
            with RemoteTipConnection(
                host, port, retry=NO_RETRY, session_label="w1"
            ) as connection:
                connection.execute("CREATE TABLE t (x INTEGER)")
                connection.execute("INSERT INTO t VALUES (1)")
                data = connection.flight(kind="stmt", session="w1")
                assert data["enabled"] is True
                assert [e["kind"] for e in data["events"]] == [
                    "stmt.begin", "stmt.end", "stmt.begin", "stmt.end",
                ]
                assert all(e["session"] == "w1" for e in data["events"])
                tail = connection.flight(last=2)["events"]
                assert len(tail) == 2
                # Wire events are the recorder's own dict form.
                local = [e.as_dict() for e in flight.events(last=2)]
                assert [e["seq"] for e in tail] <= [e["seq"] for e in local]


def _wait_sessions_drained(timeout: float = 5.0) -> None:
    """Block until the server-side session ledger has caught up.

    A client-side close only half-closes a session: the handler thread
    notices EOF asynchronously.  The chaos helpers enable the recorder
    *between* sessions, so the straggling ``session.close`` must land
    before the switch flips or the timelines race.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if obs.snapshot()["sessions"]["active"] == 0:
            return
        time.sleep(0.01)
    raise AssertionError("server sessions never drained")


def _chaos_run(tmp_path, name: str, profiled: bool = False) -> list:
    """One seeded chaos run; returns the flight signature sequence.

    Everything nondeterministic is kept out by construction: the schema
    lands before the recorder turns on (registry generation numbers are
    process-global), the marshalling caches start cold, and the single
    labeled client makes pool checkout states a pure function of the
    statement sequence.
    """
    tmp_path.mkdir(parents=True, exist_ok=True)
    with obs.capture():
        with TipServer(str(tmp_path / f"{name}.db"), readers=2,
                       checkpoint_every=1, flight_recorder=False) as server:
            host, port = server.address
            with RemoteTipConnection(
                host, port, retry=NO_RETRY, session_label="setup"
            ) as connection:
                connection.execute("CREATE TABLE t (x INTEGER, v ELEMENT)")
            _wait_sessions_drained()
            flight.enable()
            if profiled:
                profile.enable(slow_threshold=0.0)
            codec.clear_caches(reset_stats=True)
            with faults.inject(
                "wal.checkpoint:raise:times=2;pool.checkout:raise:after=4,times=1",
                seed=11,
            ):
                with RemoteTipConnection(
                    host, port, retry=NO_RETRY, session_label="chaos"
                ) as connection:
                    for index in range(3):
                        connection.execute(
                            "INSERT INTO t VALUES (?, element('{[1999-01-01, NOW]}'))",
                            (index,),
                        )
                    failures = 0
                    for _ in range(6):
                        try:
                            connection.query_one("SELECT COUNT(*), tip_text(v) FROM t")
                        except (RemoteError, ConnectionError):
                            failures += 1
                    assert failures == 1  # the seeded checkout fault, exactly once
            _wait_sessions_drained()
            signatures = flight.signatures()
            flight.disable()
    return signatures


class TestDeterminism:
    def test_two_seeded_runs_produce_identical_signatures(self, tmp_path):
        first = _chaos_run(tmp_path / "one", "chaos")
        second = _chaos_run(tmp_path / "two", "chaos")
        assert first == second
        assert any(sig.startswith("fault.fired[chaos]") for sig in first)
        assert any(sig.startswith("server.error[chaos]") for sig in first)

    def test_profiling_keeps_signatures_deterministic(self, tmp_path):
        """``stmt.profile`` events carry timings at every depth (wall
        time, per-routine seconds); the signature drops them all."""
        first = _chaos_run(tmp_path / "one", "chaos", profiled=True)
        second = _chaos_run(tmp_path / "two", "chaos", profiled=True)
        assert first == second
        profiles = [sig for sig in first if sig.startswith("stmt.profile[]")]
        assert any("side='server'" in sig for sig in profiles)
        assert any("side='client'" in sig for sig in profiles)


def _crash_run(tmp_path, name: str) -> list:
    """Chaos-crash a server with a dump path armed; the dump signatures."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    dump_path = tmp_path / f"{name}.jsonl"
    with obs.capture():
        with TipServer(str(tmp_path / f"{name}.db"), readers=2,
                       flight_recorder=False,
                       flight_dump=str(dump_path)) as server:
            host, port = server.address
            with RemoteTipConnection(
                host, port, retry=NO_RETRY, session_label="setup"
            ) as connection:
                connection.execute("CREATE TABLE t (x INTEGER)")
                connection.execute("INSERT INTO t VALUES (1)")
            _wait_sessions_drained()
            flight.enable()
            codec.clear_caches(reset_stats=True)
            with faults.inject("pool.checkout:raise:after=1", seed=5):
                with RemoteTipConnection(
                    host, port, retry=NO_RETRY, session_label="crash"
                ) as connection:
                    connection.query_one("SELECT x FROM t")
                    with pytest.raises((RemoteError, ConnectionError)):
                        connection.query_one("SELECT x FROM t")
            flight.disable()
    entries = [
        json.loads(line)
        for line in dump_path.read_text().splitlines()
    ]
    return entries


class TestCrashDump:
    def test_unhandled_server_error_dumps_the_ring(self, tmp_path):
        entries = _crash_run(tmp_path, "boom")
        kinds = [entry["kind"] for entry in entries]
        assert "server.error" in kinds
        assert kinds[-1] == "crash"
        last = entries[-1]
        assert "InjectedFault" in last["data"]["reason"]
        (error,) = [e for e in entries if e["kind"] == "server.error"]
        assert error["session"] == "crash"
        assert error["data"]["op"] == "execute"

    def test_dump_sequence_is_identical_across_seeded_runs(self, tmp_path):
        first = _crash_run(tmp_path / "one", "boom")
        second = _crash_run(tmp_path / "two", "boom")
        assert [_dict_signature(e) for e in first] == [
            _dict_signature(e) for e in second
        ]


class TestCaptureIsolation:
    def test_capture_swaps_the_ring_and_parks_the_switch(self):
        flight.get_recorder().record("outer")
        outer_len = len(flight.get_recorder())
        outer_enabled = flight.state.enabled
        with obs.capture():
            assert not flight.state.enabled
            assert len(flight.get_recorder()) == 0
            flight.enable()
            flight.record("inner")
            assert len(flight.events()) == 1
        assert flight.state.enabled == outer_enabled
        assert len(flight.get_recorder()) == outer_len
        assert all(e.kind != "inner" for e in flight.events())
