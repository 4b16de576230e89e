"""Server observability: the METRICS frame and concurrent attribution."""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.cli import metrics_main
from repro.obs import profile
from repro.server import RemoteTipConnection, TipServer


@pytest.fixture
def served():
    """A fresh server + isolated metrics registry per test."""
    with obs.capture() as registry:
        with TipServer(":memory:") as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as connection:
                connection.execute("CREATE TABLE t (k INTEGER, v ELEMENT)")
                connection.execute(
                    "INSERT INTO t VALUES (1, element('{[1999-01-01, NOW]}'))"
                )
            yield host, port, registry


class TestMetricsFrame:
    def test_snapshot_contains_routine_counts_and_latencies(self, served):
        host, port, _registry = served
        with RemoteTipConnection(host, port) as connection:
            for _ in range(3):
                connection.query("SELECT tip_text(tunion(v, v)) FROM t")
            data = connection.metrics()
        counters = data["metrics"]["counters"]
        histograms = data["metrics"]["histograms"]
        assert counters["blade.routine.tunion.calls"] == 3
        assert histograms["blade.routine.tunion.seconds"]["count"] == 3
        assert histograms["blade.routine.tunion.seconds"]["max"] > 0
        assert counters["element.periods_processed"] > 0
        # Frame-level accounting for this session's traffic.
        assert counters["server.frame.execute.calls"] >= 3
        assert histograms["server.frame.execute.seconds"]["count"] >= 3

    def test_session_ledger_counts_own_frames_only(self, served):
        host, port, _registry = served
        with RemoteTipConnection(host, port) as connection:
            connection.ping()
            connection.query("SELECT k FROM t")
            session = connection.metrics()["session"]
        assert session["execute"] == 1
        assert session["frames"] == 2  # ping + execute; not this metrics frame
        assert session["rows"] == 1
        assert session["errors"] == 0

    def test_errors_are_counted(self, served):
        host, port, _registry = served
        with RemoteTipConnection(host, port) as connection:
            with pytest.raises(Exception):
                connection.query("SELECT nope FROM missing")
            data = connection.metrics()
        assert data["session"]["errors"] == 1
        assert data["metrics"]["counters"]["server.frame.execute.errors"] == 1

    def test_reset_returns_pre_reset_state(self, served):
        host, port, _registry = served
        with RemoteTipConnection(host, port) as connection:
            connection.query("SELECT k FROM t")
            first = connection.metrics(reset=True)
            second = connection.metrics()
        assert "blade.routine.element.calls" in first["metrics"]["counters"] \
            or first["metrics"]["counters"]  # pre-reset state present
        assert "server.frame.execute.calls" not in second["metrics"]["counters"]

    def test_trace_tail(self, served):
        """``trace_tail`` frames the ring's newest spans: here the
        client and server profiles of one statement, one trace."""
        host, port, _registry = served
        profile.enable()
        with RemoteTipConnection(host, port) as connection:
            result = connection.execute("SELECT k FROM t")
            data = connection.metrics(trace_tail=5)
        trace = data["metrics"]["trace"]
        assert isinstance(trace, list) and 0 < len(trace) <= 5
        joined = [entry for entry in trace
                  if entry.get("meta", {}).get("trace_id") == result.profile.trace_id]
        assert sorted(entry["name"] for entry in joined) == [
            "query.client", "query.server",
        ]
        assert all(set(entry) == {"name", "seconds", "ok", "meta"} for entry in joined)


class TestConcurrentSessions:
    """Satellite: N threaded clients, distinct NOW overrides, no lost updates."""

    N_CLIENTS = 6
    N_QUERIES = 20

    def test_attribution_and_no_lost_counter_updates(self, served):
        host, port, _registry = served
        failures = []
        ledgers = {}

        def client(index: int) -> None:
            try:
                now = f"{2001 + index:04d}-06-01"
                with RemoteTipConnection(host, port) as connection:
                    connection.set_now(now)
                    for _ in range(self.N_QUERIES):
                        result = connection.execute(
                            "SELECT tip_text(tunion(v, v)) FROM t"
                        )
                        # The session's NOW override sticks to *this*
                        # session even under interleaving.
                        assert result.statement_now.startswith(str(2001 + index)), \
                            result.statement_now
                    ledgers[index] = connection.metrics()["session"]
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append((index, exc))

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(self.N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures

        # Per-session attribution: each ledger shows exactly that
        # session's traffic (set_now + N queries; metrics uncounted).
        session_ids = set()
        for index, session in ledgers.items():
            assert session["execute"] == self.N_QUERIES, (index, session)
            assert session["frames"] == self.N_QUERIES + 1, (index, session)
            assert session["rows"] == self.N_QUERIES, (index, session)
            assert session["errors"] == 0, (index, session)
            session_ids.add(session["id"])
        assert len(session_ids) == self.N_CLIENTS

        # Global counters: every update arrived (the fixture's 2 setup
        # executes plus all client queries), none lost to races.
        with RemoteTipConnection(host, port) as connection:
            counters = connection.metrics()["metrics"]["counters"]
        expected = 2 + self.N_CLIENTS * self.N_QUERIES
        assert counters["server.frame.execute.calls"] == expected
        assert counters["blade.routine.tunion.calls"] \
            == self.N_CLIENTS * self.N_QUERIES
        assert counters["server.rows_returned"] \
            == self.N_CLIENTS * self.N_QUERIES + 1  # +1 fixture insert rowcount


class TestMetricsSubcommand:
    def test_table_output(self, served, capsys):
        host, port, _registry = served
        with RemoteTipConnection(host, port) as connection:
            connection.query("SELECT tip_text(tunion(v, v)) FROM t")
        assert metrics_main([f"{host}:{port}"]) == 0
        output = capsys.readouterr().out
        assert "blade.routine.tunion.calls" in output
        assert "session #" in output

    def test_json_output(self, served, capsys):
        host, port, _registry = served
        assert metrics_main([f"{host}:{port}", "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert "metrics" in parsed and "session" in parsed

    def test_usage_errors(self, capsys):
        assert metrics_main([]) == 2
        assert metrics_main(["localhost:not-a-port"]) == 2
        assert metrics_main(["127.0.0.1:1"]) == 1  # nothing listening


class TestPooledSessionAttribution:
    """Exact per-session ledgers on the pooled (WAL) server.

    The engine connections underneath the handlers are now shared pool
    readers plus one writer, so this pins the invariant the refactor
    must keep: each session's ledger counts exactly its own frames,
    rows, and errors — deliberately *asymmetric* workloads, so any
    cross-session bleed shifts an exact count and fails.
    """

    #: (queries, induced errors) per session — different on purpose.
    WORKLOADS = ((5, 0), (9, 2))

    def test_two_concurrent_sessions_no_bleed(self, tmp_path):
        with obs.capture() as registry:
            with TipServer(str(tmp_path / "obs.db"), readers=2) as server:
                host, port = server.address
                with RemoteTipConnection(host, port) as admin:
                    admin.execute("CREATE TABLE t (k INTEGER, v ELEMENT)")
                    admin.execute(
                        "INSERT INTO t VALUES (1, element('{[1999-01-01, NOW]}'))"
                    )
                barrier = threading.Barrier(len(self.WORKLOADS))
                ledgers = {}
                failures = []

                def client(index):
                    queries, errors = self.WORKLOADS[index]
                    try:
                        with RemoteTipConnection(host, port) as connection:
                            barrier.wait(timeout=10)
                            for _ in range(queries):
                                connection.query(
                                    "SELECT tip_text(tunion(v, v)) FROM t"
                                )
                            for _ in range(errors):
                                with pytest.raises(Exception):
                                    connection.query("SELECT nope FROM t")
                            ledgers[index] = connection.metrics()["session"]
                    except Exception as exc:  # pragma: no cover
                        failures.append((index, exc))

                threads = [
                    threading.Thread(target=client, args=(index,))
                    for index in range(len(self.WORKLOADS))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert not failures, failures

                # Exact attribution, session by session.
                for index, (queries, errors) in enumerate(self.WORKLOADS):
                    session = ledgers[index]
                    assert session["execute"] == queries + errors, session
                    assert session["frames"] == queries + errors, session
                    assert session["rows"] == queries, session
                    assert session["errors"] == errors, session
                assert ledgers[0]["id"] != ledgers[1]["id"]

                # And the global ledger is exactly the sum of the parts.
                total_execs = 2 + sum(q + e for q, e in self.WORKLOADS)
                total_errors = sum(e for _q, e in self.WORKLOADS)
                with RemoteTipConnection(host, port) as connection:
                    counters = connection.metrics()["metrics"]["counters"]
                assert counters["server.frame.execute.calls"] == total_execs
                assert counters["server.frame.execute.errors"] == total_errors
                assert registry.counter_value("server.pool.reads") \
                    >= sum(q for q, _e in self.WORKLOADS)
