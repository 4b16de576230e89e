"""Tests for the network server and remote client (Figure 1's path)."""

from __future__ import annotations

import threading

import pytest

from repro.core.chronon import Chronon
from repro.core.element import Element
from repro.core.span import Span
from repro.server import RemoteTipConnection, TipServer
from repro.server.client import RemoteError
from repro.server import protocol
from tests.conftest import C, E, S


@pytest.fixture(scope="module")
def server():
    with TipServer(":memory:") as srv:
        yield srv


@pytest.fixture
def remote(server):
    host, port = server.address
    with RemoteTipConnection(host, port) as connection:
        yield connection


@pytest.fixture
def fresh_table(remote):
    remote.execute("DROP TABLE IF EXISTS Prescription")
    remote.execute("CREATE TABLE Prescription (patient TEXT, drug TEXT, valid ELEMENT)")
    return remote


class TestProtocol:
    def test_value_round_trip(self):
        for value in (C("1999-09-01"), S("7"), E("{[1999-01-01, NOW]}"), 42, 2.5,
                      "text", None, True, b"\x01\x02"):
            loaded = protocol.load_value(protocol.dump_value(value))
            if isinstance(value, Element):
                assert loaded.identical(value)
            else:
                assert loaded == value

    def test_untransportable_value(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.dump_value(object())

    def test_unknown_envelope(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.load_value({"$mystery": 1})

    def test_malformed_frame(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.load_frame(b"not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.load_frame(b"[1, 2]\n")


class TestRemoteQueries:
    def test_ping(self, remote):
        assert remote.ping()

    def test_ddl_dml_select(self, fresh_table):
        remote = fresh_table
        result = remote.execute(
            "INSERT INTO Prescription VALUES ('alice', 'Prozac', "
            "element('{[1999-01-01, 1999-06-30]}'))"
        )
        assert result.rowcount == 1
        rows = remote.query("SELECT patient, drug, valid FROM Prescription")
        assert rows[0][:2] == ("alice", "Prozac")
        assert isinstance(rows[0][2], Element)

    def test_tip_parameters_travel_binary(self, fresh_table):
        remote = fresh_table
        remote.execute(
            "INSERT INTO Prescription VALUES (?, ?, ?)",
            ("bob", "Zantac", E("{[1999-03-01, NOW]}")),
        )
        (valid,) = remote.query_one(
            "SELECT valid FROM Prescription WHERE patient = ?", ("bob",)
        )
        assert valid.identical(E("{[1999-03-01, NOW]}"))

    def test_routines_work_remotely(self, fresh_table):
        remote = fresh_table
        (result,) = remote.query_one("SELECT tip_text(tunion("
                                     "'{[1999-01-01, 1999-02-01]}', "
                                     "'{[1999-02-01, 1999-03-01]}'))")
        assert result == "{[1999-01-01, 1999-03-01]}"

    def test_engine_errors_surface_as_remote_errors(self, remote):
        with pytest.raises(RemoteError) as info:
            remote.query("SELECT * FROM no_such_table")
        assert "no_such_table" in str(info.value)

    def test_columns_metadata(self, fresh_table):
        result = fresh_table.execute("SELECT 1 AS one, 2 AS two")
        assert result.columns == ["one", "two"]


class TestSessionNow:
    def test_set_now_applies_to_session(self, remote):
        remote.set_now("1999-09-01")
        (now,) = remote.query_one("SELECT tip_text(tip_now())")
        assert now == "1999-09-01"
        remote.set_now(None)

    def test_sessions_have_independent_now(self, server, fresh_table):
        host, port = server.address
        first = fresh_table
        with RemoteTipConnection(host, port) as second:
            first.set_now("1999-01-01")
            second.set_now("2005-06-07")
            (now1,) = first.query_one("SELECT tip_text(tip_now())")
            (now2,) = second.query_one("SELECT tip_text(tip_now())")
            assert now1 == "1999-01-01"
            assert now2 == "2005-06-07"
        first.set_now(None)

    def test_invalid_now_rejected(self, remote):
        with pytest.raises(RemoteError):
            remote.set_now("not-a-date")


class TestWireRobustness:
    def test_malformed_json_gets_error_frame(self, server):
        import socket

        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as raw:
            raw.sendall(b"this is not json\n")
            reader = raw.makefile("rb")
            response = protocol.load_frame(reader.readline())
            assert response["ok"] is False
            assert response["kind"] == "ProtocolError"
            # The session survives a bad frame:
            raw.sendall(protocol.dump_frame({"op": "ping"}))
            assert protocol.load_frame(reader.readline())["ok"] is True

    def test_unknown_op_rejected(self, server):
        import socket

        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as raw:
            raw.sendall(protocol.dump_frame({"op": "frobnicate"}))
            reader = raw.makefile("rb")
            response = protocol.load_frame(reader.readline())
            assert response["ok"] is False
            assert "unknown op" in response["error"]

    def test_blank_lines_ignored(self, server):
        import socket

        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as raw:
            raw.sendall(b"\n\n")
            raw.sendall(protocol.dump_frame({"op": "ping"}))
            reader = raw.makefile("rb")
            assert protocol.load_frame(reader.readline())["ok"] is True

    def test_execute_without_sql_rejected(self, remote):
        with pytest.raises(RemoteError):
            remote._round_trip({"op": "execute"})


class TestFrameBounds:
    """Partial and oversized frames: typed errors or clean closes,
    never a traceback in the server log or a leaked session."""

    @staticmethod
    def _quiet_server(**kwargs):
        """A server that records (instead of printing) handler errors."""
        srv = TipServer(":memory:", **kwargs)
        srv.handler_errors = []
        srv._inner.handle_error = (
            lambda request, address: srv.handler_errors.append(address)
        )
        return srv

    @staticmethod
    def _await_counter(registry, name, value, timeout=5.0):
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if registry.counter_value(name) >= value:
                return
            time.sleep(0.01)
        raise AssertionError(
            f"{name} never reached {value} "
            f"(at {registry.counter_value(name)})"
        )

    def _await_ledger_settled(self, registry, timeout=5.0):
        """Wait until every session opened in this capture has closed.

        Sessions from *earlier* tests may close concurrently and land
        their increment in this capture's registry, so the leak check
        is ``closed >= opened``, polled (never-closing sessions fail
        the timeout).
        """
        self._await_counter(registry, "server.sessions.opened", 1, timeout)
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            opened = registry.counter_value("server.sessions.opened")
            closed = registry.counter_value("server.sessions.closed")
            if closed >= opened:
                return
            time.sleep(0.01)
        raise AssertionError("a session leaked: opened > closed after timeout")

    def test_partial_frame_then_disconnect_closes_cleanly(self):
        import socket

        from repro import obs

        with obs.capture(enabled=True) as registry:
            with self._quiet_server() as srv:
                with socket.create_connection(srv.address, timeout=5) as raw:
                    raw.sendall(b'{"op": "pi')  # half a frame, no newline
                self._await_counter(registry, "server.frame.partial", 1)
                self._await_ledger_settled(registry)
                assert srv.handler_errors == []

    def test_oversized_frame_gets_typed_error_and_session_survives(self):
        import socket

        with self._quiet_server(max_frame_bytes=512, observability=False) as srv:
            with socket.create_connection(srv.address, timeout=5) as raw:
                reader = raw.makefile("rb")
                big = protocol.dump_frame({"op": "ping", "pad": "x" * 2048})
                assert len(big) > 512
                raw.sendall(big)
                response = protocol.load_frame(reader.readline())
                assert response["ok"] is False
                assert response["kind"] == "FrameTooLarge"
                assert response["retry_safe"] is False
                # The stream is resynchronized: the session still works.
                raw.sendall(protocol.dump_frame({"op": "ping"}))
                assert protocol.load_frame(reader.readline())["ok"] is True
            assert srv.handler_errors == []

    def test_oversized_frame_without_newline_then_disconnect(self):
        """Worst case: an oversized frame whose sender dies mid-drain."""
        import socket

        from repro import obs

        with obs.capture(enabled=True) as registry:
            with self._quiet_server(max_frame_bytes=256) as srv:
                with socket.create_connection(srv.address, timeout=5) as raw:
                    raw.sendall(b"A" * 4096)  # oversized, never newline-terminated
                self._await_ledger_settled(registry)
                assert srv.handler_errors == []

    def test_oversized_via_client_raises_typed_error_without_retry_storm(self):
        from repro.server.client import RetryPolicy

        with self._quiet_server(max_frame_bytes=2048, observability=False) as srv:
            host, port = srv.address
            with RemoteTipConnection(
                host, port, retry=RetryPolicy(base_delay=0.0, jitter=0.0)
            ) as remote:
                with pytest.raises(RemoteError) as info:
                    remote.execute("SELECT '" + "x" * 4096 + "'")
                assert info.value.kind == "FrameTooLarge"
                assert remote.query_one("SELECT 1") == (1,)

    def test_session_degraded_counter_in_metrics_frame(self):
        import socket

        with self._quiet_server(max_frame_bytes=512, observability=False) as srv:
            with socket.create_connection(srv.address, timeout=5) as raw:
                reader = raw.makefile("rb")
                raw.sendall(protocol.dump_frame({"op": "ping", "pad": "x" * 2048}))
                assert protocol.load_frame(reader.readline())["kind"] == "FrameTooLarge"
                raw.sendall(protocol.dump_frame({"op": "metrics"}))
                response = protocol.load_frame(reader.readline())
                assert response["session"]["degraded"] == 1


class TestConcurrency:
    def test_parallel_clients(self, server, fresh_table):
        host, port = server.address
        fresh_table.execute(
            "INSERT INTO Prescription VALUES ('x', 'd', element('{[1999-01-01, 1999-02-01]}'))"
        )
        errors = []

        def worker(worker_id: int) -> None:
            try:
                with RemoteTipConnection(host, port) as connection:
                    for _ in range(10):
                        rows = connection.query("SELECT COUNT(*) FROM Prescription")
                        assert rows[0][0] >= 1
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append((worker_id, exc))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        assert errors == []

    def test_closed_connection_rejects_use(self, server):
        host, port = server.address
        connection = RemoteTipConnection(host, port)
        connection.close()
        from repro.errors import TipError

        with pytest.raises(TipError):
            connection.query("SELECT 1")


class TestStop:
    def test_stop_ends_open_sessions_before_closing_the_pool(self):
        """A stopped server keeps no session: no handler thread outlives
        ``stop()``, the session's close is recorded before it returns,
        and the client's next statement fails to connect instead of
        reaching a closed database."""
        from repro import obs
        from repro.errors import TipError
        from repro.obs import flight
        from repro.server.client import RetryPolicy

        with obs.capture():
            flight.enable()
            server = TipServer(":memory:").start()
            host, port = server.address
            before = set(threading.enumerate())
            connection = RemoteTipConnection(
                host, port, session_label="stopping",
                retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0))
            try:
                assert connection.query_one("SELECT 1") == (1,)
                handlers = [thread for thread in set(threading.enumerate()) - before
                            if "process_request_thread" in thread.name]
                assert len(handlers) == 1
                server.stop()
                assert not handlers[0].is_alive()
                assert len(flight.events(kind="session.close", session="stopping")) == 1
                with pytest.raises(TipError) as excinfo:
                    connection.query_one("SELECT 1")
                assert not isinstance(excinfo.value, RemoteError)
            finally:
                connection.close()
