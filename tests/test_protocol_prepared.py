"""The prepared-statement wire protocol: golden frames and semantics.

Golden-frame tests pin the PREPARE / EXECUTE / DEALLOCATE wire shapes
against a raw socket (the ``generation`` field — a process-global
counter — is checked for type and popped before strict comparison);
semantic tests establish the contracts that make the prepared path safe
to adopt: handles are private to their session, ``executemany`` is
observably equivalent to a loop of single executes, a stale or lost
handle fails typed-and-retry-safe, and the client wrapper re-prepares
transparently across DDL and injected disconnects.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.server import RemoteTipConnection, TipServer
from repro.server.client import RemoteError, RetryPolicy
from repro.tsql import compiled
from tests.test_protocol_pipeline import _Wire, _ok, _q

NOW = "1999-09-01"
SEED = 1999
FAST_RETRY = dict(retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0))

_SNAPSHOT = "SNAPSHOT SELECT patient FROM Rx WHERE drug = ?"
_SNAPSHOT_SQL = (
    "SELECT patient FROM Rx WHERE (drug = ?) "
    "AND contains_instant(Rx.valid, instant('NOW'))"
)


@pytest.fixture(autouse=True)
def disarmed():
    faults.disarm()
    yield
    faults.disarm()


def _prepare(wire, sql):
    """Round-trip a PREPARE; returns (handle, response-sans-generation)."""
    response = wire.round_trip({"op": "prepare", "sql": sql})
    assert isinstance(response.pop("generation", None), int)
    return response.get("handle"), response


class TestGoldenFrames:
    def test_prepare_execute_deallocate_exact_frames(self):
        with TipServer(":memory:", observability=False) as server:
            wire = _Wire(server)
            wire.round_trip({"op": "set_now", "now": NOW})
            assert wire.round_trip({
                "op": "execute",
                "sql": "CREATE TABLE Rx (patient TEXT, drug TEXT, valid ELEMENT)",
                "params": [],
            }) == _ok([], [], -1)
            assert wire.round_trip({
                "op": "execute",
                "sql": "INSERT INTO Rx VALUES ('alice', 'aspirin', "
                       "element('{[1999-01-01, NOW]}'))",
                "params": [],
            }) == _ok([], [], 1)
            # PREPARE compiles the tSQL modifier away server-side and
            # answers with the translated SQL and parameter count.
            handle, response = _prepare(wire, _SNAPSHOT)
            assert response == {"ok": True, "handle": 1,
                                "sql": _SNAPSHOT_SQL, "params": 1}
            # EXECUTE answers execute-shaped, exactly like an ad-hoc run.
            assert wire.round_trip({
                "op": "execute_prepared", "handle": handle,
                "params": ["aspirin"],
            }) == _ok([["alice"]], ["patient"], 1)
            assert wire.round_trip({
                "op": "execute_prepared", "handle": handle,
                "params": ["prozac"],
            }) == _ok([], ["patient"], 0)
            # Handles number up per session.
            second, _ = _prepare(wire, "SELECT 1")
            assert second == 2
            assert wire.round_trip({"op": "deallocate", "handle": handle}) \
                == {"ok": True, "deallocated": handle}
            wire.close()

    def test_executemany_exact_frame(self):
        with TipServer(":memory:", observability=False) as server:
            wire = _Wire(server)
            wire.round_trip({"op": "set_now", "now": NOW})
            wire.round_trip({"op": "execute",
                             "sql": "CREATE TABLE t (n INTEGER)", "params": []})
            handle, _ = _prepare(wire, "INSERT INTO t VALUES (?)")
            assert wire.round_trip({
                "op": "execute_prepared", "handle": handle,
                "many": [[1], [2], [3]],
            }) == {"ok": True, "cols": [], "n": 0, "columns": [],
                   "rowcount": 3, "count": 3, "statement_now": NOW}
            assert wire.round_trip({
                "op": "execute", "sql": "SELECT COUNT(*) FROM t", "params": [],
            }) == _ok(["q"], ["COUNT(*)"], 1, [_q(3)])
            wire.close()

    def test_malformed_frames_fail_typed(self):
        with TipServer(":memory:", observability=False) as server:
            wire = _Wire(server)
            assert wire.round_trip({"op": "prepare"}) == {
                "ok": False, "error": "prepare needs a sql string",
                "kind": "ProtocolError",
            }
            handle, _ = _prepare(wire, "SELECT 1")
            assert wire.round_trip({
                "op": "execute_prepared", "handle": handle, "many": "nope",
            }) == {"ok": False,
                   "error": "executemany needs a list of parameter rows",
                   "kind": "ProtocolError"}
            wire.close()

    def test_unknown_and_deallocated_handles(self):
        with TipServer(":memory:", observability=False) as server:
            wire = _Wire(server)
            unknown = {"ok": False,
                       "error": "unknown prepared-statement handle 99",
                       "kind": "UnknownStatement", "retry_safe": True}
            assert wire.round_trip(
                {"op": "execute_prepared", "handle": 99, "params": []}
            ) == unknown
            assert wire.round_trip({"op": "deallocate", "handle": 99}) == unknown
            # A deallocated handle is unknown from then on.
            handle, _ = _prepare(wire, "SELECT 1")
            wire.round_trip({"op": "deallocate", "handle": handle})
            response = wire.round_trip(
                {"op": "execute_prepared", "handle": handle, "params": []}
            )
            assert response["kind"] == "UnknownStatement"
            assert response["retry_safe"] is True
            wire.close()

    def test_ddl_stales_the_handle(self):
        with TipServer(":memory:", observability=False) as server:
            wire = _Wire(server)
            wire.round_trip({"op": "set_now", "now": NOW})
            handle, _ = _prepare(wire, "SELECT 1")
            assert wire.round_trip(
                {"op": "execute_prepared", "handle": handle, "params": []}
            ) == _ok(["q"], ["1"], 1, [_q(1)])
            wire.round_trip({"op": "execute",
                             "sql": "CREATE TABLE moved (n INTEGER)",
                             "params": []})
            assert wire.round_trip(
                {"op": "execute_prepared", "handle": handle, "params": []}
            ) == {"ok": False,
                  "error": "prepared statement is stale "
                           "(schema or temporal registry changed); re-prepare",
                  "kind": "StaleStatement", "retry_safe": True}
            # Re-preparing the same text yields a live handle again.
            fresh, _ = _prepare(wire, "SELECT 1")
            assert wire.round_trip(
                {"op": "execute_prepared", "handle": fresh, "params": []}
            ) == _ok(["q"], ["1"], 1, [_q(1)])
            wire.close()

    def test_handles_are_private_to_their_session(self):
        with TipServer(":memory:", observability=False) as server:
            alice, bob = _Wire(server), _Wire(server)
            handle, _ = _prepare(alice, "SELECT 1")
            assert handle == 1
            # Bob never prepared handle 1; Alice's plan must not leak.
            response = bob.round_trip(
                {"op": "execute_prepared", "handle": handle, "params": []}
            )
            assert response["kind"] == "UnknownStatement"
            # Bob's own numbering starts at 1 too — per-session tables.
            bobs, _ = _prepare(bob, "SELECT 2")
            assert bobs == 1
            alice.close()
            bob.close()


class TestClientSurface:
    def test_executemany_equivalent_to_loop_of_executes(self):
        with TipServer(":memory:", observability=False) as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as connection:
                connection.execute("CREATE TABLE a (n INTEGER, s TEXT)")
                connection.execute("CREATE TABLE b (n INTEGER, s TEXT)")
                rows = [(n, f"row{n}") for n in range(17)]
                with connection.prepare("INSERT INTO a VALUES (?, ?)") as stmt:
                    for row in rows:
                        stmt.execute(row)
                # chunk=5 forces multiple many frames over 17 rows.
                assert connection.executemany(
                    "INSERT INTO b VALUES (?, ?)", rows, chunk=5
                ) == 17
                assert connection.query("SELECT n, s FROM a ORDER BY n") \
                    == connection.query("SELECT n, s FROM b ORDER BY n")

    def test_reprepare_after_injected_disconnect(self):
        with TipServer(":memory:", observability=False) as server:
            host, port = server.address
            with RemoteTipConnection(host, port, request_timeout=1.0,
                                     seed=SEED, **FAST_RETRY) as connection:
                connection.execute("CREATE TABLE t (n INTEGER)")
                connection.execute("INSERT INTO t VALUES (7)")
                with connection.prepare("SELECT n FROM t") as stmt:
                    assert stmt.execute().rows == [(7,)]
                    # The reconnect loses every session handle; the
                    # wrapper must re-prepare and replay transparently.
                    with faults.inject("client.recv:raise", seed=SEED):
                        assert stmt.execute().rows == [(7,)]
                    assert stmt.reprepares >= 1

    def test_reprepare_after_server_side_ddl(self):
        with TipServer(":memory:", observability=False) as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as connection:
                connection.set_now(NOW)
                connection.execute(
                    "CREATE TABLE Rx (patient TEXT, drug TEXT, valid ELEMENT)"
                )
                connection.execute(
                    "INSERT INTO Rx VALUES ('alice', 'aspirin', "
                    "element('{[1999-01-01, NOW]}'))"
                )
                with connection.prepare(_SNAPSHOT) as stmt:
                    assert stmt.translated_sql == _SNAPSHOT_SQL
                    assert stmt.execute(("aspirin",)).rows == [("alice",)]
                    connection.execute("CREATE TABLE unrelated (n INTEGER)")
                    # Stale now — one transparent re-prepare, same answer.
                    assert stmt.execute(("aspirin",)).rows == [("alice",)]
                    assert stmt.reprepares == 1

    def test_prepared_raises_after_deallocate(self):
        with TipServer(":memory:", observability=False) as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as connection:
                stmt = connection.prepare("SELECT 1")
                stmt.deallocate()
                stmt.deallocate()  # idempotent
                from repro.errors import TipError
                with pytest.raises(TipError, match="deallocated"):
                    stmt.execute()

    def test_executemany_rejects_bad_chunk(self):
        with TipServer(":memory:", observability=False) as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as connection:
                connection.execute("CREATE TABLE t (n INTEGER)")
                with connection.prepare("INSERT INTO t VALUES (?)") as stmt:
                    with pytest.raises(ValueError, match="chunk"):
                        stmt.executemany([(1,)], chunk=0)

    def test_executemany_error_rolls_back_typed(self):
        with TipServer(":memory:", observability=False) as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as connection:
                connection.execute(
                    "CREATE TABLE u (n INTEGER PRIMARY KEY)"
                )
                with connection.prepare("INSERT INTO u VALUES (?)") as stmt:
                    with pytest.raises(RemoteError) as info:
                        stmt.executemany([(1,), (1,)])  # duplicate key
                    assert info.value.kind == "IntegrityError"
                # The failed frame rolled back atomically.
                assert connection.query_one("SELECT COUNT(*) FROM u") == (0,)


def test_prepared_hits_the_statement_cache():
    """Two sessions preparing the same text share one compiled plan."""
    compiled.clear_cache(reset_stats=True)
    with TipServer(":memory:", observability=False) as server:
        alice, bob = _Wire(server), _Wire(server)
        _prepare(alice, "SELECT 1")
        before = compiled.CACHE.stats()["hits"]
        _prepare(bob, "SELECT   1  ;")  # a respelling of the same plan
        assert compiled.CACHE.stats()["hits"] == before + 1
        alice.close()
        bob.close()
