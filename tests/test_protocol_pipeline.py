"""The pipelined protocol: BATCH frames and credit-windowed streaming.

Golden-frame tests pin the exact wire shapes (a batch response, the
ROWS/DONE continuation frames, the typed mid-stream failures) against a
raw socket, so any accidental protocol change fails loudly; a hypothesis
property establishes the semantic contract that makes pipelining safe to
adopt: a BATCH is observably equivalent to sending the same statements
one per frame.

The session NOW is pinned in every golden test so whole response frames
compare equal — no field is exempted from the golden comparison.
"""

from __future__ import annotations

import json
import select
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codec, obs
from repro.codec.binary import TAG_BY_TYPE
from repro.core.element import Element
from repro.server import RemoteTipConnection, TipServer
from repro.server import protocol
from repro.server.client import RemoteError, RemoteResult
from tests.strategies import chronons, elements, instants, periods, spans

NOW = "1999-09-01"


class _Wire:
    """A raw socket speaking frames to a server, for golden tests."""

    def __init__(self, server, timeout=5.0):
        self.socket = socket.create_connection(server.address, timeout=timeout)
        self.reader = self.socket.makefile("rb")

    def send(self, frame: dict) -> None:
        self.socket.sendall(protocol.dump_frame(frame))

    def recv(self) -> dict:
        return json.loads(self.reader.readline())

    def round_trip(self, frame: dict) -> dict:
        self.send(frame)
        return self.recv()

    def quiet(self, seconds: float = 0.3) -> bool:
        """True when the server sends nothing for *seconds* (no data
        is consumed — the check peeks readability only)."""
        readable, _, _ = select.select([self.socket], [], [], seconds)
        return not readable

    def close(self) -> None:
        self.reader.close()
        self.socket.close()


def _quiet_server(**kwargs):
    """A server that records (instead of printing) handler errors."""
    srv = TipServer(":memory:", **kwargs)
    srv.handler_errors = []
    srv._inner.handle_error = (
        lambda request, address: srv.handler_errors.append(address)
    )
    return srv


def _await_sessions_closed(registry, timeout=5.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        opened = registry.counter_value("server.sessions.opened")
        closed = registry.counter_value("server.sessions.closed")
        if opened and closed >= opened:
            return
        time.sleep(0.01)
    raise AssertionError("a session leaked: opened > closed after timeout")


def _ok(rows, columns, rowcount) -> dict:
    """An execute-shaped success result under the pinned NOW."""
    return {"ok": True, "rows": rows, "columns": columns,
            "rowcount": rowcount, "statement_now": NOW}


class TestBatchGoldenFrames:
    def test_mixed_batch_exact_response(self):
        """One BATCH mixing reads, writes, DDL, and a failure: the full
        response frame, field for field."""
        with TipServer(":memory:", observability=False) as server:
            wire = _Wire(server)
            assert wire.round_trip({"op": "set_now", "now": NOW}) \
                == {"ok": True, "now": NOW}
            response = wire.round_trip({"op": "batch", "statements": [
                {"sql": "SELECT 1", "params": []},
                {"sql": "VALUES (2)", "params": []},
                {"sql": "CREATE TABLE g (n INTEGER)", "params": []},
                {"sql": "INSERT INTO g VALUES (?)", "params": [3]},
                {"sql": "SELECT n FROM g", "params": []},
                {"sql": "SELECT nope", "params": []},
            ]})
            assert response == {"ok": True, "results": [
                _ok([[1]], ["1"], 1),
                _ok([[2]], ["column1"], 1),
                _ok([], [], -1),        # DDL: no cursor, engine rowcount
                _ok([], [], 1),         # the INSERT's rowcount
                _ok([[3]], ["n"], 1),   # the write is visible in-batch
                {"ok": False, "error": "no such column: nope",
                 "kind": "OperationalError"},
            ]}
            # The failed statement aborted nothing — the session and the
            # batch's own writes both survive.
            assert wire.round_trip(
                {"op": "execute", "sql": "SELECT n FROM g", "params": []}
            ) == _ok([[3]], ["n"], 1)
            wire.close()

    def test_malformed_batches_fail_typed(self):
        with TipServer(":memory:", observability=False) as server:
            wire = _Wire(server)
            assert wire.round_trip({"op": "batch"}) == {
                "ok": False, "error": "batch needs a statements list",
                "kind": "ProtocolError",
            }
            response = wire.round_trip(
                {"op": "batch", "statements": ["SELECT 1", {"sql": "SELECT 1"}]}
            )
            assert response["ok"] is True
            first, second = response["results"]
            assert first == {"ok": False,
                             "error": "batch entry must be an object",
                             "kind": "ProtocolError"}
            assert second["rows"] == [[1]]
            wire.close()

    def test_client_surface_returns_results_and_errors_in_order(self):
        with TipServer(":memory:", observability=False) as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as connection:
                results = connection.execute_batch([
                    "CREATE TABLE b (n INTEGER)",
                    ("INSERT INTO b VALUES (?)", (7,)),
                    "SELECT nope",
                    ("SELECT n FROM b WHERE n = ?", (7,)),
                ])
        assert [type(entry) for entry in results] == [
            RemoteResult, RemoteResult, RemoteError, RemoteResult,
        ]
        assert results[2].kind == "OperationalError"
        assert results[3].rows == [(7,)]


class TestStreamGoldenFrames:
    @staticmethod
    def _seeded_server():
        server = TipServer(":memory:", observability=False)
        with server.connection.raw as raw:
            raw.execute("CREATE TABLE s (n INTEGER)")
            raw.executemany("INSERT INTO s VALUES (?)",
                            [(n,) for n in range(5)])
        return server

    def test_rows_then_done_under_manual_credits(self):
        """chunk=2, window=1 over 5 rows: the server sends exactly one
        chunk per credit and never runs ahead of the window."""
        with self._seeded_server() as server:
            wire = _Wire(server)
            wire.round_trip({"op": "set_now", "now": NOW})
            wire.send({"op": "execute", "sql": "SELECT n FROM s ORDER BY n",
                       "params": [], "stream": True, "chunk": 2, "window": 1})
            assert wire.recv() == {"ok": True, "cont": "rows",
                                   "rows": [[0], [1]]}
            # The window is exhausted: nothing arrives until a credit.
            assert wire.quiet()
            wire.send({"op": "credit", "n": 1})
            assert wire.recv() == {"ok": True, "cont": "rows",
                                   "rows": [[2], [3]]}
            assert wire.quiet()
            wire.send({"op": "credit", "n": 1})
            # The last (short) chunk, then DONE rides out unprompted —
            # end-of-stream needs no credit.
            assert wire.recv() == {"ok": True, "cont": "rows", "rows": [[4]]}
            assert wire.recv() == {"ok": True, "cont": "done",
                                   "columns": ["n"], "rowcount": 5,
                                   "rows_streamed": 5, "statement_now": NOW}
            # Back to plain request/response on the same session.
            assert wire.round_trip({"op": "ping"}) == {"ok": True, "pong": True}
            wire.close()

    def test_non_credit_frame_mid_stream_is_a_typed_done(self):
        """A pipelining mistake (a new request before the stream ended)
        aborts the stream typed; the offending frame is consumed."""
        with self._seeded_server() as server:
            wire = _Wire(server)
            wire.round_trip({"op": "set_now", "now": NOW})
            wire.send({"op": "execute", "sql": "SELECT n FROM s ORDER BY n",
                       "params": [], "stream": True, "chunk": 2, "window": 1})
            assert wire.recv()["cont"] == "rows"
            wire.send({"op": "ping"})  # not a credit
            assert wire.recv() == {"ok": False, "cont": "done",
                                   "rows_streamed": 2,
                                   "error": "expected a credit frame during stream",
                                   "kind": "ProtocolError"}
            # The ping was swallowed with the stream; the next request
            # pairs with the next response.
            assert wire.round_trip({"op": "ping"}) == {"ok": True, "pong": True}
            wire.close()

    def test_oversized_row_fails_typed_mid_stream(self):
        """A chunk splits down to single rows under the frame bound; a
        row that still cannot fit ends the stream with FrameTooLarge."""
        with _quiet_server(max_frame_bytes=512, observability=False) as server:
            with server.connection.raw as raw:
                raw.execute("CREATE TABLE big (v TEXT)")
                raw.execute("INSERT INTO big VALUES ('small')")
                # Generated server-side: the request frame stays small.
                raw.execute("INSERT INTO big SELECT hex(zeroblob(600))")
            host, port = server.address
            with RemoteTipConnection(host, port) as connection:
                received = []
                with pytest.raises(RemoteError) as info:
                    for row in connection.stream(
                        "SELECT v FROM big ORDER BY rowid", chunk=10
                    ):
                        received.append(row)
                assert info.value.kind == "FrameTooLarge"
                # Everything before the oversized row was delivered.
                assert received == [("small",)]
                # The swallow path: the credit this client granted for
                # the delivered chunk arrives after the stream died and
                # must not desynchronize the session.
                assert connection.query_one("SELECT 1") == (1,)
            assert server.handler_errors == []

    def test_peer_death_mid_stream_closes_cleanly(self):
        """Half a credit frame then EOF while the server awaits credit:
        the session closes with no traceback and no leak."""
        with obs.capture(enabled=True) as registry:
            with _quiet_server() as server:
                with server.connection.raw as raw:
                    raw.execute("CREATE TABLE s (n INTEGER)")
                    raw.executemany("INSERT INTO s VALUES (?)",
                                    [(n,) for n in range(10)])
                wire = _Wire(server)
                wire.send({"op": "execute", "sql": "SELECT n FROM s",
                           "params": [], "stream": True,
                           "chunk": 2, "window": 1})
                assert wire.recv()["cont"] == "rows"
                wire.socket.sendall(b'{"op": "cr')  # half a frame
                wire.close()
                _await_sessions_closed(registry)
                assert registry.counter_value("server.frame.partial") >= 1
                assert server.handler_errors == []

    def test_client_stream_iterator_and_early_close(self):
        with self._seeded_server() as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as connection:
                rows = list(connection.stream("SELECT n FROM s ORDER BY n",
                                              chunk=2, window=1))
                assert rows == [(n,) for n in range(5)]
                # Early close drains the stream so the session stays
                # usable for the next request.
                iterator = connection.stream("SELECT n FROM s ORDER BY n",
                                             chunk=1, window=1)
                assert next(iterator) == (0,)
                iterator.close()
                assert connection.query_one("SELECT COUNT(*) FROM s") == (5,)


# -- the pipelining contract, property-tested --------------------------

_STATEMENTS = st.one_of(
    st.tuples(st.just("INSERT INTO h VALUES (?)"),
              st.integers(min_value=-5, max_value=5).map(lambda n: (n,))),
    st.tuples(st.just("UPDATE h SET n = n + ?"),
              st.integers(min_value=0, max_value=3).map(lambda n: (n,))),
    st.just(("SELECT n FROM h ORDER BY n", ())),
    st.just(("SELECT tip_text(tip_now())", ())),
    st.just(("SELECT nope", ())),  # a per-statement failure
    st.just(("DELETE FROM h WHERE n < 0", ())),
)


def _normalize(outcome) -> tuple:
    if isinstance(outcome, RemoteError):
        return ("error", outcome.kind)
    return ("ok", tuple(outcome.columns), tuple(outcome.rows),
            outcome.rowcount, outcome.statement_now)


def _run_one_per_frame(connection, statements):
    outcomes = []
    for sql, params in statements:
        try:
            outcomes.append(connection.execute(sql, params))
        except RemoteError as exc:
            outcomes.append(exc)
    return outcomes


@settings(max_examples=15, deadline=None)
@given(statements=st.lists(_STATEMENTS, max_size=8))
def test_batch_equivalent_to_one_per_frame(statements):
    """The contract that makes BATCH safe to adopt: same statements,
    same order, same per-statement outcomes — rows, rowcounts, error
    kinds, and statement NOWs — as one-per-frame execution."""
    def run(runner):
        with TipServer(":memory:", observability=False) as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as connection:
                connection.execute("CREATE TABLE h (n INTEGER)")
                connection.set_now(NOW)
                return [_normalize(entry)
                        for entry in runner(connection, statements)]

    batched = run(lambda c, s: c.execute_batch(s))
    sequential = run(_run_one_per_frame)
    assert batched == sequential


# -- the column-wise row codec -------------------------------------------

_TIP_VALUES = st.one_of(chronons(), spans(), instants(), periods(),
                        elements(max_periods=3))
_PLAIN_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=5),
    st.binary(max_size=5), st.floats(allow_nan=False, allow_infinity=False))


def _twin(value):
    """An equal but distinct object (a fresh, uncached decode)."""
    if isinstance(value, tuple(TAG_BY_TYPE)):
        return codec.binary._decode_bytes(codec.encode(value), stamp=False)
    return value


@st.composite
def _result_rows(draw):
    """Rows over a pool of values: one object repeated, equal twins,
    TIP columns with NULLs, fully mixed columns, or no rows at all."""
    pool = draw(st.lists(st.one_of(_TIP_VALUES, _PLAIN_VALUES),
                         min_size=1, max_size=6))
    pool += [_twin(value) for value in pool]
    width = draw(st.integers(1, 4))
    kinds = [draw(st.sampled_from(["tip-or-null", "mixed", "plain"]))
             for _ in range(width)]

    def cell(kind):
        if kind == "tip-or-null":
            return draw(st.one_of(st.none(), _TIP_VALUES,
                                  st.sampled_from(pool)))
        if kind == "plain":
            return draw(_PLAIN_VALUES)
        return draw(st.sampled_from(pool))

    return [tuple(cell(kind) for kind in kinds)
            for _ in range(draw(st.integers(0, 12)))]


def _typed(rows):
    """Rows compared by type and wire form (NOW-relative values have no
    grounded equality; ``True == 1`` must not pass)."""
    return [tuple((type(value).__name__,
                   codec.encode(value) if isinstance(value, tuple(TAG_BY_TYPE))
                   else value) for value in row) for row in rows]


class TestRowCodec:
    """``dump_rows``/``load_rows`` == the per-row ``dump_row``/``load_row``
    path, frame bytes included."""

    @settings(max_examples=150, deadline=None)
    @given(rows=_result_rows())
    def test_frames_equal_the_per_row_path(self, rows):
        frame = protocol.dump_frame({"rows": protocol.dump_rows(rows)})
        per_row = protocol.dump_frame(
            {"rows": [protocol.dump_row(row) for row in rows]})
        assert frame == per_row
        wire_rows = protocol.load_frame(frame)["rows"]
        loaded = protocol.load_rows(wire_rows)
        assert _typed(loaded) == _typed(
            [protocol.load_row(row) for row in wire_rows])
        assert _typed(loaded) == _typed(rows)

    def test_empty_frames(self):
        assert protocol.dump_rows([]) == []
        assert protocol.load_rows([]) == []

    def test_each_distinct_value_is_marshalled_once(self, monkeypatch):
        """One object repeated encodes once; equal twins encode each;
        one envelope string decodes once."""
        element = Element.from_pairs([(0, 10)])
        twin = _twin(element)
        calls = []
        dump_value, load_value = protocol.dump_value, protocol.load_value
        monkeypatch.setattr(protocol, "dump_value",
                            lambda v: calls.append("dump") or dump_value(v))
        monkeypatch.setattr(protocol, "load_value",
                            lambda v: calls.append("load") or load_value(v))
        dumped = protocol.dump_rows([(1, element), (2, element), (3, twin)])
        assert calls == ["dump", "dump"]
        loaded = protocol.load_rows(protocol.load_frame(
            protocol.dump_frame({"rows": dumped}))["rows"])
        assert calls == ["dump", "dump", "load"]
        assert loaded[0][1] is loaded[1][1] is loaded[2][1]

    def test_stream_split_by_the_frame_bound_round_trips(self):
        """Chunks too big for the frame bound are halved by the server;
        the split ROWS frames still decode to the stored rows."""
        values = [Element.from_pairs([(k * 100, k * 100 + 50)])
                  for k in range(3)]
        with TipServer(":memory:", observability=False,
                       max_frame_bytes=1024) as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as connection:
                connection.execute("CREATE TABLE t (n INTEGER, v ELEMENT)")
                for n in range(40):
                    connection.execute("INSERT INTO t VALUES (?, ?)",
                                       (n, values[n % 3]))
            wire = _Wire(server)
            wire.send({"op": "execute", "sql": "SELECT n, v FROM t ORDER BY n",
                       "params": [], "stream": True, "chunk": 40,
                       "window": 100})
            frames = []
            while True:
                frame = wire.recv()
                if frame["cont"] == "done":
                    break
                frames.append(frame)
            wire.close()
        assert len(frames) > 1  # the single 40-row chunk was split
        rows = [row for frame in frames
                for row in protocol.load_rows(frame["rows"])]
        assert _typed(rows) == _typed(
            [(n, values[n % 3]) for n in range(40)])
