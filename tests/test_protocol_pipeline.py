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

import base64
import json
import select
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codec, obs
from repro.codec.binary import TAG_BY_TYPE
from repro.core.element import Element
from repro.columns import ColumnTable
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


def _ok(cols, columns, rowcount) -> dict:
    """An execute-shaped success result under the pinned NOW.

    *cols* is the column-major ``cols`` field; a result without
    columns (no rows, or not a query) carries ``"n": 0`` instead."""
    table = {"cols": cols} if cols else {"cols": [], "n": 0}
    return {"ok": True, **table, "columns": columns,
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

    def test_tip_columns_exact_response(self):
        """A TIP column travels by reference: indices in ``cols``, each
        distinct value once in ``values``, its position in ``refs`` —
        in an execute result and in a batch sub-result alike."""
        element = Element.from_pairs([(0, 86_399)])
        envelope = {"$tip": base64.b64encode(codec.encode(element))
                    .decode("ascii")}
        with TipServer(":memory:", observability=False) as server:
            wire = _Wire(server)
            wire.round_trip({"op": "set_now", "now": NOW})
            wire.round_trip({"op": "execute", "params": [],
                             "sql": "CREATE TABLE g (n INTEGER, v ELEMENT)"})
            for n, value in ((1, envelope), (2, envelope), (3, None)):
                wire.round_trip({"op": "execute", "params": [n, value],
                                 "sql": "INSERT INTO g VALUES (?, ?)"})
            select = {"sql": "SELECT n, v FROM g ORDER BY n", "params": []}
            expected = {**_ok([[1, 2, 3], [0, 0, None]], ["n", "v"], 3),
                        "values": [envelope], "refs": [1]}
            assert wire.round_trip({"op": "execute", **select}) == expected
            assert wire.round_trip({"op": "batch", "statements": [select]}) \
                == {"ok": True, "results": [expected]}
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
            assert second["cols"] == [[1]]
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
                                   "cols": [[0, 1]]}
            # The window is exhausted: nothing arrives until a credit.
            assert wire.quiet()
            wire.send({"op": "credit", "n": 1})
            assert wire.recv() == {"ok": True, "cont": "rows",
                                   "cols": [[2, 3]]}
            assert wire.quiet()
            wire.send({"op": "credit", "n": 1})
            # The last (short) chunk, then DONE rides out unprompted —
            # end-of-stream needs no credit.
            assert wire.recv() == {"ok": True, "cont": "rows", "cols": [[4]]}
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


def _wire_round_trip(rows):
    """*rows* through ``dump_result``, the JSON frame, and ``load_result``."""
    frame = protocol.load_frame(protocol.dump_frame(
        {"ok": True, **protocol.dump_result(rows)}))
    return frame, protocol.load_result(frame)


class TestRowCodec:
    """``dump_result``/``load_result``: column-major frames and the
    per-frame value table."""

    @settings(max_examples=150, deadline=None)
    @given(rows=_result_rows())
    def test_round_trips_through_the_value_table(self, rows):
        frame, loaded = _wire_round_trip(rows)
        assert _typed(loaded) == _typed(rows)
        refs = frame.get("refs", [])
        plain = (type(None), bool, int, float, str)
        distinct = set()
        columns = list(zip(*rows))
        # One list per column; a frame without columns counts its rows.
        assert len(frame["cols"]) == len(columns)
        assert frame.get("n") == (None if columns else len(rows))
        for at, column in enumerate(columns):
            assert len(frame["cols"][at]) == len(rows)
            enveloped = [v for v in column if not isinstance(v, plain)]
            everywhere = len(enveloped) == sum(v is not None for v in column)
            # A column of only TIP/bytes cells (and NULLs) is by
            # reference; a mixed one keeps its envelopes in place.
            assert (at in refs) == bool(enveloped and everywhere)
            distinct.update(map(id, enveloped))
            if at in refs:
                assert all(isinstance(slot, int)
                           for slot in frame["cols"][at] if slot is not None)
        # One entry per distinct enveloped object, when any column
        # refers to the table.
        assert len(frame.get("values", [])) == (len(distinct) if refs else 0)

    @settings(max_examples=60, deadline=None)
    @given(rows=_result_rows())
    def test_column_tables_frame_like_rows(self, rows):
        """A kernel's column table and the same rows write one frame."""
        table = ColumnTable(list(map(list, zip(*rows))), len(rows))
        assert protocol.dump_result(table) == protocol.dump_result(rows)

    def test_empty_frames(self):
        assert protocol.dump_result([]) == {"cols": [], "n": 0}
        assert protocol.load_result({"cols": [], "n": 0}) == []
        assert protocol.load_result({}) == []
        # Columns without rows, and rows without columns.
        assert protocol.dump_result(ColumnTable([[], []], 0)) \
            == {"cols": [[], []]}
        assert protocol.load_result({"cols": [[], []]}) == []
        assert protocol.dump_result([(), ()]) == {"cols": [], "n": 2}
        assert protocol.load_result({"cols": [], "n": 2}) == [(), ()]

    def test_plain_frames_carry_no_table(self):
        assert protocol.dump_result([(1, "a", None), (2.5, True, "b")]) == {
            "cols": [[1, 2.5], ["a", True], [None, "b"]]}

    def test_each_distinct_value_is_marshalled_once(self, monkeypatch):
        """One object repeated encodes once and decodes once; equal but
        distinct objects get an entry each."""
        element = Element.from_pairs([(0, 10)])
        twin = _twin(element)
        calls = []
        dump_value, load_value = protocol.dump_value, protocol.load_value
        monkeypatch.setattr(protocol, "dump_value",
                            lambda v: calls.append("dump") or dump_value(v))
        monkeypatch.setattr(protocol, "load_value",
                            lambda v: calls.append("load") or load_value(v))
        rows = [(1, element), (2, element), (3, None), (4, twin), (5, element)]
        frame, loaded = _wire_round_trip(rows)
        assert frame["cols"] == [[1, 2, 3, 4, 5], [0, 0, None, 1, 0]]
        assert frame["refs"] == [1] and len(frame["values"]) == 2
        assert calls == ["dump", "dump", "load", "load"]
        assert loaded[0][1] is loaded[1][1] is loaded[4][1]
        assert loaded[2] == (3, None)
        assert _typed(loaded) == _typed(rows)

    def test_mixed_columns_and_bytes(self):
        """A column mixing text and TIP values keeps envelopes in place;
        a bytes column with NULLs rides the value table as ``$bytes``."""
        element = Element.from_pairs([(0, 10)])
        rows = [(element, b"\x00\x01", 1), ("text", None, 2),
                (element, b"\x00\x01", 3)]
        frame, loaded = _wire_round_trip(rows)
        envelope = {"$tip": base64.b64encode(codec.encode(element))
                    .decode("ascii")}
        assert frame["refs"] == [1]
        assert frame["cols"] == [[envelope, "text", envelope], [1, None, 1],
                                 [1, 2, 3]]
        # The same object twice is one entry; two distinct bytes
        # objects (as SQLite hands them out) are two.
        assert frame["values"] == [envelope, {"$bytes": "AAE="}]
        assert _typed(loaded) == _typed(rows)
        frame, _ = _wire_round_trip([(b"\x00\x01",), (bytes([0, 1]),)])
        assert len(frame["values"]) == 2

    def test_malformed_tables_fail_typed(self):
        for frame in (
            {"cols": [[0]], "refs": [0], "values": []},      # slot past end
            {"cols": [[0]], "refs": [0]},                    # no table
            {"cols": [["x"]], "refs": [0], "values": [1]},   # not an index
            {"cols": [[2]], "refs": [0], "values": [1, 2]},  # slot past end
            {"cols": [[1]], "refs": [3], "values": []},      # ref past end
            {"cols": [[1, 2], [3]]},                         # ragged columns
            {"cols": [[1, 2], "ab"]},                        # not a list
            {"cols": [[1, 2]], "n": 3},                      # n disagrees
            {"cols": [], "n": -1},                           # negative count
            {"cols": [], "n": "2"},                          # count not int
            {"cols": {"0": [1]}},                            # cols not a list
        ):
            with pytest.raises(protocol.ProtocolError):
                protocol.load_result(frame)

    def test_window_join_sized_frame_is_smaller(self):
        """~8k rows over ~1.3k distinct validities (the windowed path
        join's shape): the value table beats one envelope per row."""
        validities = [Element.from_pairs([(k * 1000, k * 1000 + 500),
                                          (k * 1000 + 700, k * 1000 + 900)])
                      for k in range(1300)]
        rows = [(n, n % 997, validities[n % 1300]) for n in range(8000)]
        table = protocol.dump_frame(protocol.dump_result(rows))
        per_row = protocol.dump_frame(
            {"rows": [protocol.dump_row(row) for row in rows]})
        assert len(table) < 0.5 * len(per_row)

    def test_every_result_path_round_trips(self):
        """execute, batch, stream and prepared results all carry the
        value table: TIP, ``$bytes``, mixed and NULL cells, repeated
        values, and empty results."""
        element = Element.from_pairs([(0, 86_400)])
        stored = [(n, element if n % 3 else None, bytes([n]) * 3,
                   "text" if n % 2 else element) for n in range(12)]
        select = "SELECT n, v, b, m FROM t ORDER BY n"
        empty = "SELECT n, v FROM t WHERE n < 0"
        with TipServer(":memory:", observability=False) as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as connection:
                connection.execute(
                    "CREATE TABLE t (n INTEGER, v ELEMENT, b BLOB, m)")
                for row in stored:
                    connection.execute("INSERT INTO t VALUES (?, ?, ?, ?)",
                                       row)
                expected = _typed(stored)
                assert _typed(connection.execute(select).rows) == expected
                batch = connection.execute_batch([select, empty])
                assert _typed(batch[0].rows) == expected
                assert batch[1].rows == []
                assert _typed(connection.stream(select, chunk=5)) == expected
                assert list(connection.stream(empty)) == []
                with connection.prepare(
                        "SELECT n, v, b, m FROM t WHERE n >= ? "
                        "ORDER BY n") as statement:
                    assert _typed(statement.execute((0,)).rows) == expected
                    assert statement.execute((99,)).rows == []

    def test_stream_split_by_the_frame_bound_round_trips(self):
        """Chunks too big for the frame bound are halved by the server;
        each split ROWS frame carries its own value table and they
        still decode to the stored rows."""
        values = [Element.from_pairs([(k * 100, k * 100 + 50)])
                  for k in range(20)]
        with TipServer(":memory:", observability=False,
                       max_frame_bytes=1024) as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as connection:
                connection.execute("CREATE TABLE t (n INTEGER, v ELEMENT)")
                for n in range(40):
                    connection.execute("INSERT INTO t VALUES (?, ?)",
                                       (n, values[n % 20]))
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
        for frame in frames:
            assert frame["refs"] == [1]
            assert len(frame["values"]) == min(20, len(frame["cols"][0]))
        rows = [row for frame in frames
                for row in protocol.load_result(frame)]
        assert _typed(rows) == _typed(
            [(n, values[n % 20]) for n in range(40)])
