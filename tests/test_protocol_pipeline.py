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
import io
import select
import socket
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import codec, obs
from repro.codec.binary import TAG_BY_TYPE
from repro.core.element import Element
from repro.columns import ColumnTable, ElementColumn
from repro.server import RemoteTipConnection, TipServer
from repro.server import protocol
from repro.server.client import RemoteError, RemoteResult
from tests.conftest import E
from tests.strategies import chronons, elements, instants, periods, spans

NOW = "1999-09-01"


class _Wire:
    """A raw socket speaking frames to a server, for golden tests."""

    def __init__(self, server, timeout=5.0):
        self.socket = socket.create_connection(server.address, timeout=timeout)
        self.reader = self.socket.makefile("rb")

    def send(self, frame: dict) -> None:
        self.socket.sendall(protocol.dump_frame(frame))

    def recv_raw(self) -> bytes:
        """One response frame's exact wire bytes: header line and body."""
        line = self.reader.readline()
        return line + self.reader.read(
            protocol.body_size(protocol.load_frame(line)))

    def recv(self) -> dict:
        """One response frame, its body checked and dropped from the
        header: each result's ``lens`` holds its segments as bytes."""
        frame = protocol.load_payload(self.recv_raw())
        frame.pop("body", None)
        frame.pop("crc", None)
        for result in [frame, *frame.get("results", [])]:
            if "lens" in result:
                result["lens"] = list(map(bytes, result["lens"]))
        return frame

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


def _ok(cols, columns, rowcount, lens=None) -> dict:
    """An execute-shaped success result under the pinned NOW.

    *cols* is the column-major ``cols`` field and *lens* its body
    segments; a result without columns (no rows, or not a query)
    carries ``"n": 0`` instead."""
    table = {"cols": cols} if cols else {"cols": [], "n": 0}
    if lens:
        table["lens"] = lens
    return {"ok": True, **table, "columns": columns,
            "rowcount": rowcount, "statement_now": NOW}


def _q(*values) -> bytes:
    """A packed int64 body segment."""
    return struct.pack(f"<{len(values)}q", *values)


def _i(*slots) -> bytes:
    """A packed int32 slot segment."""
    return struct.pack(f"<{len(slots)}i", *slots)


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
                _ok(["q"], ["1"], 1, [_q(1)]),
                _ok(["q"], ["column1"], 1, [_q(2)]),
                _ok([], [], -1),        # DDL: no cursor, engine rowcount
                _ok([], [], 1),         # the INSERT's rowcount
                _ok(["q"], ["n"], 1, [_q(3)]),  # visible in-batch
                {"ok": False, "error": "no such column: nope",
                 "kind": "OperationalError"},
            ]}
            # The failed statement aborted nothing — the session and the
            # batch's own writes both survive.
            assert wire.round_trip(
                {"op": "execute", "sql": "SELECT n FROM g", "params": []}
            ) == _ok(["q"], ["n"], 1, [_q(3)])
            wire.close()

    def test_tip_columns_exact_response(self):
        """A TIP column travels by reference: int32 slots in the body,
        each distinct value once in the value table (tag, size, blob),
        -1 for NULL — in an execute result and a batch sub-result alike."""
        element = Element.from_pairs([(0, 86_399)])
        blob = codec.encode(element)
        envelope = {"$tip": base64.b64encode(blob).decode("ascii")}
        with TipServer(":memory:", observability=False) as server:
            wire = _Wire(server)
            wire.round_trip({"op": "set_now", "now": NOW})
            wire.round_trip({"op": "execute", "params": [],
                             "sql": "CREATE TABLE g (n INTEGER, v ELEMENT)"})
            for n, value in ((1, envelope), (2, envelope), (3, None)):
                wire.round_trip({"op": "execute", "params": [n, value],
                                 "sql": "INSERT INTO g VALUES (?, ?)"})
            select = {"sql": "SELECT n, v FROM g ORDER BY n", "params": []}
            expected = _ok(["q", "i"], ["n", "v"], 3, [
                _q(1, 2, 3), _i(0, 0, -1),
                b"\x01", _q(len(blob)), blob])
            assert wire.round_trip({"op": "execute", **select}) == expected
            assert wire.round_trip({"op": "batch", "statements": [select]}) \
                == {"ok": True, "results": [expected]}
            wire.close()

    def test_golden_header_and_body_bytes(self):
        """One result frame byte for byte: the JSON header line with
        ``lens``, ``body`` and ``crc``, then the body — a BATCH's
        sub-results' segments back to back."""
        element = Element.from_pairs([(0, 86_399)])
        blob = codec.encode(element)
        with TipServer(":memory:", observability=False) as server:
            wire = _Wire(server)
            wire.round_trip({"op": "set_now", "now": NOW})
            wire.round_trip({"op": "execute", "params": [],
                             "sql": "CREATE TABLE g (n INTEGER, t TEXT, "
                                    "f REAL, v ELEMENT)"})
            wire.round_trip({"op": "execute", "sql": "INSERT INTO g "
                             "VALUES (7, 'x', 0.5, ?)", "params": [
                                 {"$tip": base64.b64encode(blob)
                                  .decode("ascii")}]})
            select = {"sql": "SELECT n, t, f, v FROM g", "params": []}
            body = _q(7) + struct.pack("<d", 0.5) + _i(0) + b"\x01" \
                + _q(len(blob)) + blob
            lens = f"[8,8,4,1,8,{len(blob)}]"
            tail = (',"columns":["n","t","f","v"],"rowcount":1,'
                    f'"statement_now":"{NOW}"')

            def framed(header: str, body: bytes) -> bytes:
                return (f'{header},"body":{len(body)},'
                        f'"crc":{zlib.crc32(body)}}}\n').encode() + body

            wire.send({"op": "execute", **select})
            assert wire.recv_raw() == framed(
                '{"ok":true,"cols":["q",["x"],"d","i"],"lens":' + lens + tail,
                body)
            wire.send({"op": "batch", "statements": [select, select]})
            sub = ('{"ok":true,"cols":["q",["x"],"d","i"],"lens":' + lens
                   + tail + "}")
            assert wire.recv_raw() == framed(
                '{"ok":true,"results":[' + sub + "," + sub + "]", body * 2)
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
            assert (second["cols"], second["lens"]) == (["q"], [_q(1)])
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
                                   "cols": ["q"], "lens": [_q(0, 1)]}
            # The window is exhausted: nothing arrives until a credit.
            assert wire.quiet()
            wire.send({"op": "credit", "n": 1})
            assert wire.recv() == {"ok": True, "cont": "rows",
                                   "cols": ["q"], "lens": [_q(2, 3)]}
            assert wire.quiet()
            wire.send({"op": "credit", "n": 1})
            # The last (short) chunk, then DONE rides out unprompted —
            # end-of-stream needs no credit.
            assert wire.recv() == {"ok": True, "cont": "rows",
                                   "cols": ["q"], "lens": [_q(4)]}
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
    st.binary(max_size=5), st.floats(allow_nan=False))


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
    grounded equality; ``True == 1`` and ``-0.0 == 0.0`` must not pass)."""
    def key(value):
        if isinstance(value, tuple(TAG_BY_TYPE)):
            return codec.encode(value)
        return value.hex() if type(value) is float else value
    return [tuple((type(value).__name__, key(value)) for value in row)
            for row in rows]


def _wire_round_trip(rows):
    """*rows* through ``dump_result``, the wire frame, and ``load_result``."""
    frame = protocol.load_payload(protocol.dump_frame(
        {"ok": True, **protocol.dump_result(rows)}))
    return frame, protocol.load_result(frame)


def _code(column) -> "str | None":
    """The body code a column must travel under, None for the header."""
    kinds = set(map(type, column))
    if kinds == {int} and all(-2**63 <= value < 2**63 for value in column):
        return "q"
    if kinds == {float}:
        return "d"
    kinds.discard(type(None))
    shared = {bytes, *TAG_BY_TYPE}
    return "i" if kinds and kinds <= shared else None


def _payload(rows) -> bytes:
    return protocol.dump_frame({"ok": True, **protocol.dump_result(rows)})


class TestRowCodec:
    """``dump_result``/``load_result``: column-major results, packed
    body columns and the per-result value table."""

    @settings(max_examples=150, deadline=None)
    @given(rows=_result_rows())
    def test_round_trips_through_the_value_table(self, rows):
        frame, loaded = _wire_round_trip(rows)
        assert _typed(loaded) == _typed(rows)
        columns = list(zip(*rows))
        # One entry per column; a frame without columns counts its rows.
        assert len(frame["cols"]) == len(columns)
        assert frame.get("n") == (None if columns else len(rows))
        distinct = set()
        for at, column in enumerate(columns):
            code = _code(column)
            if code is None:
                assert frame["cols"][at] == [
                    value if isinstance(value, (type(None), bool, int,
                                                float, str))
                    else protocol.dump_value(value) for value in column]
            else:
                assert frame["cols"][at] == code
            if code == "i":
                distinct.update(id(value) for value in column
                                if value is not None)
        # One table entry per distinct object of the slot columns.
        segments = frame.get("lens", [])
        assert (len(segments[-3]) if distinct else 0) == len(distinct)

    @settings(max_examples=60, deadline=None)
    @given(rows=_result_rows())
    def test_column_tables_frame_like_rows(self, rows):
        """A kernel's column table and the same rows write one frame."""
        table = ColumnTable(list(map(list, zip(*rows))), len(rows))
        assert protocol.dump_result(table) == protocol.dump_result(rows)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(-2**63, 2**63 - 1),
                              st.integers(0, 3)), max_size=10),
           st.lists(st.lists(st.tuples(st.integers(0, 10**9),
                                       st.integers(0, 10**6)),
                             max_size=3), min_size=4, max_size=4))
    def test_native_columns_pack_like_their_values(self, rows, pairs):
        """An int64 array and an ElementColumn frame the values their
        ``tuples()`` give, and load back to them."""
        elements = [Element.from_pairs([(lo, lo + width)
                                        for lo, width in item])._pairs
                    for item in pairs]
        flat = [pair for item in elements for pair in item]
        table = ColumnTable([
            np.array([n for n, _ in rows], np.int64),
            ElementColumn(np.array([slot for _, slot in rows], np.int64),
                          np.array(list(map(len, elements)), np.int64),
                          np.array([lo for lo, _ in flat], np.int64),
                          np.array([hi for _, hi in flat], np.int64)),
        ], len(rows))
        expected = table.tuples()
        assert _typed(protocol.load_result(
            protocol.load_payload(protocol.dump_frame(
                protocol.dump_result(table))))) == _typed(expected)
        assert protocol.dump_result(table)["cols"] == ["q", "i"]

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
        assert protocol.dump_frame(protocol.dump_result([])) \
            == b'{"cols":[],"n":0}\n'

    def test_plain_frames_carry_no_table(self):
        assert protocol.dump_result([(1, "a", None), (2.5, True, "b")]) == {
            "cols": [[1, 2.5], ["a", True], [None, "b"]]}

    def test_edge_values_keep_their_types(self):
        """Bools stay JSON (never packed as ints); ints beyond int64
        stay in the header; floats pack exactly, ``-0.0`` and ``inf``
        included; NOW-relative Elements ride the value table."""
        moving = Element.parse("{[1999-01-01, NOW]}")
        rows = [(True, 2**63, -0.0, moving, 1),
                (False, 1, float("inf"), None, -2**63)]
        frame, loaded = _wire_round_trip(rows)
        assert frame["cols"] == [[True, False], [2**63, 1], "d", "i", "q"]
        assert _typed(loaded) == _typed(rows)

    def test_each_distinct_value_is_marshalled_once(self, monkeypatch):
        """One object repeated encodes once and decodes once; equal but
        distinct objects get an entry each."""
        element = Element.from_pairs([(0, 10)])
        twin = _twin(element)
        calls = []
        encode, decode = codec.encode, codec.binary.decode
        monkeypatch.setattr(codec, "encode",
                            lambda v: calls.append("dump") or encode(v))
        monkeypatch.setattr(codec.binary, "decode",
                            lambda v: calls.append("load") or decode(v))
        rows = [(1, element), (2, element), (3, None), (4, twin), (5, element)]
        frame, loaded = _wire_round_trip(rows)
        assert frame["cols"] == ["q", "i"]
        assert bytes(frame["lens"][1]) == _i(0, 0, -1, 1, 0)
        assert bytes(frame["lens"][2]) == b"\x01\x01"
        assert calls == ["dump", "dump", "load", "load"]
        assert loaded[0][1] is loaded[1][1] is loaded[4][1]
        assert loaded[2] == (3, None)
        assert _typed(loaded) == _typed(rows)

    def test_mixed_columns_and_bytes(self):
        """A column mixing text and TIP values keeps envelopes in place;
        a bytes column with NULLs rides the value table raw (tag 0)."""
        element = Element.from_pairs([(0, 10)])
        raw = b"\x00\x01"
        rows = [(element, raw, 1), ("text", None, 2), (element, raw, 3)]
        frame, loaded = _wire_round_trip(rows)
        envelope = {"$tip": base64.b64encode(codec.encode(element))
                    .decode("ascii")}
        assert frame["cols"] == [[envelope, "text", envelope], "i", "q"]
        # The same object twice is one entry; two distinct bytes
        # objects (as SQLite hands them out) are two.
        assert list(map(bytes, frame["lens"])) == [
            _i(0, -1, 0), _q(1, 2, 3), b"\x00", _q(2), raw]
        assert _typed(loaded) == _typed(rows)
        frame, _ = _wire_round_trip([(raw,), (bytes([0, 1]),)])
        assert bytes(frame["lens"][1]) == b"\x00\x00"

    def test_malformed_tables_fail_typed(self):
        tip = codec.encode(Element.from_pairs([(0, 10)]))
        table = [b"\x01", _q(len(tip)), tip]
        for result in (
            {"cols": ["i"], "lens": [_i(1), *table]},        # slot past end
            {"cols": ["i"], "lens": [_i(-2), *table]},       # slot below -1
            {"cols": ["i"], "lens": [_i(0)]},                # no table
            {"cols": ["i"], "lens": [_i(0), b"\x07", _q(len(tip)), tip]},
            {"cols": ["i"], "lens": [_i(0), b"\x01", _q(99), tip]},
            {"cols": ["q"], "lens": [b"\x00" * 7]},          # partial item
            {"cols": ["q"], "lens": [_q(1), _q(2)]},         # extra segment
            {"cols": ["x"], "lens": [_q(1)]},                # unknown code
            {"cols": ["q"]},                                 # no segment
            {"cols": ["q", [1]], "lens": [_q(1, 2)]},        # ragged columns
            {"cols": [[1, 2], [3]]},                         # ragged columns
            {"cols": [[1, 2], "ab"]},                        # not a list
            {"cols": [[1, 2]], "n": 3},                      # n disagrees
            {"cols": [], "n": -1},                           # negative count
            {"cols": [], "n": "2"},                          # count not int
            {"cols": {"0": [1]}},                            # cols not a list
        ):
            with pytest.raises(protocol.ProtocolError):
                protocol.load_result(result)

    def test_malformed_bodies_fail_typed(self):
        """A short body, a flipped body byte (CRC mismatch) and ``lens``
        that do not sum to the body never load, nor any row of them."""
        rows = [(n, Element.from_pairs([(n, n + 5)])) for n in range(4)]
        payload = _payload(rows)
        line, _, body = payload.partition(b"\n")
        header = protocol.load_frame(line)
        flipped = bytearray(body)
        flipped[len(body) // 2] ^= 0x10
        lens = header["lens"]
        for bad in (
            line + b"\n" + body[:-1],                          # short body
            line + b"\n" + body + b"\x00",                     # long body
            line + b"\n" + bytes(flipped),                     # CRC mismatch
            protocol.dump_frame({**header, "lens": lens[:-1]})[:-1]
            + b"\n" + body,                                    # lens short
            protocol.dump_frame({**header, "lens": lens + [0, 3]})[:-1]
            + b"\n" + body,                                    # lens long
            line[:len(line) // 2],                             # no newline
        ):
            with pytest.raises(protocol.ProtocolError):
                protocol.load_payload(bad)
        assert _typed(protocol.load_result(protocol.load_payload(payload))) \
            == _typed(rows)
        # A header announcing a huge body reads only what arrives.
        huge = protocol.load_frame(line)
        huge["body"] = 1 << 62
        with pytest.raises(protocol.ProtocolError):
            protocol.read_body(io.BytesIO(body), huge)
        assert protocol.read_body(io.BytesIO(body + b"next"), header) == body

    def test_window_join_sized_frame_is_smaller(self):
        """~8k rows over ~1.3k distinct validities (the windowed path
        join's shape): the packed columns and value table beat one
        envelope per row, and carry no base64."""
        validities = [Element.from_pairs([(k * 1000, k * 1000 + 500),
                                          (k * 1000 + 700, k * 1000 + 900)])
                      for k in range(1300)]
        rows = [(n, n % 997, validities[n % 1300]) for n in range(8000)]
        table = _payload(rows)
        per_row = protocol.dump_frame(
            {"rows": [protocol.dump_row(row) for row in rows]})
        assert len(table) < 0.5 * len(per_row)
        assert b"$tip" not in table
        assert _typed(protocol.load_result(protocol.load_payload(table))) \
            == _typed(rows)

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

    def test_remote_equals_embedded_on_edge_values(self):
        """NULLs, mixed storage classes, bytes, floats (``-0.0``,
        ``inf``) and NOW-relative Elements in the value table come back
        from a remote session exactly as from an embedded one, through
        packed, slot and header columns alike."""
        stored = [
            (1, None, -0.0, b"\x00\x01", E("{[1999-01-01, NOW]}"), "x"),
            (2, 2.5, float("inf"), None, E("{[1999-01-01, 1999-02-01]}"), 3),
            (3, "t", float("-inf"), b"", None, b"\x07"),
            (4, b"\x02", 1e300, b"\x00\x01", E("{[NOW - 5, NOW + 5]}"), None),
        ]
        ddl = "CREATE TABLE t (n INTEGER, m, f REAL, b BLOB, v ELEMENT, x)"
        queries = ["SELECT * FROM t ORDER BY n", "SELECT f, n FROM t",
                   "SELECT v, b, v FROM t ORDER BY n DESC",
                   "SELECT m, x FROM t WHERE n > 1", "SELECT v FROM t "
                   "WHERE v IS NULL", "SELECT n, tip_text(v) FROM t"]
        with repro.connect(now=NOW) as embedded:
            embedded.execute(ddl)
            embedded.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)",
                                 stored)
            expected = [_typed(embedded.query(sql)) for sql in queries]
        with TipServer(":memory:", observability=False) as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as connection:
                connection.set_now(NOW)
                connection.execute(ddl)
                for row in stored:
                    connection.execute(
                        "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", row)
                assert [_typed(connection.query(sql))
                        for sql in queries] == expected

    def test_stream_split_by_the_frame_bound_round_trips(self):
        """Chunks too big for the frame bound are cut by the server to
        the rows that fit; each ROWS frame carries its own value table
        and they still decode to the stored rows."""
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
                raw = wire.recv_raw()
                frame = protocol.load_payload(raw)
                if frame["cont"] == "done":
                    break
                assert len(raw) <= 1024  # the bound holds header and body
                frames.append(frame)
            wire.close()
        assert len(frames) > 1  # the single 40-row chunk was split
        for frame in frames:
            assert frame["cols"] == ["q", "i"]
            count = len(frame["lens"][0]) // 8
            assert len(frame["lens"][2]) == min(20, count)  # its own table
        rows = [row for frame in frames
                for row in protocol.load_result(frame)]
        assert _typed(rows) == _typed(
            [(n, values[n % 20]) for n in range(40)])
