"""Table images and read snapshots for the planner kernels.

A kernel statement reads every input in one read transaction, and a
connection keeps a whole-table image per ``(table, validity column)``
while the data version is unchanged (:mod:`repro.plan.images`).  The
naive UDF path stays the oracle: after every event that can move a
table under an image — writes on the same connection, another
connection's commit, ``DROP`` and re-``CREATE``, ``VACUUM``, a rolled
back insert, an old read snapshot, a new ``NOW`` — kernel rows equal
naive rows.  The churn rule, the retained-rows ceiling, the image
counters, ``WITHOUT ROWID`` tables and columns named like the rowid
are covered too, as is :func:`repro.codec.binary.merge_pairs` past its
one-key headroom.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import codec, obs, plan
from repro.errors import CodecError
from repro.obs import flight
from repro.plan import images
from repro.server import RemoteTipConnection, TipServer
from repro.server.pool import ConnectionPool
from repro.client.connection import TipConnection
from repro.tsql import TsqlSession
from repro.tsql.explain import explain_temporal
from tests.conftest import DEMO_NOW, E
from tests.test_plan_kernels import (
    _filters, _forced, _load_mixed, _mixed_tables, _multiset, _where,
    _windows,
)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

TABLE = "CREATE TABLE t (k INTEGER, tag TEXT, valid ELEMENT)"
JOIN_Q = ("VALIDTIME SELECT x.k, x.tag, y.tag FROM t AS x, t AS y "
          "WHERE x.k = y.k AND x.tag = 'a'")
COALESCE_Q = ("SELECT k, length_seconds(group_union(valid)) FROM t "
              "WHERE tag <> 'b' GROUP BY k")
ELEMENT_Q = "SELECT tag, group_union(valid) FROM t GROUP BY tag"
QUERIES = (JOIN_Q, COALESCE_Q, ELEMENT_Q)

#: Validities near the demo NOW, NOW-relative ones included.
VALIDITIES = [E("{[1999-01-01, 1999-06-01]}"),
              E("{[1999-03-01, 1999-09-01], [1999-10-01, 1999-11-01]}"),
              E("{[1999-05-01, NOW]}"), E("{[NOW - 30, NOW + 30]}"), None]


def _rows(count, start=0):
    return [(n % 5, "abc"[n % 3], VALIDITIES[n % len(VALIDITIES)])
            for n in range(start, start + count)]


@pytest.fixture
def forced_planner():
    with _forced():
        yield


def _naive(session, query):
    plan.configure(enabled=False)
    try:
        return session.query(query)
    finally:
        plan.configure(enabled=True)


def _kernel(session, query):
    """A kernel statement's rows and the image state it read."""
    flight.clear()
    flight.enable()
    try:
        rows = session.query(query)
    finally:
        flight.disable()
    (event,) = flight.snapshot(kind="plan.kernel")
    return rows, event["data"]["image"]


def _agree(session, queries=QUERIES):
    """Kernel == naive for every query; the image states in order."""
    states = []
    for query in queries:
        rows, state = _kernel(session, query)
        assert _multiset(rows) == _multiset(_naive(session, query)), query
        states.append(state)
    return states


def _warm(session):
    """Run the queries until the table's image is retained (a hit)."""
    assert _agree(session) == ["transient", "miss", "hit"]


@pytest.fixture
def conn():
    connection = repro.connect(now=DEMO_NOW)
    connection.execute(TABLE)
    connection.executemany("INSERT INTO t VALUES (?, ?, ?)", _rows(40))
    connection.commit()
    yield connection
    connection.close()


def _wal_pair(tmp_path):
    """A WAL database holding ``t``, and a writer connection on it."""
    path = str(tmp_path / "images.db")
    writer = repro.connect(path, check_same_thread=False)
    writer.execute("PRAGMA journal_mode=WAL")
    writer.execute(TABLE)
    writer.executemany("INSERT INTO t VALUES (?, ?, ?)", _rows(40))
    writer.commit()
    return path, writer


class TestImageMatrix:
    def test_writes_on_the_same_connection(self, conn, forced_planner):
        session = TsqlSession(conn)
        _warm(session)
        for write in ("INSERT INTO t VALUES (1, 'a', element('{[1999-02-01, "
                      "1999-04-01]}'))",
                      "UPDATE t SET tag = 'b' WHERE k = 2",
                      "DELETE FROM t WHERE k = 3"):
            conn.execute(write)
            conn.commit()
            assert _agree(session)[0] == "transient"

    def test_commit_from_another_connection(self, tmp_path, forced_planner):
        path, writer = _wal_pair(tmp_path)
        reader = repro.connect(path, now=DEMO_NOW)
        session = TsqlSession(reader)
        _warm(session)
        writer.executemany("INSERT INTO t VALUES (?, ?, ?)", _rows(7, 40))
        writer.commit()
        assert _agree(session) == ["transient", "miss", "hit"]
        reader.close()
        writer.close()

    def test_drop_and_recreate(self, conn, forced_planner):
        session = TsqlSession(conn)
        _warm(session)
        conn.execute("DROP TABLE t")
        conn.execute(TABLE)
        conn.executemany("INSERT INTO t VALUES (?, ?, ?)", _rows(9, 3))
        conn.commit()
        assert _agree(session)[0] == "transient"

    def test_temp_table_shadowing(self, conn, forced_planner):
        session = TsqlSession(conn)
        _warm(session)
        conn.execute(f"CREATE TEMP TABLE t AS SELECT * FROM main.t "
                     "WHERE k < 2")
        assert _agree(session)[0] == "transient"

    def test_vacuum_renumbers_rowids(self, tmp_path, forced_planner):
        path, writer = _wal_pair(tmp_path)
        writer.execute("DELETE FROM t WHERE rowid % 3 = 0")
        writer.commit()
        writer.close()
        connection = repro.connect(path, now=DEMO_NOW)
        session = TsqlSession(connection)
        _warm(session)
        before = connection.query("SELECT rowid FROM t")
        connection.execute("VACUUM")
        assert connection.query("SELECT rowid FROM t") != before
        with obs.capture():
            assert _agree(session)[0] == "transient"
            counters = obs.snapshot()["counters"]
        assert counters["plan.image.invalidations"] == 1
        connection.close()

    def test_rollback_after_an_uncommitted_insert(self, conn, forced_planner):
        session = TsqlSession(conn)
        _warm(session)
        conn.execute("INSERT INTO t VALUES (4, 'a', element('{[1999-01-01, "
                      "1999-12-01]}'))")
        assert conn.raw.in_transaction
        # Inside the transaction: the statement reads its own image.
        assert set(_agree(session)) == {"transient"}
        conn.rollback()
        assert _agree(session)[0] == "transient"

    def test_old_read_snapshot(self, tmp_path, forced_planner):
        path, writer = _wal_pair(tmp_path)
        reader = repro.connect(path, now=DEMO_NOW)
        session = TsqlSession(reader)
        _warm(session)
        reader.execute("BEGIN")
        reader.query("SELECT COUNT(*) FROM t")
        writer.executemany("INSERT INTO t VALUES (?, ?, ?)", _rows(5, 40))
        writer.commit()
        old = [_multiset(_kernel(session, query)[0]) for query in QUERIES]
        assert set(_agree(session)) == {"transient"}
        reader.rollback()
        new = [_multiset(_kernel(session, query)[0]) for query in QUERIES]
        assert old != new
        reader.close()
        writer.close()

    def test_now_relative_elements_under_two_nows(self, conn, forced_planner):
        session = TsqlSession(conn)
        _warm(session)
        for now in ("1999-07-15", "2001-01-01"):
            conn.set_now(now)
            assert _agree(session) == ["hit", "hit", "hit"]

    def test_malformed_blob_outside_the_filter(self, conn, forced_planner):
        bad = codec.encode(E("{[1999-01-01, 1999-06-01]}"))[:-3]
        conn.execute("INSERT INTO t VALUES (9, 'b', ?)", (bad,))
        conn.commit()
        session = TsqlSession(conn)
        query = ("SELECT k, length_seconds(group_union(valid)) FROM t "
                 "WHERE tag <> 'b' GROUP BY k")
        with pytest.raises(CodecError) as expected:
            codec.decode(bad)
        assert _agree(session, [query] * 3) == ["transient", "miss", "hit"]
        # Selected, it raises the per-blob error: from the retained
        # image, and from one built inside a transaction.
        for begin in (False, True):
            if begin:
                conn.execute("BEGIN")
            with pytest.raises(CodecError) as raised:
                session.query(ELEMENT_Q)
            assert str(raised.value) == str(expected.value)
        conn.rollback()

    def test_churned_table_never_retains(self, conn, forced_planner):
        session = TsqlSession(conn)
        for n in range(4):
            conn.executemany("INSERT INTO t VALUES (?, ?, ?)", _rows(2, n))
            conn.commit()
            assert _agree(session, [COALESCE_Q]) == ["transient"]
            assert not conn.table_images.images

    def test_retained_rows_ceiling(self, conn, forced_planner, monkeypatch):
        monkeypatch.setattr(images, "RETAINED_ROWS", 39)
        session = TsqlSession(conn)
        assert _agree(session) == ["transient"] * 3

    def test_reader_pool_under_two_sessions(self, tmp_path, forced_planner):
        path, writer = _wal_pair(tmp_path)
        writer.close()
        with TipServer(path, observability=False) as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as first, \
                    RemoteTipConnection(host, port) as second:
                for session in (first, second):
                    session.set_now(DEMO_NOW)
                oracle = repro.connect(path, now=DEMO_NOW)
                oracle_session = TsqlSession(oracle)
                for round_ in range(4):
                    for session in (first, second):
                        for query in QUERIES:
                            assert _multiset(session.query(query)) \
                                == _multiset(_naive(oracle_session, query))
                    first.execute("INSERT INTO t VALUES (?, ?, ?)",
                                  _rows(1, round_)[0])
                oracle.close()


class TestCodedKeys:
    """Image columns number their distinct values: keys that mix ints,
    floats, NULL and text join and group as SQLite's ``=`` and ``GROUP
    BY`` do, across one or two key columns."""

    QUERIES = (
        "VALIDTIME SELECT x.k, x.tag, y.k FROM t AS x, t AS y "
        "WHERE x.k = y.k AND x.tag = y.tag",
        "VALIDTIME SELECT x.k, y.k FROM t AS x, u AS y WHERE x.k = y.k",
        "SELECT k, tag, length_seconds(group_union(valid)) FROM t "
        "GROUP BY k, tag",
        "SELECT tag, k, group_union(valid) FROM t GROUP BY tag, k",
    )

    def test_kernel_equals_naive(self, forced_planner):
        keys = [1, 1.0, 2, None, "1", 2.5]
        with repro.connect(now=DEMO_NOW) as connection:
            for table in ("t", "u"):
                connection.execute(f"CREATE TABLE {table} (k, tag TEXT, "
                                   "valid ELEMENT)")
                connection.executemany(
                    f"INSERT INTO {table} VALUES (?, ?, ?)",
                    [(keys[n % len(keys)], (None, "a", "b")[n % 3], valid)
                     for n, (_k, _tag, valid) in enumerate(_rows(30))])
            connection.commit()
            session = TsqlSession(connection)
            for _ in range(3):  # transient, miss, hit
                for query in self.QUERIES:
                    kernel = _kernel(session, query)[0]
                    assert _multiset(kernel) \
                        == _multiset(_naive(session, query)), query


class TestRetainedDifferential:
    """The generated mixed tables of the pushdown suite, read three
    times — a transient image, then the built one, then a hit — with
    per-side filters run as rowid selections over the retained image:
    kernel rows equal naive rows, in (left, right) table order."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=_mixed_tables, left_filters=_filters,
           right_filters=_filters, window=_windows,
           key=st.sampled_from(["k", "u"]))
    def test_kernel_equals_naive(self, forced_planner, rows, left_filters,
                                 right_filters, window, key):
        conjuncts = _where("l", left_filters) + _where("r", right_filters)
        join = ((f"VALIDTIME PERIOD '{window}' " if window else "VALIDTIME ")
                + "SELECT l.id, r.id, l.u, r.s FROM L AS l, L AS r "
                + " WHERE " + " AND ".join([f"l.{key} = r.{key}"]
                                           + conjuncts))
        where = " AND ".join(_where("", left_filters))
        coalesce = (f"SELECT {key}, group_union(valid) FROM L "
                    + (f"WHERE {where} " if where else "")
                    + f"GROUP BY {key}")
        with repro.connect(now=DEMO_NOW) as connection:
            _load_mixed(connection, "L", rows)
            session = TsqlSession(connection)
            states = []
            for query in (join, coalesce) * 2:
                kernel, state = _kernel(session, query)
                states.append(state)
                assert _multiset(kernel) \
                    == _multiset(_naive(session, query)), query
                if query is join:
                    ids = [row[:2] for row in kernel]
                    assert ids == sorted(ids)
            assert states == ["transient", "miss", "hit", "hit"]


class TestSnapshot:
    """A join's two side reads and the row-count probe share one read
    transaction: a writer committing between them changes nothing."""

    QUERY = ("VALIDTIME SELECT x.tag, y.tag FROM s AS x, s AS y "
             "WHERE x.k = y.k AND x.tag = 'a' AND y.tag = 'c'")

    def _database(self, tmp_path):
        path = str(tmp_path / "snapshot.db")
        writer = repro.connect(path, check_same_thread=False)
        writer.execute("PRAGMA journal_mode=WAL")
        writer.execute("CREATE TABLE s (k INTEGER, tag TEXT, valid ELEMENT)")
        writer.execute("INSERT INTO s VALUES (1, 'a', element('{[1999-01-01, "
                       "1999-06-01]}'))")
        writer.commit()
        return path, writer

    def _commit_after_first_fetch(self, monkeypatch, writer):
        """Between the kernel's first and second fetch, the writer
        inserts a 'c' row and then another 'a' row, committing each."""
        fetch = TipConnection.query_stored_columns
        calls = []

        def fetch_then_write(self, sql, parameters=()):
            columns = fetch(self, sql, parameters)
            calls.append(sql)
            if len(calls) == 1:
                for tag in ("c", "a"):
                    writer.execute(
                        "INSERT INTO s VALUES (1, ?, element('{[1999-02-01, "
                        "1999-05-01]}'))", (tag,))
                    writer.commit()
            return columns

        monkeypatch.setattr(TipConnection, "query_stored_columns",
                            fetch_then_write)
        return calls

    def test_embedded_connection(self, tmp_path, forced_planner,
                                 monkeypatch):
        path, writer = self._database(tmp_path)
        reader = repro.connect(path, now=DEMO_NOW)
        session = TsqlSession(reader)
        assert _naive(session, self.QUERY) == []
        calls = self._commit_after_first_fetch(monkeypatch, writer)
        with obs.capture():
            rows = session.query(self.QUERY)
            assert obs.snapshot()["counters"].get("plan.kernel.join") == 1
        assert len(calls) == 2 and rows == []
        assert len(_naive(session, self.QUERY)) == 2
        assert len(session.query(self.QUERY)) == 2
        reader.close()
        writer.close()

    def test_pool_reader(self, tmp_path, forced_planner, monkeypatch):
        path, writer = self._database(tmp_path)
        with TipServer(path, observability=False) as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as remote:
                remote.set_now(DEMO_NOW)
                calls = self._commit_after_first_fetch(monkeypatch, writer)
                assert remote.query(self.QUERY) == []
                assert len(calls) == 2
                assert len(remote.query(self.QUERY)) == 2
        writer.close()


class TestObservability:
    def test_counters_and_flight_states(self, conn, forced_planner):
        session = TsqlSession(conn)
        with obs.capture():
            _warm(session)
            conn.execute("DELETE FROM t WHERE k = 0")
            conn.commit()
            _agree(session, [COALESCE_Q])
            counters = obs.snapshot()["counters"]
        assert counters["plan.image.hits"] == 1
        assert counters["plan.image.misses"] == 3
        assert counters["plan.image.invalidations"] == 1
        # The traced benchmark compares plan.kernel.* and
        # plan.fallback.* counters between runs; images add none.
        assert not [name for name in counters
                    if name.startswith(("plan.kernel.", "plan.fallback."))
                    and "image" in name]

    def test_explain_shows_the_image_state(self, conn, forced_planner):
        session = TsqlSession(conn)
        states = []
        for _ in range(3):
            states.append(plan.describe(conn, COALESCE_Q)["image"])
            session.query(COALESCE_Q)
        assert states == [["transient"], ["miss"], ["hit"]]
        report = explain_temporal(conn, COALESCE_Q)
        (state,) = report.plan_strategy["image"]
        assert ("temporal strategy: kernel (coalesce via sweep; pushed down: "
                f"tag != 'b') [image: {state}]") in report.render()

    def test_without_rowid_tables_stay_naive(self, forced_planner):
        with repro.connect(now=DEMO_NOW) as connection:
            connection.execute("CREATE TABLE w (k INTEGER PRIMARY KEY, "
                               "tag TEXT, valid ELEMENT) WITHOUT ROWID")
            connection.executemany("INSERT INTO w VALUES (?, ?, ?)",
                                   [(n, tag, valid) for n, (_k, tag, valid)
                                    in enumerate(_rows(20))])
            connection.commit()
            session = TsqlSession(connection)
            query = "SELECT tag, group_union(valid) FROM w GROUP BY tag"
            with obs.capture():
                rows = session.query(query)
                counters = obs.snapshot()["counters"]
            assert counters.get("plan.fallback.schema") == 1
            assert not counters.get("plan.kernel.coalesce")
            assert _multiset(rows) == _multiset(_naive(session, query))

    @pytest.mark.parametrize("name", ["rowid", "OID", "_rowid_"])
    @pytest.mark.parametrize("stored", ["text", "shuffled"])
    def test_columns_named_like_the_rowid_stay_naive(self, forced_planner,
                                                     name, stored):
        # Such a column hides the real rowid from the image's reads.
        with repro.connect(now=DEMO_NOW) as connection:
            connection.execute(f"CREATE TABLE s ({name}, k INTEGER, "
                               "tag TEXT, valid ELEMENT)")
            rows = _rows(20)
            connection.executemany("INSERT INTO s VALUES (?, ?, ?, ?)", [
                (f"r{n}" if stored == "text" else (7 * n) % 5, *row)
                for n, row in enumerate(rows)])
            connection.commit()
            session = TsqlSession(connection)
            for query in (JOIN_Q.replace(" t ", " s "),
                          COALESCE_Q.replace(" t ", " s ")):
                with obs.capture():
                    for _ in range(3):  # past the churn rule's first read
                        got = session.query(query)
                    counters = obs.snapshot()["counters"]
                assert counters.get("plan.fallback.schema") == 3
                assert not counters.get("plan.image.misses")
                assert _multiset(got) == _multiset(_naive(session, query))


class TestPool:
    def test_checkout_takes_the_last_returned_reader(self, tmp_path):
        pool = ConnectionPool(str(tmp_path / "pool.db"), readers=3)
        try:
            seen = []
            for _ in range(4):
                with pool.read() as reader:
                    seen.append(reader)
            assert len(set(map(id, seen))) == 1
        finally:
            pool.close()


def _merge_reference(owner, lo, hi):
    """Each owner's pairs coalesced, one owner at a time."""
    out = []
    for who in sorted(set(owner.tolist())):
        pairs = sorted(zip(lo[owner == who].tolist(),
                           hi[owner == who].tolist()))
        merged = [list(pairs[0])]
        for start, end in pairs[1:]:
            if start <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        out += [(who, start, end) for start, end in merged]
    return out


class TestMergePairs:
    @pytest.mark.parametrize("owners, spread", [
        (6, 50),               # one int64 key, one offset batch
        (3 * 10**7, 10**12),   # past the one-key headroom: lexsort
        (12, 2**61),           # offsets past int64: batched owners
    ])
    def test_equals_per_owner_merge(self, owners, spread):
        rng = np.random.default_rng(owners % 1000)
        owner = rng.integers(0, owners, 300)
        owner[:3] = [0, owners - 1, owners - 1]
        lo = rng.integers(0, spread, 300)
        hi = lo + rng.integers(0, max(2, spread // 20), 300)
        merged = codec.binary.merge_pairs(owner, lo, hi)
        assert list(zip(*(part.tolist() for part in merged))) \
            == _merge_reference(owner, lo, hi)
