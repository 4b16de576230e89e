"""The temporal query planner and its set-based kernels.

The naive UDF path is the semantics oracle: both join candidate steps
(hash buckets on equality keys, the searchsorted overlap step
without), the cross-residual mask, the one vectorized emit and the
sweep coalesce are held **differentially equal** to the same statement
run with the planner disabled, over hypothesis-generated tables that
include NOW-relative and multi-period elements.  The behavioural half
covers the planner's visible surface: fallback reasons and counters,
``EXPLAIN TEMPORAL``'s strategy line, flight events, generation-keyed
plan invalidation, and the kernel path on the server's reader pool.
"""

from __future__ import annotations

import struct
import traceback
from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import codec, faults, obs, plan
from repro.client.typemap import TypeMap
from repro.columns import ColumnTable
from repro.core import granularity
from repro.core.chronon import Chronon
from repro.core.element import Element
from repro.core.instant import Instant
from repro.core.period import Period
from repro.core.span import Span
from repro.errors import CodecError, TipTypeError
from repro.obs import flight, profile
from repro.obs.export import render_prometheus
from repro.plan import kernels
from repro.server import RemoteTipConnection, TipServer
from repro.server import protocol
from repro.tsql import TsqlSession
from repro.tsql.explain import explain_temporal
from repro.workload import graphs
from repro.workload.medical import (
    MedicalConfig, generate_prescriptions, load_tip,
)
from tests.conftest import DEMO_NOW, C, E
from tests.strategies import chronons, elements, safe_seconds

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

HASH_Q = ("VALIDTIME SELECT l.k, r.k FROM L AS l, R AS r "
          "WHERE l.k = r.k")
MERGE_Q = ("VALIDTIME SELECT l.k, r.k FROM L AS l, R AS r "
           "WHERE l.k < r.k")
WINDOW_Q = ("VALIDTIME PERIOD '1999-02-01, 1999-10-31' "
            "SELECT l.k, r.k FROM L AS l, R AS r WHERE l.k = r.k")
COALESCE_Q = ("SELECT k, length_seconds(group_union(valid)) "
              "FROM L GROUP BY k")


@contextmanager
def _forced(min_rows=0):
    """Planner on with *min_rows* (none by default); restored afterwards."""
    min_rows_before = plan.state.min_rows
    enabled_before = plan.state.enabled
    plan.configure(enabled=True, min_rows=min_rows)
    try:
        yield
    finally:
        plan.configure(enabled=enabled_before, min_rows=min_rows_before)


@pytest.fixture
def forced_planner():
    with _forced():
        yield


def _load(connection, table, rows, collation="BINARY"):
    connection.execute(f"CREATE TABLE {table} "
                       f"(k INTEGER COLLATE {collation}, valid ELEMENT)")
    connection.executemany(
        f"INSERT INTO {table} VALUES (?, ?)", rows
    )
    connection.commit()


def _canon(rows, elem_at=None):
    """Rows as a sortable multiset; elements grounded structurally."""
    out = []
    for row in rows:
        key = list(row)
        if elem_at is not None:
            element = key[elem_at]
            key[elem_at] = (
                tuple(element.ground_pairs(0)) if element is not None else None
            )
        out.append(tuple(key))
    return sorted(out)


def _both_ways(session, query):
    """(naive rows, kernel rows) for *query* on *session*."""
    plan.configure(enabled=False)
    try:
        naive = session.query(query)
    finally:
        plan.configure(enabled=True, min_rows=0)
    return naive, session.query(query)


#: Declared key collations: the kernels compare bytes, so the planner
#: keeps NOCASE and RTRIM keys on the naive path.
COLLATIONS = ("BINARY", "NOCASE", "RTRIM")
#: Each side's key collation, the same on both sides or mixed.
collation_pairs = st.tuples(st.sampled_from(COLLATIONS),
                            st.sampled_from(COLLATIONS))


@st.composite
def small_tables(draw):
    """Up to 8 rows keyed by small ints or by texts that only a
    collation equates ('a', 'A', 'a ')."""
    keys = draw(st.sampled_from([st.integers(0, 4),
                                 st.sampled_from(["a", "A", "a ", "b"])]))
    return draw(st.lists(st.tuples(keys, elements(max_periods=3)),
                         min_size=0, max_size=8))


class TestDifferential:
    """Kernel results == naive results, as multisets, per strategy."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(left=small_tables(), right=small_tables(),
           collations=collation_pairs)
    def test_hash_join(self, forced_planner, left, right, collations):
        with repro.connect(now=DEMO_NOW) as connection:
            _load(connection, "L", left, collations[0])
            _load(connection, "R", right, collations[1])
            session = TsqlSession(connection)
            naive, kernel = _both_ways(session, HASH_Q)
            assert _canon(naive, 2) == _canon(kernel, 2)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(left=small_tables(), right=small_tables(),
           collations=collation_pairs)
    def test_merge_join(self, forced_planner, left, right, collations):
        with repro.connect(now=DEMO_NOW) as connection:
            _load(connection, "L", left, collations[0])
            _load(connection, "R", right, collations[1])
            session = TsqlSession(connection)
            naive, kernel = _both_ways(session, MERGE_Q)
            assert _canon(naive, 2) == _canon(kernel, 2)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(left=small_tables(), right=small_tables(),
           collations=collation_pairs)
    def test_windowed_join(self, forced_planner, left, right, collations):
        with repro.connect(now=DEMO_NOW) as connection:
            _load(connection, "L", left, collations[0])
            _load(connection, "R", right, collations[1])
            session = TsqlSession(connection)
            naive, kernel = _both_ways(session, WINDOW_Q)
            assert _canon(naive, 2) == _canon(kernel, 2)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=small_tables(), collation=st.sampled_from(COLLATIONS))
    def test_coalesce(self, forced_planner, rows, collation):
        with repro.connect(now=DEMO_NOW) as connection:
            _load(connection, "L", rows, collation)
            session = TsqlSession(connection)
            naive, kernel = _both_ways(session, COALESCE_Q)
            assert sorted(naive) == sorted(kernel)

    @pytest.mark.parametrize("query", [
        COALESCE_Q, "SELECT k, length(group_union(valid)) FROM L GROUP BY k",
        "SELECT k, group_union(valid) FROM L GROUP BY k"])
    def test_coalesce_at_the_calendar_bounds(self, forced_planner, query):
        """The vectorized union stays exact at the first and last
        chronon of the calendar (adjacent and overlapping inputs)."""
        low, high = C("0001-01-01").seconds, C("9999-12-31 23:59:59").seconds
        with repro.connect(now=DEMO_NOW) as connection:
            _load(connection, "L", [
                (1, Element.from_pairs([(low, low + 9)])),
                (1, Element.from_pairs([(low + 10, low + 20)])),
                (1, Element.from_pairs([(high - 5, high)])),
                (2, Element.from_pairs([(high - 9, high)])),
                (2, Element.from_pairs([(high - 30, high - 2)])),
                (3, None),
            ])
            session = TsqlSession(connection)
            naive, kernel = _both_ways(session, query)
            assert _multiset(naive) == _multiset(kernel)
            assert len(kernel) == 3

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(left=small_tables(), right=small_tables(), now=chronons(),
           override=chronons())
    def test_random_now_and_override(
        self, forced_planner, left, right, now, override
    ):
        """The kernels ground NOW-relative elements at the statement
        NOW — including a ``set_now`` override applied mid-session."""
        with repro.connect(now=now) as connection:
            _load(connection, "L", left)
            _load(connection, "R", right)
            session = TsqlSession(connection)
            naive, kernel = _both_ways(session, HASH_Q)
            assert _canon(naive, 2) == _canon(kernel, 2)
            connection.set_now(override)
            naive, kernel = _both_ways(session, HASH_Q)
            assert _canon(naive, 2) == _canon(kernel, 2)

    @pytest.mark.parametrize("now", ["1998-12-31", "1999-04-15",
                                     "1999-07-01", "2001-01-01"])
    def test_now_relative_periods_vanish(self, forced_planner, now):
        """Moving NOW empties some NOW-relative periods and merges
        others; join and coalesce kernels still equal the naive path."""
        rows = [
            (1, E("{[NOW, 1999-06-01]}")),
            (1, E("{[1999-01-01, NOW - 30], [NOW, NOW + 10]}")),
            (2, E("{[NOW + 1, 1999-12-31], [1999-03-01, 1999-05-01]}")),
            (2, E("{[1999-02-01, NOW], [NOW - 10, 2000-06-01]}")),
            (3, E("{[NOW, NOW - 1]}")),
            (3, E("{[1999-01-01, 1999-03-01]}")),
        ]
        with repro.connect(now=now) as connection:
            _load(connection, "L", rows)
            _load(connection, "R", rows[::-1])
            session = TsqlSession(connection)
            for query, elem_at in ((HASH_Q, 2), (MERGE_Q, 2),
                                   (COALESCE_Q, None),
                                   ("SELECT k, group_union(valid) FROM L "
                                    "GROUP BY k", 1)):
                naive, kernel = _both_ways(session, query)
                assert _canon(naive, elem_at) == _canon(kernel, elem_at)

    def test_empty_window_short_circuits(self, forced_planner):
        """A window that grounds empty yields no rows without a fetch."""
        with repro.connect(now=DEMO_NOW) as connection:
            _load(connection, "L", [(1, E("{[1999-01-01, 1999-06-01]}"))])
            _load(connection, "R", [(1, E("{[1999-01-01, 1999-06-01]}"))])
            # [NOW, 1998-01-01] is a legal period that grounds empty
            # once NOW (pinned to 1999 here) passes 1998.
            query = ("VALIDTIME PERIOD 'NOW, 1998-01-01' "
                     "SELECT l.k, r.k FROM L AS l, R AS r WHERE l.k = r.k")
            session = TsqlSession(connection)
            shape = plan.match(session.translate(query))
            result = kernels.execute_join(
                connection, shape, connection.statement_now_seconds()
            )
            assert result.strategy == "empty-window"
            assert result.rows.tuples() == []


class TestPlannerDecisions:
    def test_small_inputs_fall_back(self, conn):
        """Below min_rows the planner declines and counts the reason."""
        _load(conn, "L", [(1, E("{[1999-01-01, 1999-06-01]}"))])
        _load(conn, "R", [(1, E("{[1999-03-01, 1999-09-01]}"))])
        session = TsqlSession(conn)
        plan.configure(enabled=True, min_rows=plan.planner.DEFAULT_MIN_ROWS)
        with obs.capture():
            rows = session.query(HASH_Q)
            counters = obs.snapshot()["counters"]
        assert len(rows) == 1
        assert counters.get("plan.fallback.small", 0) >= 1
        assert "plan.kernel.join" not in counters

    def test_unmatched_shape_returns_none(self, conn):
        _load(conn, "L", [(1, E("{[1999-01-01, 1999-06-01]}"))])
        # An OR between conjuncts is outside the matcher's repertoire.
        sql = ("SELECT l.k, tintersect(l.valid, l.valid) FROM L AS l "
               "WHERE l.k = 1 OR l.k = 2")
        assert plan.maybe_execute_kernel(conn, sql) is None
        assert plan.describe(conn, sql)["strategy"] == "naive"

    def test_tip_typed_key_vetoes_kernel(self, conn, forced_planner):
        """Equality on a TIP-encoded column must stay on the blade."""
        conn.execute("CREATE TABLE L (k INTEGER, t CHRONON, valid ELEMENT)")
        conn.execute("CREATE TABLE R (k INTEGER, t CHRONON, valid ELEMENT)")
        conn.commit()
        session = TsqlSession(conn)
        translated = session.translate(
            "VALIDTIME SELECT l.k, r.k FROM L AS l, R AS r WHERE l.t = r.t"
        )
        assert plan.maybe_execute_kernel(conn, translated) is None
        description = plan.describe(conn, translated)
        assert description["strategy"] == "naive"
        assert "types" in description["reason"]

    @pytest.mark.parametrize("collation, join_rows, groups", [
        ("NOCASE", 2, 2), ("RTRIM", 1, 3), ("BINARY", 0, 3)])
    def test_collated_keys_veto_kernel(self, conn, forced_planner,
                                       collation, join_rows, groups):
        """The kernels compare bytes; a key or GROUP BY column declared
        with another collation stays on the naive path (fallback
        ``schema``) and returns what SQLite's collation says."""
        for table, names in (("a", ["Bob"]), ("b", ["bob", "Bob ", "BOB"])):
            conn.execute(f'CREATE TABLE {table} ("name" TEXT '
                         f"/* key */ COLLATE {collation.lower()}, "
                         "valid ELEMENT)")
            for name in names:
                conn.execute(f"INSERT INTO {table} VALUES "
                             "(?, element('{[1999-01-01, 1999-02-01]}'))",
                             (name,))
        conn.commit()
        session = TsqlSession(conn)
        for query, expected in (
            ("VALIDTIME SELECT a.name, b.name FROM a, b "
             "WHERE a.name = b.name", join_rows),
            ("SELECT name, length_seconds(group_union(valid)) FROM b "
             "GROUP BY name", groups),
        ):
            with obs.capture():
                rows = session.query(query)
                counters = obs.snapshot()["counters"]
            assert len(rows) == expected, (collation, query)
            taken = collation == "BINARY"
            assert bool(counters.get("plan.fallback.schema")) is not taken
            assert any(name.startswith("plan.kernel.")
                       for name in counters) is taken

    def test_unreadable_collations_count_every_column_collated(
        self, conn, monkeypatch
    ):
        """A failed collation read keeps the declared types and counts
        every column as collated, so key columns fall back instead of
        being compared as bytes."""
        from repro.plan import planner

        def unreadable(sql):
            raise ValueError("unparseable CREATE TABLE")

        _load(conn, "L", [(1, E("{[1999-01-01, 1999-06-01]}"))])
        monkeypatch.setattr(planner, "_collations", unreadable)
        planner.clear_caches()
        schemas, collated = planner._schemas(conn)
        assert schemas["l"] == {"k": "INTEGER", "valid": "ELEMENT"}
        assert collated["l"] == {"k", "valid"}

    @pytest.mark.parametrize("condition", ["l.k = r.s", "l.k >= r.s"])
    def test_mixed_affinity_comparison_vetoes_kernel(
        self, conn, forced_planner, condition
    ):
        """SQLite converts ``'2'`` to 2 before comparing an INTEGER with
        a TEXT column; the kernel compares storage classes in Python, so
        such a key or residual pair falls back (counted as ``schema``)."""
        conn.execute("CREATE TABLE L (k INTEGER, valid ELEMENT)")
        conn.execute("CREATE TABLE R (k INTEGER, s TEXT, valid ELEMENT)")
        element = E("{[1999-01-01, 1999-06-01]}")
        conn.execute("INSERT INTO L VALUES (2, ?)", (element,))
        conn.execute("INSERT INTO R VALUES (2, '2', ?)", (element,))
        conn.commit()
        session = TsqlSession(conn)
        query = ("VALIDTIME SELECT l.k, r.s FROM L AS l, R AS r "
                 f"WHERE {condition}")
        plan.configure(enabled=False)
        naive = session.query(query)
        plan.configure(enabled=True, min_rows=0)
        with obs.capture():
            rows = session.query(query)
            counters = obs.snapshot()["counters"]
        assert len(naive) == 1
        assert _multiset(rows) == _multiset(naive)
        assert counters.get("plan.fallback.schema") == 1
        assert "plan.kernel.join" not in counters
        description = plan.describe(conn, session.translate(query))
        assert description["strategy"] == "naive"
        # Same-affinity keys keep the kernel.
        assert plan.describe(conn, session.translate(
            "VALIDTIME SELECT l.k, r.s FROM L AS l, R AS r "
            "WHERE l.k = r.k"))["strategy"] == "kernel"

    def test_benchmark_joins_keep_their_kernels(self, forced_planner):
        """The medical ``patient = patient`` and the graph ``dst = src``
        joins compare same-affinity columns: no veto."""
        with repro.connect(now=DEMO_NOW) as connection:
            load_tip(connection, generate_prescriptions(MedicalConfig(
                n_prescriptions=50, n_patients=5, seed=3)))
            graphs.load_graph(connection, graphs.generate_edges(
                graphs.GraphConfig(n_nodes=10, n_edges=30, seed=3)))
            connection.commit()
            session = TsqlSession(connection)
            for query in (
                "VALIDTIME SELECT p1.patient, p1.drug, p2.drug "
                "FROM Prescription AS p1, Prescription AS p2 "
                "WHERE p1.patient = p2.patient AND p1.drug = 'Tylenol'",
                graphs.windowed_path_query("1997-01-01, 1997-06-30"),
            ):
                assert plan.describe(connection, session.translate(
                    query))["strategy"] == "kernel", query

    def test_disabled_planner_is_invisible(self, conn):
        plan.configure(enabled=False)
        try:
            assert plan.maybe_execute_kernel(conn, "SELECT 1") is None
            assert plan.describe(conn, "SELECT 1")["reason"] \
                == "planner disabled"
        finally:
            plan.configure(enabled=True)


_JOIN = ("SELECT e1.src, e2.dst, tintersect(e1.valid, e2.valid) AS valid "
         "FROM edges AS e1, edges AS e2")
_PAIR = "overlaps(e1.valid, e2.valid)"
_WINDOWED = (
    "SELECT e1.src, e1.dst, e2.dst, restrict(tintersect(e1.valid, e2.valid), "
    "period('[1997-01-01, 1997-06-30]')) AS valid FROM edges AS e1, edges AS e2 "
    f"WHERE (e1.dst = e2.src) AND {_PAIR} "
    "AND overlaps(e1.valid, to_element(period('[1997-01-01, 1997-06-30]'))) "
    "AND overlaps(e2.valid, to_element(period('[1997-01-01, 1997-06-30]')))"
)

#: (translated SQL, the shape kind ``plan.match`` decides, or None).
SHAPE_DECISIONS = [
    (f"{_JOIN} WHERE (e1.dst = e2.src) AND {_PAIR}", "join"),
    (_WINDOWED, "join"),
    (f"SELECT DISTINCT e1.src, e2.dst, tintersect(e1.valid, e2.valid) AS valid "
     f"FROM edges AS e1, edges AS e2 WHERE (e1.dst = e2.src) AND {_PAIR}", None),
    (f"{_JOIN} WHERE (e1.dst = e2.src OR e1.src = 1) AND {_PAIR}", None),
    (f"{_JOIN} WHERE (e1.dst IN (SELECT src FROM edges)) AND {_PAIR}", None),
    (f"{_JOIN}, edges AS e3 WHERE (e1.dst = e2.src) AND {_PAIR}", None),
    (f"{_JOIN} WHERE (e1.dst = e2.src) AND {_PAIR} ORDER BY e1.src", None),
    (f"{_JOIN} WHERE (e1.dst = e2.src) AND {_PAIR} LIMIT 10", None),
    (f"SELECT e1.src AS a, e2.dst AS b, tintersect(e1.valid, e2.valid) AS v "
     f"FROM edges AS e1, edges AS e2 WHERE (e1.dst = e2.src) AND {_PAIR}", "join"),
    (f"SELECT e1.src, e2.dst, tintersect(e1.valid, e2.valid) "
     f"FROM edges AS e1, edges AS e2 WHERE (e1.dst = e2.src) AND {_PAIR}", "join"),
    (f"SELECT src, tintersect(e1.valid, e2.valid) AS valid "
     f"FROM edges AS e1, edges AS e2 WHERE (e1.dst = e2.src) AND {_PAIR}", None),
    (f"{_JOIN} WHERE ((e1.dst = e2.src)) AND ({_PAIR})", "join"),
    (f"{_JOIN} WHERE (e1.label = 'a AND b') AND {_PAIR}", "join"),
    (f"{_JOIN} WHERE (e1.label = 'a, b' AND e2.label <> 'GROUP BY') AND {_PAIR}",
     "join"),
    (f"{_JOIN} WHERE (e1.dst = e2.src AND e1.src = ?) AND {_PAIR}", None),
    # Literal text is opaque: a ``?`` or ``) AND (`` inside a string is
    # neither a placeholder nor a clause boundary.
    (f"{_JOIN} WHERE (e1.label = 'Why?') AND {_PAIR}", "join"),
    (f"{_JOIN} WHERE (e1.label = 'x) AND (y') AND {_PAIR}", "join"),
    (f"SELECT e1.src, tintersect(e1.valid, e2.valid), "
     f"tintersect(e1.valid, e2.valid) AS v2 FROM edges AS e1, edges AS e2 "
     f"WHERE {_PAIR}", None),
    # An equality on the validity columns is a join key (the planner's
    # type check then keeps it off the kernel); other comparisons on a
    # validity column are not the shape.
    (f"{_JOIN} WHERE (e1.valid = e2.valid) AND {_PAIR}", "join"),
    (f"{_JOIN} WHERE (e1.valid < e2.valid) AND {_PAIR}", None),
    (f"{_JOIN} WHERE (e1.valid = 'x') AND {_PAIR}", None),
    (f"{_JOIN} WHERE (e1.dst = e2.src)", None),
    (f"{_JOIN} WHERE (3 < e1.src AND e2.dst <= 7.5) AND {_PAIR}", "join"),
    (f"{_JOIN} WHERE (e1.src < e2.dst) AND {_PAIR}", "join"),
    (f"SELECT e1.*, tintersect(e1.valid, e2.valid) AS valid "
     f"FROM edges AS e1, edges AS e2 WHERE {_PAIR}", None),
    ("SELECT src, length_seconds(group_union(valid)) AS uptime FROM edges "
     "GROUP BY src", "coalesce"),
    ("SELECT src, length(group_union(valid)) FROM edges GROUP BY src", "coalesce"),
    ("SELECT e.src, group_union(e.valid) FROM edges AS e GROUP BY e.src",
     "coalesce"),
    ("SELECT src, length_seconds(group_union(valid)) FROM edges GROUP BY src "
     "HAVING COUNT(*) > 1", None),
    ("SELECT src, length_seconds(group_union(valid)) FROM edges GROUP BY src "
     "ORDER BY src", None),
    ("SELECT src, group_union(valid) FROM edges WHERE label = 'GROUP BY x' "
     "GROUP BY src", "coalesce"),
    ("SELECT src, group_union(valid) FROM edges WHERE label = 'a, b' AND dst > 2 "
     "GROUP BY src", "coalesce"),
    ("SELECT src, dst, group_union(valid) FROM edges GROUP BY src", None),
    ("SELECT src, COUNT(*), group_union(valid) FROM edges GROUP BY src", None),
    ("SELECT src, group_union(valid) FROM edges WHERE dst = ? GROUP BY src", None),
    ("SELECT src, group_union(valid) FROM edges", None),
    ("SELECT DISTINCT src, group_union(valid) FROM edges GROUP BY src", None),
    ("SELECT src, group_union(valid) FROM edges WHERE dst = 1 OR dst = 2 "
     "GROUP BY src", None),
    ("SELECT src, group_union(valid) FROM edges WHERE valid = 1 GROUP BY src", None),
    ("SELECT src, group_union(valid) FROM (SELECT * FROM edges) GROUP BY src", None),
    ("INSERT INTO edges VALUES (1, 2, 'a', NULL)", None),
]


class TestShapeDecisions:
    @pytest.mark.parametrize("sql, kind", SHAPE_DECISIONS)
    def test_match_decides(self, sql, kind):
        shape = plan.match(sql)
        assert (shape.kind if shape is not None else None) == kind

    @pytest.mark.parametrize("label", ["Why?", "x) AND (y"])
    def test_literal_text_does_not_block_the_kernel(
        self, conn, forced_planner, label
    ):
        """A ``?`` or ``) AND (`` inside a string literal is literal
        text: the join takes the kernel and agrees with the naive path."""
        early, late = E("{[1999-01-01, 1999-06-01]}"), E("{[1999-03-01, 1999-09-01]}")
        for table in ("L", "R"):
            conn.execute(f"CREATE TABLE {table} (k INTEGER, label TEXT, valid ELEMENT)")
            conn.executemany(f"INSERT INTO {table} VALUES (?, ?, ?)", [
                (1, label, early), (1, "other", late), (2, label, late)])
        conn.commit()
        session = TsqlSession(conn)
        query = ("VALIDTIME SELECT l.k, r.label FROM L AS l, R AS r "
                 f"WHERE l.k = r.k AND l.label = '{label}'")
        naive, kernel = _both_ways(session, query)
        assert len(naive) == 3
        assert _canon(kernel, elem_at=2) == _canon(naive, elem_at=2)
        assert plan.describe(
            conn, session.translate(query))["strategy"] == "kernel"


class TestObservability:
    def test_kernel_counters_and_prometheus(self, conn, forced_planner):
        _load(conn, "L", [
            (k, E("{[1999-01-01, 1999-06-01]}")) for k in range(4)
        ])
        _load(conn, "R", [
            (k, E("{[1999-03-01, 1999-09-01]}")) for k in range(4)
        ])
        session = TsqlSession(conn)
        with obs.capture():
            session.query(HASH_Q)
            session.query(COALESCE_Q.replace("FROM L", "FROM L"))
            snapshot = obs.snapshot()
        counters = snapshot["counters"]
        assert counters.get("plan.kernel.join") == 1
        assert counters.get("plan.kernel.coalesce") == 1
        assert counters.get("plan.join.candidates", 0) >= 4
        exposition = render_prometheus(snapshot)
        assert "tip_plan_kernel_join_total 1" in exposition
        assert "tip_plan_kernel_coalesce_total 1" in exposition

    def test_flight_records_kernel_runs(self, conn, forced_planner):
        _load(conn, "L", [
            (k, E("{[1999-01-01, 1999-06-01]}")) for k in range(3)
        ])
        _load(conn, "R", [
            (k, E("{[1999-03-01, 1999-09-01]}")) for k in range(3)
        ])
        session = TsqlSession(conn)
        flight.clear()
        flight.enable()
        try:
            session.query(HASH_Q)
            plan.configure(min_rows=10_000)
            session.query(HASH_Q)
        finally:
            flight.disable()
        kernel_events = flight.snapshot(kind="plan.kernel")
        assert len(kernel_events) == 1
        assert kernel_events[0]["data"]["strategy"] == "hash"
        assert kernel_events[0]["data"]["rows"] == 3
        fallbacks = flight.snapshot(kind="plan.fallback")
        assert any(
            event["data"]["reason"] == "small" for event in fallbacks
        )

    def test_explain_reports_kernel_strategy(self, conn, forced_planner):
        _load(conn, "L", [
            (k, E("{[1999-01-01, 1999-06-01]}")) for k in range(3)
        ])
        _load(conn, "R", [
            (k, E("{[1999-03-01, 1999-09-01]}")) for k in range(3)
        ])
        report = explain_temporal(conn, HASH_Q)
        assert report.plan_strategy["strategy"] == "kernel"
        assert "temporal strategy: kernel (join via hash)" in report.render()

    @pytest.mark.parametrize("query", [
        HASH_Q, MERGE_Q, WINDOW_Q,
        "VALIDTIME SELECT l.k, r.k FROM L AS l, R AS r",
        "VALIDTIME SELECT l.k, r.k FROM L AS l, R AS r "
        "WHERE l.k = r.k AND l.k >= r.k",
        "VALIDTIME PERIOD 'NOW, 1998-01-01' "
        "SELECT l.k, r.k FROM L AS l, R AS r WHERE l.k = r.k",
    ])
    def test_explain_names_the_strategy_that_runs(
        self, conn, forced_planner, query
    ):
        """EXPLAIN's ``join via X`` is the strategy its own profiled
        run records."""
        _load(conn, "L", [
            (k, E("{[1999-01-01, 1999-06-01]}")) for k in range(3)
        ])
        _load(conn, "R", [
            (k, E("{[1999-03-01, 1999-09-01]}")) for k in range(24)
        ])
        with obs.capture():
            flight.enable()
            rendered = explain_temporal(conn, query).render()
            (event,) = flight.snapshot(kind="plan.kernel")
        assert f"join via {event['data']['strategy']}" in rendered, query

    def test_explain_reports_naive_with_reason(self, conn):
        _load(conn, "L", [(1, E("{[1999-01-01, 1999-06-01]}"))])
        _load(conn, "R", [(1, E("{[1999-03-01, 1999-09-01]}"))])
        plan.configure(enabled=True, min_rows=plan.planner.DEFAULT_MIN_ROWS)
        report = explain_temporal(conn, HASH_Q)
        assert report.plan_strategy["strategy"] == "naive"
        assert "temporal strategy: naive" in report.render()
        assert "threshold" in report.render()


class TestProfilingKeepsThePlan:
    """A profiled statement runs the plan an unprofiled one runs."""

    @staticmethod
    def _run(session, query, mode):
        """(rows, plan.kernel events, stored profiles) for one run."""
        with obs.capture(enabled=mode != "off"):
            flight.enable()
            if mode == "enabled":
                profile.enable()
            with profile.forced() if mode == "forced" else nullcontext():
                rows = session.query(query)
            events = [
                {key: event.data.get(key)
                 for key in ("shape", "strategy", "rows", "candidates")}
                for event in flight.events(kind="plan.kernel")
            ]
            return rows, events, profile.recent_profiles()

    @pytest.mark.parametrize("query", [
        graphs.path_query(),
        graphs.windowed_path_query("1997-01-01, 1997-06-30"),
        graphs.coalesce_query(),
    ])
    def test_profiled_runs_take_the_unprofiled_plan(self, conn, query):
        min_rows = plan.planner.DEFAULT_MIN_ROWS
        graphs.load_graph(conn, graphs.generate_edges(graphs.GraphConfig(
            n_nodes=40, n_edges=2 * min_rows, seed=3,
        )))
        session = TsqlSession(conn)
        with _forced(min_rows=min_rows):
            off = self._run(session, query, "off")
            enabled = self._run(session, query, "enabled")
            forced = self._run(session, query, "forced")
        assert len(off[1]) == 1 and off[1][0]["rows"] == len(off[0])
        assert off[:2] == enabled[:2] == forced[:2]
        # The profile names the kernel through its counter deltas.
        for _rows, _events, stored in (enabled, forced):
            (prof,) = stored
            kernel = f"plan.kernel.{off[1][0]['shape']}"
            assert prof.counters.get(kernel) == 1
            assert prof.rows == len(off[0])


class TestServerPath:
    def test_kernel_runs_on_the_reader_pool(self, forced_planner):
        """A remote VALIDTIME join routes through the kernel server-side
        and returns the same rows the naive path computes."""
        with obs.capture() as registry, \
                TipServer(":memory:", observability=True) as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as connection:
                connection.execute(
                    "CREATE TABLE L (k INTEGER, valid ELEMENT)"
                )
                connection.execute(
                    "CREATE TABLE R (k INTEGER, valid ELEMENT)"
                )
                for k in range(4):
                    connection.execute(
                        "INSERT INTO L VALUES (?, element(?))",
                        (k, "{[1999-01-01, 1999-06-01]}"),
                    )
                    connection.execute(
                        "INSERT INTO R VALUES (?, element(?))",
                        (k, "{[1999-03-01, 1999-09-01]}"),
                    )
                connection.set_now(DEMO_NOW)
                kernel_rows = connection.query(HASH_Q)
                plan.configure(enabled=False)
                try:
                    naive_rows = connection.query(HASH_Q)
                finally:
                    plan.configure(enabled=True, min_rows=0)
                assert sorted(r[:2] for r in kernel_rows) \
                    == sorted(r[:2] for r in naive_rows)
                assert len(kernel_rows) == 4
                counters = registry.snapshot()["counters"]
                assert counters.get("plan.kernel.join", 0) >= 1

    def test_profiled_remote_statement_runs_the_kernel(self, forced_planner):
        """Profiling on the server keeps the kernel plan, and the framed
        profile names it through its counter deltas."""
        with obs.capture(), TipServer(":memory:") as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as connection:
                for table, period in (("L", "{[1999-01-01, 1999-06-01]}"),
                                      ("R", "{[1999-03-01, 1999-09-01]}")):
                    connection.execute(
                        f"CREATE TABLE {table} (k INTEGER, valid ELEMENT)")
                    for k in range(4):
                        connection.execute(
                            f"INSERT INTO {table} VALUES (?, element(?))",
                            (k, period))
                connection.set_now(DEMO_NOW)
                plain = connection.execute(HASH_Q)
                profile.enable()
                profiled = connection.execute(HASH_Q)
            assert profiled.rows == plain.rows and len(plain.rows) == 4
            assert profiled.profile.counters.get("plan.kernel.join") == 1
            assert profiled.profile.rows == 4
            # The server records both runs: one plan, profiled or not.
            strategies = [event.data["strategy"]
                          for event in flight.events(kind="plan.kernel")]
            assert strategies == ["hash", "hash"]


# -- pushdown and raw-decode coverage ------------------------------------

#: ``id`` aliases the rowid, so it numbers the rows in fetch order.
_MIXED_TABLE = ("CREATE TABLE {} (id INTEGER PRIMARY KEY, k INTEGER, "
                "n INTEGER, s TEXT, u, valid ELEMENT)")
#: Stored values for the filter columns: every storage class plus NULL
#: (the INTEGER/TEXT affinities convert some of them on insert).
_stored_values = st.sampled_from(
    [None, -1, 0, 2, 3, 0.5, 2.0, "2", "2.0", "10", "abc", ""]
)
#: Filter literals: int (2**64 reads as REAL in SQL), float,
#: numeric-looking text and plain text.
_literals = st.sampled_from([-1, 0, 2, 3, 2**64, 0.5, 2.0, 2.5, "2", "2.0",
                             "10", "abc", "it's"])
_ops = st.sampled_from(["=", "!=", "<>", "<", "<=", ">", ">="])


def _element_blob(pairs) -> bytes:
    """An Element blob with *pairs* stored exactly as given — unsorted,
    adjacent or overlapping lists included (``encode`` would normalize)."""
    periods = [codec.encode(Period(Chronon(lo), Chronon(hi)))[3:]
               for lo, hi in pairs]
    return (bytes((codec.binary.MAGIC, codec.binary.VERSION,
                   codec.binary.TAG_BY_TYPE[Element]))
            + struct.pack(">I", len(periods)) + b"".join(periods))


@st.composite
def _validities(draw):
    """NULL, canonical or NOW-relative Elements, and non-canonical blobs."""
    kind = draw(st.sampled_from(["element", "unsorted", "adjacent", "null"]))
    if kind == "null":
        return None
    if kind == "element":
        return draw(elements(max_periods=3))
    pairs = [tuple(sorted(pair)) for pair in draw(st.lists(
        st.tuples(safe_seconds, safe_seconds), min_size=1, max_size=3))]
    if kind == "adjacent":
        lo, hi = pairs[-1]
        pairs.append((hi + 1, hi + 1 + draw(st.integers(0, 86_400))))
    return _element_blob(pairs[::-1])


_mixed_rows = st.tuples(st.one_of(st.none(), st.integers(0, 3)),
                        _stored_values, _stored_values, _stored_values,
                        _validities())
_mixed_tables = st.lists(_mixed_rows, min_size=1, max_size=8)


@st.composite
def _join_sides(draw):
    """Two mixed tables; half the time one has >= 8x the other's rows,
    so both candidate steps also run on skewed sides."""
    if not draw(st.booleans()):
        return draw(_mixed_tables), draw(_mixed_tables)
    small = draw(st.lists(_mixed_rows, min_size=1, max_size=2))
    big = draw(st.lists(_mixed_rows, min_size=8 * len(small),
                        max_size=8 * len(small) + 4))
    return (small, big) if draw(st.booleans()) else (big, small)


_windows = st.sampled_from([None, "1999-02-01, 1999-10-31",
                            "1980-01-01, NOW", "NOW - 30, NOW + 30"])
_filters = st.lists(
    st.tuples(st.sampled_from(["n", "s", "u"]), _ops, _literals),
    max_size=2,
)


def _sql_literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _where(alias, filters):
    prefix = f"{alias}." if alias else ""
    return [f"{prefix}{column} {op} {_sql_literal(value)}"
            for column, op, value in filters]


def _multiset(rows):
    """Rows as a comparable multiset; Elements grounded at the demo NOW."""
    now = C(DEMO_NOW).seconds
    return sorted(repr(tuple(
        tuple(value.ground_pairs(now)) if isinstance(value, Element)
        else value for value in row)) for row in rows)


def _load_mixed(connection, table, rows):
    connection.execute(_MIXED_TABLE.format(table))
    connection.executemany(
        f"INSERT INTO {table} (k, n, s, u, valid) VALUES (?, ?, ?, ?, ?)",
        rows)
    connection.commit()


def _kernel_taken(session, query, kind):
    with obs.capture():
        rows = session.query(query)
        counters = obs.snapshot()["counters"]
    assert counters.get(f"plan.kernel.{kind}") == 1, query
    return rows


class TestPushdownDifferential:
    """Single-side filters run in SQLite and validity blobs decode raw;
    results still equal the naive path over mixed storage classes."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sides=_join_sides(), left_filters=_filters, right_filters=_filters,
           equality=st.booleans(),
           residual=st.one_of(st.none(), st.tuples(
               st.sampled_from(["k", "n", "s", "u"]),
               st.sampled_from(["<", "<=", "!=", ">="]))),
           window=_windows, self_join=st.booleans())
    def test_join(self, forced_planner, sides, left_filters, right_filters,
                  equality, residual, window, self_join):
        """Each draw independently picks an equality key or none, a
        cross residual or none, a window or none, skewed or even side
        sizes, and an unfiltered self-join (one shared fetch)."""
        with repro.connect(now=DEMO_NOW) as connection:
            _load_mixed(connection, "L", sides[0])
            _load_mixed(connection, "R", sides[1])
            if self_join:
                right_table, left_filters, right_filters = "L", [], []
            else:
                right_table = "R"
            conjuncts = _where("l", left_filters) + _where("r", right_filters)
            if equality:
                conjuncts.append("l.k = r.k")
            if residual is not None:
                conjuncts.append("l.{0} {1} r.{0}".format(*residual))
            query = ((f"VALIDTIME PERIOD '{window}' " if window else
                      "VALIDTIME ")
                     + "SELECT l.id, r.id, l.k, r.k, l.s, l.valid "
                     f"FROM L AS l, {right_table} AS r"
                     + (" WHERE " + " AND ".join(conjuncts)
                        if conjuncts else ""))
            session = TsqlSession(connection)
            plan.configure(enabled=False)
            naive = session.query(query)
            plan.configure(enabled=True, min_rows=0)
            kernel = _kernel_taken(session, query, "join")
            assert _multiset(naive) == _multiset(kernel)
            # Either candidate step emits in (left, right) fetch order.
            ids = [row[:2] for row in kernel]
            assert ids == sorted(ids)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=_mixed_tables, filters=_filters)
    def test_coalesce(self, forced_planner, rows, filters):
        with repro.connect(now=DEMO_NOW) as connection:
            _load_mixed(connection, "L", rows)
            where = " AND ".join(_where("", filters))
            query = ("SELECT k, length_seconds(group_union(valid)) FROM L "
                     + (f"WHERE {where} " if where else "") + "GROUP BY k")
            session = TsqlSession(connection)
            plan.configure(enabled=False)
            naive = session.query(query)
            plan.configure(enabled=True, min_rows=0)
            kernel = _kernel_taken(session, query, "coalesce")
            assert _multiset(naive) == _multiset(kernel)

    def test_filters_follow_column_affinity(self, forced_planner):
        """``dosage = '2'`` on an INTEGER column matches the stored 2:
        SQLite's affinity applies, as on the naive path."""
        with repro.connect(now=DEMO_NOW) as connection:
            load_tip(connection, generate_prescriptions(MedicalConfig(
                n_prescriptions=300, n_patients=30, seed=3)))
            connection.commit()
            session = TsqlSession(connection)
            for query, kind in (
                ("VALIDTIME SELECT p1.patient, p1.drug, p2.drug "
                 "FROM Prescription AS p1, Prescription AS p2 "
                 "WHERE p1.patient = p2.patient AND p1.dosage = '2' "
                 "AND p2.drug = 'Tylenol'", "join"),
                ("SELECT patient, length_seconds(group_union(valid)) "
                 "FROM Prescription WHERE dosage > '2' GROUP BY patient",
                 "coalesce"),
            ):
                plan.configure(enabled=False)
                naive = session.query(query)
                plan.configure(enabled=True, min_rows=0)
                kernel = _kernel_taken(session, query, kind)
                assert naive, query
                assert _multiset(naive) == _multiset(kernel)

    def test_fetch_keeps_table_order_under_an_index(
        self, conn, forced_planner
    ):
        """An index the pushed filter could use must not reorder the
        fetch: rows emit in table order, as without the pushdown."""
        _load(conn, "L", [
            (k, E("{[1999-01-01, 1999-06-01]}")) for k in (5, 3, 4, 1, 2)
        ])
        _load(conn, "R", [(1, E("{[1999-03-01, 1999-09-01]}"))])
        conn.execute("CREATE INDEX l_k ON L (k)")
        rows = TsqlSession(conn).query(
            "VALIDTIME SELECT l.k, r.k FROM L AS l, R AS r "
            "WHERE l.k > r.k AND l.k > 1")
        assert [row[0] for row in rows] == [5, 3, 4, 2]

    @pytest.mark.parametrize("query, message", [
        (HASH_Q, "expected Element in L.valid, got Period"),
        (COALESCE_Q, "group_union expects Elements, got Period"),
    ])
    def test_non_element_validity_raises_type_error(
        self, conn, forced_planner, query, message
    ):
        _load(conn, "L", [(1, Period(C("1999-01-01"), C("1999-02-01")))])
        _load(conn, "R", [(1, E("{[1999-01-01, 1999-06-01]}"))])
        with pytest.raises(TipTypeError, match=message):
            TsqlSession(conn).query(query)

    def test_undecodable_validity_raises_codec_error(
        self, conn, forced_planner
    ):
        _load(conn, "L", [(1, "not an element")])
        _load(conn, "R", [(1, E("{[1999-01-01, 1999-06-01]}"))])
        with pytest.raises(CodecError):
            TsqlSession(conn).query(HASH_Q)

    def test_type_map_parity(self, forced_planner):
        """A custom TypeMap shapes projected columns the same way on
        both paths; the kernel's raw validity fetch bypasses it."""
        type_map = TypeMap()
        type_map.register("TEXT", str.upper)
        with repro.connect(now=DEMO_NOW, type_map=type_map) as connection:
            for table in ("L", "R"):
                connection.execute(
                    f"CREATE TABLE {table} (k INTEGER, s TEXT, t, "
                    "valid ELEMENT)")
                connection.executemany(
                    f"INSERT INTO {table} VALUES (?, ?, ?, ?)",
                    [(k, f"s{k}", C(f"1999-0{k + 1}-01"),
                      E("{[1999-01-01, 1999-06-01]}")) for k in range(4)])
            query = ("VALIDTIME SELECT l.k, l.s, r.t FROM L AS l, R AS r "
                     "WHERE l.k = r.k AND r.k > 0")
            session = TsqlSession(connection)
            plan.configure(enabled=False)
            naive = session.query(query)
            plan.configure(enabled=True, min_rows=0)
            kernel = _kernel_taken(session, query, "join")
            assert naive == kernel
            assert isinstance(kernel[0][2], Chronon)  # untyped TIP blob

    @pytest.mark.parametrize("mode", ["truncate", "corrupt"])
    def test_chaos_codec_faults_on_the_kernel_path(
        self, forced_planner, mode
    ):
        """With ``plan.kernel`` and ``codec.decode`` both armed, blob
        corruption reaches the kernel's decode and surfaces as a typed
        CodecError (or decodes cleanly) — identically on every run."""

        def run():
            with repro.connect(now=DEMO_NOW) as connection:
                _load(connection, "L", [
                    (k, E("{[1999-01-01, 1999-06-01]}")) for k in range(3)
                ])
                _load(connection, "R", [
                    (k, E("{[1999-03-01, 1999-09-01]}")) for k in range(3)
                ])
                session = TsqlSession(connection)
                with obs.capture(), faults.inject(
                    "plan.kernel:delay:delay=0.001;"
                    f"codec.decode:{mode}", seed=7,
                ):
                    try:
                        outcome = ("ok", _multiset(session.query(HASH_Q)))
                        kernel_ran = obs.snapshot()["counters"].get(
                            "plan.kernel.join") == 1
                    except CodecError as exc:
                        outcome = ("CodecError", str(exc))
                        kernel_ran = "execute_join" in [
                            frame.name for frame
                            in traceback.extract_tb(exc.__traceback__)]
                assert kernel_ran
                return outcome

        first = run()
        assert first == run()
        if mode == "truncate":
            assert first[0] == "CodecError"


class TestPushdownObservability:
    def _tables(self, conn):
        _load(conn, "L", [
            (k, E("{[1999-01-01, 1999-06-01]}")) for k in range(6)
        ] + [(4, None)])
        _load(conn, "R", [
            (k, E("{[1999-03-01, 1999-09-01]}")) for k in range(6)
        ])

    def test_stats_count_rows_fetched_after_pushdown(
        self, conn, forced_planner
    ):
        self._tables(conn)
        session = TsqlSession(conn)
        join = ("VALIDTIME SELECT l.k, r.k FROM L AS l, R AS r "
                "WHERE l.k = r.k AND l.k >= 2 AND r.k < 4")
        coalesce = ("SELECT k, length_seconds(group_union(valid)) FROM L "
                    "WHERE k > 3 GROUP BY k")
        now = conn.statement_now_seconds()
        result = kernels.execute_join(
            conn, plan.match(session.translate(join)), now)
        # Left keeps k = 2..5 plus the NULL-valid k = 4 row: five
        # fetched, four joinable; right keeps k = 0..3.
        assert result.stats == {"candidates": 2, "left_rows": 5,
                                "right_rows": 4, "fallback_decodes": 0}
        result = kernels.execute_coalesce(
            conn, plan.match(session.translate(coalesce)), now)
        assert result.stats == {"groups": 2, "input_rows": 3,
                                "fallback_decodes": 0}
        flight.clear()
        flight.enable()
        try:
            session.query(join)
            session.query(coalesce)
        finally:
            flight.disable()
        events = [event["data"]
                  for event in flight.snapshot(kind="plan.kernel")]
        assert events[0]["left_rows"] == 5 and events[0]["right_rows"] == 4
        assert events[1]["input_rows"] == 3

    def test_explain_lists_pushed_filters(self, conn, forced_planner):
        self._tables(conn)
        report = explain_temporal(
            conn, "VALIDTIME SELECT l.k, r.k FROM L AS l, R AS r "
                  "WHERE l.k = r.k AND l.k >= 2 AND r.k < 'x''y'")
        assert report.plan_strategy["pushdown"] == ["l.k >= 2",
                                                    "r.k < 'x''y'"]
        assert ("temporal strategy: kernel (join via hash; pushed down: "
                "l.k >= 2 AND r.k < 'x''y')") in report.render()

    def test_fallback_decodes_skip_now_relative_rows(
        self, conn, forced_planner
    ):
        """``fallback_decodes`` counts only the validities decoded one at
        a time: none on canonical data, and none for NOW-relative rows,
        which the vectorized pass grounds itself."""
        rows = [(k, E("{[1999-01-01, 1999-06-01]}")) for k in range(4)]
        _load(conn, "L", rows)
        _load(conn, "R", rows)
        session = TsqlSession(conn)
        self_join = ("VALIDTIME SELECT l.k, r.k FROM L AS l, L AS r "
                     "WHERE l.k = r.k")

        def fallbacks():
            now = conn.statement_now_seconds()
            return [
                kernel(conn, plan.match(session.translate(query)),
                       now).stats["fallback_decodes"]
                for kernel, query in ((kernels.execute_join, HASH_Q),
                                      (kernels.execute_join, self_join),
                                      (kernels.execute_coalesce,
                                       COALESCE_Q))]

        assert fallbacks() == [0, 0, 0]
        conn.executemany("INSERT INTO L VALUES (?, ?)", [
            (k, E("{[1999-03-01, NOW]}")) for k in range(3)
        ] + [(9, None)])
        conn.commit()
        assert fallbacks() == [0, 0, 0]
        flight.clear()
        flight.enable()
        try:
            session.query(HASH_Q)
            session.query(COALESCE_Q)
        finally:
            flight.disable()
        assert [event["data"]["fallback_decodes"] for event
                in flight.snapshot(kind="plan.kernel")] == [0, 0]


# -- edge cases: blob keys, mixed classes, remote == embedded -----------


def _blob_key_tables(connection, rows=60):
    """``t`` and ``u`` with an undeclared key ``k``: two thirds of the
    keys are Element blobs, the rest integers."""
    for table, shift in (("t", 0), ("u", 1)):
        connection.execute(f"CREATE TABLE {table} (k, valid ELEMENT)")
        connection.executemany(f"INSERT INTO {table} VALUES (?, ?)", [
            (n % 7 if n % 3 == 0 else
             Element.from_pairs([(n % 10 * 86_400, n % 10 * 86_400 + 3_600)]),
             Element.from_pairs([(C("1999-01-01").seconds + (n + shift) * 3_600,
                                  C("1999-03-01").seconds + n * 7_200)]))
            for n in range(rows)])
    connection.commit()


class TestBlobKeys:
    """Undeclared key columns holding TIP blobs: keys and group keys
    compare the stored bytes, as SQLite does, and the type map runs on
    the output only (before, the kernels hashed the decoded Elements
    and raised ``TypeError: unhashable type``)."""

    @pytest.mark.parametrize("query, kind", [
        ("SELECT k, length_seconds(group_union(valid)) FROM t GROUP BY k",
         "coalesce"),
        ("VALIDTIME SELECT t.k, u.k FROM t, u WHERE t.k = u.k", "join"),
    ])
    def test_kernel_equals_naive(self, conn, forced_planner, query, kind):
        _blob_key_tables(conn)
        session = TsqlSession(conn)
        plan.configure(enabled=False)
        naive = session.query(query)
        plan.configure(enabled=True, min_rows=0)
        kernel = _kernel_taken(session, query, kind)
        assert naive and _multiset(naive) == _multiset(kernel)
        # The output keys went through the type map: Elements, not bytes.
        assert any(isinstance(row[0], Element) for row in kernel)


#: Keys of every storage class, equal across classes only where SQLite
#: says so (1 = 1.0, never 1 = '1'), texts only a collation equates,
#: plus NULL and a plain blob.
_edge_keys = st.sampled_from([None, 1, 1.0, "1", 2, 2.0, "a", "A", "a ",
                              b"\x01"])
_edge_seconds = st.integers(C("1999-01-01").seconds, C("1999-12-31").seconds)
#: Canonical, multi-period and NOW-relative elements near the demo NOW,
#: so rows overlap often; NULL validities too.
_edge_validities = st.one_of(
    st.none(), elements(seconds=_edge_seconds, max_periods=3),
    st.sampled_from([E("{[NOW - 30, NOW + 30]}"),
                     E("{[1999-06-01, NOW], [NOW + 10, 1999-12-01]}"),
                     E("{[NOW, NOW - 1]}")]))


@st.composite
def _edge_tables(draw):
    """Rows with NULL and mixed-class keys, some rows duplicated."""
    rows = draw(st.lists(st.tuples(_edge_keys, _edge_validities),
                         min_size=1, max_size=8))
    return rows + draw(st.lists(st.sampled_from(rows), max_size=3))


#: No window, windows that empty many intersections, a NOW-relative one.
_edge_windows = st.sampled_from([None, "1999-02-01, 1999-02-03",
                                 "1999-06-01, 1999-06-01",
                                 "NOW - 30, NOW + 30"])
_edge_queries = st.sampled_from([
    "SELECT l.k, r.k, l.valid FROM L AS l, R AS r WHERE l.k = r.k",
    "SELECT l.k, r.k FROM L AS l, R AS r WHERE l.k < r.k",
    "SELECT l.k, r.valid FROM L AS l, L AS r WHERE l.k = r.k",
    "SELECT k, length_seconds(group_union(valid)) FROM L GROUP BY k",
    "SELECT k, group_union(valid) FROM L GROUP BY k",
])


def _edge_statement(query, window):
    if "GROUP BY" in query:
        return query
    return (f"VALIDTIME PERIOD '{window}' " if window else "VALIDTIME ") \
        + query


def _typed_rows(rows):
    """Rows compared by type and wire form, in order."""
    tip = tuple(codec.binary.TAG_BY_TYPE)
    return [tuple((type(value).__name__,
                   codec.encode(value) if isinstance(value, tip) else value)
                  for value in row) for row in rows]


@pytest.fixture(scope="class")
def remote():
    with TipServer(":memory:", observability=False) as server:
        host, port = server.address
        with RemoteTipConnection(host, port) as connection:
            connection.set_now(DEMO_NOW)
            yield connection


class TestEdgeDifferential:
    """The generator reaches the edges: NULL and mixed storage-class
    keys, duplicate rows, NOW-relative elements and windows that empty
    intersections.  Kernel rows equal naive rows, and a remote session
    (column-major frames) returns exactly the embedded kernel rows."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(left=_edge_tables(), right=_edge_tables(), query=_edge_queries,
           window=_edge_windows, collations=collation_pairs)
    def test_kernel_naive_and_remote_agree(self, forced_planner, remote,
                                           left, right, query, window,
                                           collations):
        statement = _edge_statement(query, window)
        kind = "coalesce" if "GROUP BY" in query else "join"
        # Only BINARY key columns reach a kernel; the rest stay naive.
        compared = collations if " R AS " in query else collations[:1]
        vetoed = set(compared) != {"BINARY"}
        tables = [(table, rows, f"CREATE TABLE {table} "
                   f"(k COLLATE {collation}, valid ELEMENT)")
                  for table, rows, collation
                  in (("L", left, collations[0]), ("R", right, collations[1]))]
        with repro.connect(now=DEMO_NOW) as connection:
            for table, rows, ddl in tables:
                connection.execute(ddl)
                connection.executemany(
                    f"INSERT INTO {table} VALUES (?, ?)", rows)
            connection.commit()
            session = TsqlSession(connection)
            plan.configure(enabled=False)
            naive = session.query(statement)
            plan.configure(enabled=True, min_rows=0)
            if vetoed:
                with obs.capture():
                    kernel = session.query(statement)
                    counters = obs.snapshot()["counters"]
                assert counters.get("plan.fallback.schema") == 1
                assert not counters.get(f"plan.kernel.{kind}")
            else:
                kernel = _kernel_taken(session, statement, kind)
        assert _multiset(naive) == _multiset(kernel)
        for table, rows, ddl in tables:
            remote.execute(f"DROP TABLE IF EXISTS {table}")
            remote.execute(ddl)
            for row in rows:
                remote.execute(f"INSERT INTO {table} VALUES (?, ?)", row)
        assert _typed_rows(remote.query(statement)) == _typed_rows(kernel)


class TestRowCounts:
    """A kernel result reaches the frame as its column table: the row
    count comes from ``len()``, and no row tuples are built."""

    def test_flight_profile_and_client_agree(self, forced_planner,
                                             monkeypatch):
        framed = []
        dump_result = protocol.dump_result

        def spy(rows):
            framed.append(type(rows))
            return dump_result(rows)

        def no_tuples(self):
            raise AssertionError("row tuples built on the server path")

        monkeypatch.setattr(protocol, "dump_result", spy)
        monkeypatch.setattr(ColumnTable, "tuples", no_tuples)
        with obs.capture(), TipServer(":memory:") as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as connection:
                for table, period in (("L", "{[1999-01-01, 1999-06-01]}"),
                                      ("R", "{[1999-03-01, 1999-09-01]}")):
                    connection.execute(
                        f"CREATE TABLE {table} (k INTEGER, valid ELEMENT)")
                    for k in range(6):
                        connection.execute(
                            f"INSERT INTO {table} VALUES (?, element(?))",
                            (k % 4, period))
                connection.set_now(DEMO_NOW)
                profile.enable()
                for query in (HASH_Q, WINDOW_Q, COALESCE_Q):
                    framed.clear()
                    result = connection.execute(query)
                    event = flight.events(kind="plan.kernel")[-1]
                    assert framed == [ColumnTable]
                    assert event.data["rows"] == result.profile.rows \
                        == len(result.rows) > 0


# -- the batch validity decoder ------------------------------------------

_NOW_SECONDS = C(DEMO_NOW).seconds
_MIN, _MAX = granularity.MIN_SECONDS, granularity.MAX_SECONDS
_MAX_SPAN = granularity.MAX_SPAN_SECONDS
_MAX_BIASED = _MAX - _MIN

#: Statement NOWs the decoder is checked at: both calendar ends, the
#: demo NOW, and anything in between.
_nows = st.one_of(st.sampled_from([_MIN, _MAX, _NOW_SECONDS]),
                  st.integers(_MIN, _MAX))
#: NOW offsets, weighted to the ones that clamp at a calendar end.
_offsets = st.one_of(
    st.sampled_from([-_MAX_SPAN, _MAX_SPAN, 0, -1, 1]),
    st.integers(-_MAX_SPAN, _MAX_SPAN),
    st.integers(-10**8, 10**8))


def _packed(*fields) -> bytes:
    """An Element blob of raw ``(flavor, biased, flavor, biased)``
    periods, packed exactly as given."""
    return (_element_blob([])[:3] + struct.pack(">I", len(fields))
            + b"".join(struct.pack(">BQBQ", *f) for f in fields))


@st.composite
def _body(draw, flavor=None):
    """One stored instant body: ``(flavor, biased payload)``."""
    if flavor is None:
        flavor = draw(st.sampled_from([0, 1]))
    if flavor == 0:
        return 0, draw(safe_seconds) - _MIN
    return 1, draw(_offsets) + _MAX_SPAN


@st.composite
def _mixed_periods(draw):
    """Periods whose bounds mix flavors freely: some clamp, some are
    empty at a given NOW, and their grounded pairs may overlap or
    touch.  Determinate periods are ordered, so the blob is valid."""
    fields = []
    for _ in range(draw(st.integers(1, 4))):
        (f1, b1), (f2, b2) = draw(_body()), draw(_body())
        if f1 == f2 == 0 and b1 > b2:
            b1, b2 = b2, b1
        fields.append((f1, b1, f2, b2))
    if draw(st.booleans()):  # a twin that touches the first period
        f1, b1, f2, b2 = fields[0]
        fields.append((f2, b2 + 1, f2, b2 + 1 + draw(st.integers(0, 99))))
    return _packed(*fields)


@st.composite
def _column_values(draw):
    """One stored validity value: mostly decodable, sometimes not."""
    kind = draw(st.sampled_from(
        ["null", "empty", "element", "now", "unsorted", "adjacent",
         "mixed", "empty_at_now"] * 4
        + ["calendar", "truncated", "trailing", "period", "chronon",
           "text", "inverted", "flavor", "offset"]))
    if kind == "null":
        return None
    if kind == "empty":
        return codec.encode(Element([]))
    if kind == "element":
        return codec.encode(draw(elements(max_periods=3)))
    if kind == "now":
        start = draw(chronons())
        return codec.encode(Element([Period(start, Instant.now_relative(
            Span(draw(st.integers(0, 10**6)))))]))
    if kind == "mixed":
        return draw(_mixed_periods())
    if kind == "empty_at_now":
        # [NOW + a, NOW + b] with a > b is empty at every NOW; a late
        # determinate start before NOW - x empties as NOW moves back.
        a, b = sorted(draw(st.tuples(_offsets, _offsets)))
        return _packed((1, b + _MAX_SPAN + 1, 1, a + _MAX_SPAN),
                       (0, draw(safe_seconds) - _MIN, 1, a + _MAX_SPAN))
    if kind in ("unsorted", "adjacent"):
        pairs = [tuple(sorted(pair)) for pair in draw(st.lists(
            st.tuples(safe_seconds, safe_seconds), min_size=1, max_size=3))]
        if kind == "adjacent":
            lo, hi = pairs[-1]
            pairs.append((hi + 1, hi + 1 + draw(st.integers(0, 86_400))))
        return _element_blob(pairs[::-1])
    if kind == "calendar":
        return _packed((0, 0, 0, _MAX_BIASED + draw(st.integers(1, 99))))
    if kind == "inverted":
        lo, hi = sorted(draw(st.tuples(safe_seconds, safe_seconds)))
        return _packed((0, hi + 1 - _MIN, 0, lo - _MIN))
    if kind == "flavor":
        return _packed((draw(st.integers(2, 255)), 0, 0, 0))
    if kind == "offset":  # a NOW offset beyond the span range
        return _packed((0, 0, 1, 2 * _MAX_SPAN + draw(st.integers(1, 99))))
    blob = codec.encode(draw(elements(max_periods=2)))
    if kind == "truncated":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "trailing":
        return blob + draw(st.binary(min_size=1, max_size=3))
    if kind == "period":
        return codec.encode(Period(C("1999-01-01"), C("1999-02-01")))
    if kind == "chronon":
        return codec.encode(draw(chronons()))
    return draw(st.text(max_size=4))


def _per_blob(values, now=_NOW_SECONDS):
    """The oracle: :func:`element_pairs` one value at a time."""
    try:
        return ("ok", [(at, list(codec.binary.element_pairs(
            value, now, "expected Element"))) for at, value
            in enumerate(values) if value is not None])
    except (CodecError, TipTypeError) as exc:
        return (type(exc).__name__, str(exc))


def _batch(values, now=_NOW_SECONDS):
    try:
        row, lo, hi, fallbacks = codec.binary.element_arrays(
            values, now, "expected Element")
    except (CodecError, TipTypeError) as exc:
        return (type(exc).__name__, str(exc)), None
    grouped = {at: [] for at, value in enumerate(values)
               if value is not None}
    for at, pair in zip(row.tolist(), zip(lo.tolist(), hi.tolist())):
        grouped[at].append(pair)
    return ("ok", list(grouped.items())), fallbacks


class TestBatchDecode:
    """``element_arrays`` == per-blob ``element_pairs``, errors included."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_column_values(), max_size=8), now=_nows)
    def test_equals_per_blob_decode(self, values, now):
        """At any NOW; every decodable blob takes the vectorized pass
        (this generator's other values all raise)."""
        outcome, fallbacks = _batch(values, now)
        assert outcome == _per_blob(values, now)
        if fallbacks is not None:
            assert fallbacks == 0

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(_column_values(), max_size=8),
           mode=st.sampled_from(["truncate", "corrupt"]))
    def test_fault_plan_outcome_is_deterministic(self, values, mode):
        """Armed, every value takes the per-blob path in row order: two
        runs agree with each other and with the per-blob oracle."""
        runs = []
        for _ in range(3):
            with faults.inject(f"codec.decode:{mode}", seed=11):
                runs.append(_batch(values)[0] if len(runs) < 2
                            else _per_blob(values))
        assert runs[0] == runs[1] == runs[2]

    def test_clamping_and_vanishing_periods(self):
        """NOW-relative bounds clamp at both calendar ends, and periods
        empty at NOW drop out, exactly as ``Element.ground_pairs``."""
        day = 86_400
        blob = _packed(
            (1, 0, 1, _MAX_SPAN - day),                # [MIN, NOW - 1 day]
            (1, _MAX_SPAN + day, 1, 2 * _MAX_SPAN),    # [NOW + 1 day, MAX]
            (1, _MAX_SPAN + 1, 1, _MAX_SPAN),          # [NOW + 1, NOW]
            (0, C("1999-06-01").seconds - _MIN, 1, _MAX_SPAN))
        for now in (_MIN, _MIN + day, _NOW_SECONDS, _MAX - day, _MAX):
            outcome, fallbacks = _batch([blob], now)
            assert outcome == _per_blob([blob], now) and fallbacks == 0
        (_, pairs), = _batch([blob], _NOW_SECONDS)[0][1]
        assert pairs[0][0] == _MIN and pairs[-1][1] == _MAX

    def test_counts_only_values_outside_the_vectorized_pass(self):
        """A NOW-relative blob costs no fallback; a value that is not
        exact ``bytes`` decodes alone and is the one counted."""
        now_blob = codec.encode(E("{[1999-03-01, NOW]}"))
        values = [now_blob, bytearray(now_blob), None]
        outcome, fallbacks = _batch(values)
        assert outcome == _per_blob([now_blob, now_blob, None])
        assert fallbacks == 1


