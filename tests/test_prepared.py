"""The compiled-statement cache: prepared must equal ad-hoc, always.

The headline property runs every generated tSQL statement three ways —
cold compile (cache miss), warm compile (cache hit), and ad hoc after
clearing the cache (translated afresh) — under a randomized session
NOW, and asserts the rows are identical.  A statement cache that can
change any answer is worse than no cache; these tests are the proof it
can't.

Around the property: the LRU honours its bound (evictions, not
growth), and schema motion — ``ALTER TABLE ADD COLUMN ... ELEMENT``,
drop/recreate, ``register()``, a DDL between two compiles of a join —
invalidates compiled plans and their kernel shapes instead of serving
stale translations (the regression the generation counter exists to
prevent).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import faults, obs
from repro.plan import shapes
from repro.tsql import TsqlSession, compiled
from tests.conftest import sec
from tests.strategies import tsql_statements

NOW_LO = sec("2000-01-01")
NOW_HI = sec("2009-12-31")

now_seconds = st.integers(min_value=NOW_LO, max_value=NOW_HI)

_RX_ROWS = [
    ("alice", "aspirin", "{[1999-01-01, 1999-06-30]}"),
    ("alice", "prozac", "{[1999-04-01, 1999-12-31]}"),
    ("bob", "aspirin", "{[1999-05-01, NOW]}"),
    ("carol", "tylenol", "{[1999-02-01, 1999-02-28], [1999-10-01, NOW]}"),
]


@pytest.fixture(autouse=True)
def fresh_cache():
    """Every test starts (and leaves) a clean cache with zeroed stats."""
    faults.disarm()
    compiled.clear_cache(reset_stats=True)
    yield
    faults.disarm()
    compiled.clear_cache(reset_stats=True)


@pytest.fixture(scope="module")
def rx():
    """A temporal Rx table plus its session, shared across examples."""
    connection = repro.connect(now="1999-09-01")
    connection.execute("CREATE TABLE Rx (patient TEXT, drug TEXT, valid ELEMENT)")
    connection.executemany(
        "INSERT INTO Rx VALUES (?, ?, element(?))", _RX_ROWS
    )
    session = TsqlSession(connection)
    yield connection, session
    connection.close()


def _rows(session, statement, params):
    """Rows as comparable text (Element columns included)."""
    return [tuple(map(str, row)) for row in session.query(statement, params)]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stmt_params=tsql_statements(), now_s=now_seconds)
def test_prepared_equals_adhoc_under_random_now(rx, stmt_params, now_s):
    connection, session = rx
    statement, params = stmt_params
    connection.set_now(now_s)
    try:
        compiled.clear_cache()
        cold = _rows(session, statement, params)      # compile: miss
        warm = _rows(session, statement, params)      # served from cache
        compiled.clear_cache()
        adhoc = _rows(session, statement, params)     # translated afresh
        assert cold == warm == adhoc
    finally:
        connection.set_now("1999-09-01")


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stmt_params=tsql_statements())
def test_whitespace_respellings_share_one_plan(rx, stmt_params):
    """Every whitespace spelling of a statement maps to one cache entry."""
    _, session = rx
    statement, params = stmt_params
    compiled.clear_cache(reset_stats=True)
    reference = _rows(session, statement, params)
    respelled = "  " + statement.replace(" ", "\n ") + " ;"
    # Respelling whitespace inside a literal would (correctly) be a
    # different statement; skip to the canonical form in that case.
    if compiled.normalize_statement(respelled) == compiled.normalize_statement(statement):
        assert _rows(session, respelled, params) == reference
        assert compiled.CACHE.stats()["entries"] == 1
        assert compiled.CACHE.stats()["hits"] >= 1


def test_lru_bound_and_eviction(rx):
    _, session = rx
    statements = [f"SELECT patient, {n} FROM Rx"
                  for n in range(compiled.CACHE_SIZE + 6)]
    first = [tuple(map(str, row)) for row in session.query(statements[0])]
    for statement in statements[1:]:
        session.query(statement)
    stats = compiled.stats()
    assert stats["entries"] == compiled.CACHE_SIZE
    assert stats["evictions"] == 6
    assert stats["misses"] == len(statements)
    # An evicted statement recompiles correctly (a fresh miss, same rows).
    assert [tuple(map(str, row)) for row in session.query(statements[0])] == first
    assert compiled.stats()["misses"] == len(statements) + 1


class TestInvalidation:
    """Schema motion must orphan compiled plans, not serve them stale."""

    STATEMENT = "SNAPSHOT SELECT patient FROM Visits"

    def test_alter_table_gaining_element_column(self):
        connection = repro.connect(now="1999-09-01")
        try:
            session = TsqlSession(connection)
            session.query("CREATE TABLE Visits (patient TEXT)")
            connection.execute("INSERT INTO Visits VALUES ('alice')")
            # Non-temporal: SNAPSHOT adds no validity conjunct.
            before = session.translate(self.STATEMENT)
            assert "contains_instant" not in before
            assert session.query(self.STATEMENT) == [("alice",)]
            # The table gains a valid-time column mid-session; the
            # cached plan compiled without it must not be served.
            session.query("ALTER TABLE Visits ADD COLUMN valid ELEMENT")
            after = session.translate(self.STATEMENT)
            assert "contains_instant(Visits.valid" in after
            connection.execute(
                "UPDATE Visits SET valid = element('{[1999-01-01, 1999-03-31]}')"
            )
            # NOW (1999-09-01) is outside the validity: snapshot empty.
            assert session.query(self.STATEMENT) == []
        finally:
            connection.close()

    def test_drop_and_recreate_without_element(self):
        connection = repro.connect(now="1999-09-01")
        try:
            session = TsqlSession(connection)
            session.query("CREATE TABLE Visits (patient TEXT, valid ELEMENT)")
            assert "contains_instant" in session.translate(self.STATEMENT)
            session.query("DROP TABLE Visits")
            session.query("CREATE TABLE Visits (patient TEXT)")
            # The recreated table has no validity column; the old plan
            # (which referenced Visits.valid) must be gone.
            assert "contains_instant" not in session.translate(self.STATEMENT)
            connection.execute("INSERT INTO Visits VALUES ('bob')")
            assert session.query(self.STATEMENT) == [("bob",)]
        finally:
            connection.close()

    def test_register_invalidates(self):
        connection = repro.connect(now="1999-09-01")
        try:
            session = TsqlSession(connection)
            session.query("CREATE TABLE Visits (patient TEXT, vt ELEMENT, other ELEMENT)")
            assert "contains_instant(Visits.vt" in session.translate(self.STATEMENT)
            session.register("Visits", "other")
            assert "contains_instant(Visits.other" in session.translate(self.STATEMENT)
        finally:
            connection.close()

    def test_ddl_between_compiles_rematches_join_shape(self, monkeypatch):
        """DDL bumps the generation; a join compiled before and after it
        is matched twice, not served its stale kernel shape."""
        matched = []
        match = shapes.match
        monkeypatch.setattr(
            shapes, "match", lambda sql: matched.append(sql) or match(sql))
        join = ("VALIDTIME SELECT l.k, r.k FROM L AS l, R AS r "
                "WHERE l.k = r.k")
        connection = repro.connect(now="1999-09-01")
        try:
            session = TsqlSession(connection)
            session.query("CREATE TABLE L (k INTEGER, valid ELEMENT)")
            session.query("CREATE TABLE R (k INTEGER, valid ELEMENT)")
            registry = compiled.discover_valid_columns(connection)
            first = compiled.compile_statement(join, registry)
            assert compiled.compile_statement(join, registry) is first
            assert first.shape is not None and len(matched) == 1
            session.query("CREATE TABLE bump (n INTEGER, valid ELEMENT)")
            registry = compiled.discover_valid_columns(connection)
            again = compiled.compile_statement(join, registry)
            assert again.generation > first.generation
            assert again.shape == first.shape and len(matched) == 2
        finally:
            connection.close()

    def test_generation_in_key_isolates_old_plans(self, rx):
        _, session = rx
        compiled.clear_cache(reset_stats=True)
        statement = "SNAPSHOT SELECT patient FROM Rx"
        session.query(statement)
        gen_before = compiled.generation()
        compiled.bump_generation()
        assert compiled.generation() == gen_before + 1
        # The old entry was cleared and the new generation misses.
        session.query(statement)
        stats = compiled.stats()
        assert stats["misses"] == 2
        assert stats["invalidations"] >= 1

    def test_new_session_over_an_unchanged_schema_keeps_plans(self, rx):
        connection, session = rx
        statement = "SNAPSHOT SELECT patient FROM Rx"
        session.query(statement)
        generation = compiled.generation()
        TsqlSession(connection)
        TsqlSession(connection)
        assert compiled.generation() == generation
        session.query(statement)
        assert compiled.stats()["hits"] == 1


def test_armed_faults_bypass_the_cache(rx):
    _, session = rx
    statement = "SNAPSHOT SELECT patient FROM Rx"
    session.query(statement)
    assert compiled.CACHE.stats()["entries"] == 1
    with faults.inject("stmt.cache:delay:delay=0.0", seed=7):
        # Armed: the cache was cleared and is never consulted.
        assert compiled.CACHE.stats()["entries"] == 0
        session.query(statement)
        assert compiled.CACHE.stats()["entries"] == 0


def test_cache_traffic_is_visible_in_obs(rx):
    _, session = rx
    with obs.capture(enabled=True):
        compiled.clear_cache(reset_stats=True)
        session.query("SNAPSHOT SELECT patient FROM Rx")
        session.query("SNAPSHOT SELECT patient FROM Rx")
        snapshot = obs.snapshot()
    statement_stats = snapshot["caches"]["statement"]
    assert statement_stats["hits"] == 1 and statement_stats["misses"] == 1
    counters = snapshot["counters"]
    assert counters["tsql.cache.hit"] == 1
    assert counters["tsql.cache.miss"] == 1
