"""The concurrent WAL server: pool dispatch, isolation, ordering, chaos.

Four properties the reader-pool refactor must hold, each proven against
a **file-backed** server (``:memory:`` degenerates to the old
serialized model by design — these tests exercise the WAL path):

1. concurrent reads genuinely overlap on the reader pool (the pool's
   busy gauge observes >1 reader in flight, and wall-clock beats the
   serialized bound);
2. the per-session ``NOW`` override stays isolated even though sessions
   share pooled reader connections under interleaving;
3. writer history is linearizable — one total write order, no lost
   updates, every session's writes in its issue order;
4. keyed chaos plans fire **per connection deterministically**: two
   identical runs produce identical per-connection fired-fault ledgers,
   whatever the thread scheduler did.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import faults
from repro.server import RemoteTipConnection, TipServer
from repro.server.client import RemoteError, RetryPolicy
from repro.server.pool import classify

#: Fixed retry policy: no jitter, no sleeps — chaos runs stay seeded.
NO_RETRY = RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0)


def _run_threads(target, count):
    """Run *target(index)* across *count* threads; list of exceptions."""
    failures = []

    def wrapped(index):
        try:
            target(index)
        except Exception as exc:  # pragma: no cover - surfaced by caller
            failures.append((index, exc))

    threads = [
        threading.Thread(target=wrapped, args=(index,)) for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return failures


class TestClassify:
    """Read/write routing is decided by the statement's tokens."""

    @pytest.mark.parametrize("sql, kind", [
        ("SELECT 1", "read"),
        ("  select * FROM t", "read"),
        ("-- a note\nSELECT 1", "read"),
        ("/* DELETE */ SELECT 1", "read"),
        ("/* a */ -- b\n VALUES (1)", "read"),
        ("EXPLAIN QUERY PLAN SELECT 1", "read"),
        ("VALIDTIME SELECT a FROM t", "read"),
        ("NONSEQUENCED VALIDTIME SELECT a FROM t", "read"),
        ("SNAPSHOT AT '1999-01-01' SELECT a FROM t", "read"),
        ("WITH x AS (SELECT 1) SELECT * FROM x", "read"),
        ("WITH x AS (SELECT 'DELETE') SELECT * FROM x", "read"),
        ("WITH x AS (SELECT 1) SELECT * FROM x -- then DROP it", "read"),
        ("WITH x AS (SELECT 1) DELETE FROM t WHERE a IN x", "write"),
        ("WITH x AS (SELECT 1) INSERT INTO t SELECT * FROM x", "write"),
        ("INSERT INTO t VALUES ('SELECT')", "write"),
        ("-- SELECT\nDELETE FROM t", "write"),
        ("PRAGMA journal_mode", "write"),
        ("CREATE TABLE t (a)", "write"),
        ("", "write"),
        ("'unterminated", "write"),
    ])
    def test_classify(self, sql, kind):
        assert classify(sql) == kind


class TestReadOverlap:
    """Reads fan out: the pool serves multiple sessions at once."""

    N_CLIENTS = 4
    N_QUERIES = 3
    ROUTINE_DELAY = 0.15

    def test_slow_reads_overlap_on_the_pool(self, tmp_path):
        with TipServer(str(tmp_path / "overlap.db"), readers=self.N_CLIENTS,
                       observability=False) as server:
            host, port = server.address
            barrier = threading.Barrier(self.N_CLIENTS)

            def client(index):
                with RemoteTipConnection(host, port) as connection:
                    barrier.wait(timeout=10)
                    for _ in range(self.N_QUERIES):
                        connection.query_one("SELECT tip_text(tip_now())")

            # Each blade routine call sleeps, so every read statement
            # holds its reader long enough that overlap is observable.
            started = time.perf_counter()
            with faults.inject(
                f"blade.routine:delay:delay={self.ROUTINE_DELAY},times=inf"
            ):
                failures = _run_threads(client, self.N_CLIENTS)
            elapsed = time.perf_counter() - started
            assert not failures, failures

            stats = server.pool.stats()
            assert stats["wal"] is True
            assert stats["readers"] == self.N_CLIENTS
            assert stats["reads"] >= self.N_CLIENTS * self.N_QUERIES
            # The busy histogram's max is the measured concurrency: a
            # checkout happened while >= 2 other readers were in use.
            assert stats["max_busy"] >= 2, stats
            # Wall clock beats the fully serialized bound (each query
            # sleeps >= 2 * ROUTINE_DELAY inside the blade: tip_text +
            # tip_now).  Serialized: N_CLIENTS * N_QUERIES * 0.3s = 3.6s.
            serialized = (
                self.N_CLIENTS * self.N_QUERIES * 2 * self.ROUTINE_DELAY
            )
            assert elapsed < 0.75 * serialized, (elapsed, serialized)

    def test_pool_gauges_travel_in_the_metrics_frame(self, tmp_path):
        with TipServer(str(tmp_path / "gauges.db"), readers=2,
                       observability=False) as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as connection:
                connection.query_one("SELECT 1")
                pool = connection.metrics()["pool"]
        assert pool["wal"] is True
        assert pool["readers"] == 2
        assert pool["reads"] >= 1
        assert set(pool) == set(server.pool.stats())


class TestSessionNowIsolation:
    """Shared reader connections must not leak one session's NOW."""

    N_CLIENTS = 4
    N_QUERIES = 15
    READERS = 2  # fewer readers than sessions: connections are shared

    def test_distinct_overrides_under_interleaving(self, tmp_path):
        with TipServer(str(tmp_path / "now.db"), readers=self.READERS,
                       observability=False) as server:
            host, port = server.address
            barrier = threading.Barrier(self.N_CLIENTS)

            def client(index):
                now = f"{2001 + index:04d}-06-01"
                with RemoteTipConnection(host, port) as connection:
                    connection.set_now(now)
                    barrier.wait(timeout=10)
                    for _ in range(self.N_QUERIES):
                        (text,) = connection.query_one(
                            "SELECT tip_text(tip_now())"
                        )
                        # NOW is applied at checkout, so the same reader
                        # evaluates under a different NOW per statement —
                        # and always *this* session's.
                        assert text == now, (index, text)

            failures = _run_threads(client, self.N_CLIENTS)
            assert not failures, failures
            # The point of READERS < N_CLIENTS: checkouts contended.
            assert server.pool.stats()["reads"] \
                >= self.N_CLIENTS * self.N_QUERIES


class TestWriterLinearizability:
    """One total write order; no lost updates; per-session issue order."""

    N_CLIENTS = 4
    N_WRITES = 25

    def test_no_lost_updates_and_per_session_order(self, tmp_path):
        with TipServer(str(tmp_path / "writes.db"), readers=2,
                       observability=False) as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as admin:
                admin.execute("CREATE TABLE counter (n INTEGER)")
                admin.execute("INSERT INTO counter VALUES (0)")
                admin.execute("CREATE TABLE log (writer INTEGER, seq INTEGER)")
            barrier = threading.Barrier(self.N_CLIENTS)

            def client(index):
                with RemoteTipConnection(host, port) as connection:
                    barrier.wait(timeout=10)
                    for seq in range(self.N_WRITES):
                        connection.execute("UPDATE counter SET n = n + 1")
                        connection.execute(
                            "INSERT INTO log VALUES (?, ?)", (index, seq)
                        )

            failures = _run_threads(client, self.N_CLIENTS)
            assert not failures, failures

            with RemoteTipConnection(host, port) as connection:
                # Read-your-writes across the pool: the counter query
                # runs on a *reader* yet must see every committed write.
                (count,) = connection.query_one("SELECT n FROM counter")
                log = connection.query(
                    "SELECT rowid, writer, seq FROM log ORDER BY rowid"
                )
            # No lost updates: every read-modify-write landed.
            assert count == self.N_CLIENTS * self.N_WRITES
            # The single write order (rowid) contains each session's
            # writes in that session's issue order.
            last_seq = {}
            for _rowid, writer, seq in log:
                assert seq == last_seq.get(writer, -1) + 1, (writer, seq)
                last_seq[writer] = seq
            assert last_seq == {
                index: self.N_WRITES - 1 for index in range(self.N_CLIENTS)
            }
            stats = server.pool.stats()
            assert stats["writes"] >= 2 * self.N_CLIENTS * self.N_WRITES


class TestChaosDeterminismPerConnection:
    """Keyed fault plans replay per connection, whatever the scheduler did."""

    SPEC = ("pool.checkout:raise:p=0.5,times=inf;"
            "wal.checkpoint:raise:p=0.3,times=inf")
    SEED = 424242
    LABELS = ("c0", "c1", "c2")
    N_OPS = 21

    def _chaos_run(self, db_path, seed=None):
        """One labeled 3-client chaos run; the plan's per-key ledger."""
        with TipServer(str(db_path), readers=2, observability=False) as server:
            host, port = server.address
            with RemoteTipConnection(host, port) as admin:
                admin.execute("CREATE TABLE chaos (client TEXT, seq INTEGER)")
            with faults.inject(
                self.SPEC, seed=self.SEED if seed is None else seed
            ) as plan:
                def client(index):
                    label = self.LABELS[index]
                    with RemoteTipConnection(
                        host, port, session_label=label, retry=NO_RETRY
                    ) as connection:
                        for seq in range(self.N_OPS):
                            try:
                                if seq % 3 == 2:
                                    connection.execute(
                                        "INSERT INTO chaos VALUES (?, ?)",
                                        (label, seq),
                                    )
                                else:
                                    connection.query_one(
                                        "SELECT COUNT(*) FROM chaos"
                                    )
                            except RemoteError as exc:
                                # An injected checkout failure fails that
                                # statement typed; the session lives on.
                                assert exc.kind == "InjectedFault"

                failures = _run_threads(client, len(self.LABELS))
                assert not failures, failures
                return plan.ledger()

    def test_identical_ledgers_across_identical_runs(self, tmp_path):
        first = self._chaos_run(tmp_path / "first.db")
        second = self._chaos_run(tmp_path / "second.db")
        # Each labeled connection ran a fixed statement sequence, so its
        # keyed hit sequence — and therefore which hits fired — must be
        # byte-identical across runs despite arbitrary interleaving.
        assert first == second
        assert set(first) == set(self.LABELS)
        # The plan actually fired (p=0.5 over 14 reads per connection
        # makes an empty ledger astronomically unlikely — and it would
        # make this whole test vacuous).
        assert any(first[label] for label in self.LABELS), first
        for label in self.LABELS:
            for entry in first[label]:
                point, _, rest = entry.partition(":")
                assert point in ("pool.checkout", "wal.checkpoint"), entry
                assert rest.startswith("raise#"), entry

    def test_distinct_seeds_change_the_schedule(self, tmp_path):
        """The complement: the ledger is a function of the seed."""
        baseline = self._chaos_run(tmp_path / "a.db")
        shifted = self._chaos_run(tmp_path / "b.db", seed=self.SEED + 1)
        assert baseline != shifted


@pytest.fixture(autouse=True)
def disarmed():
    faults.disarm()
    yield
    faults.disarm()
