"""The three workloads: seeded inputs, closed-loop drivers, output checks.

Every workload follows the same life cycle, driven by ``run.py``:

* ``setup(seed, traced)`` generates its inputs from the seed, loads a
  fresh file-backed database, starts a server process and connects;
  it returns a :class:`Session` ready for the first timed op;
* ``run(session, seconds=..., ops=...)`` is the timed window: a closed
  loop that stops at the deadline or, for the traced replay, after
  exactly the per-client op counts of an earlier untraced window;
* ``check(session, window)`` verifies outputs outside the window and
  returns a list of failures (empty when every check passed).
"""

from __future__ import annotations

import datetime
import os
import random
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from common import (
    ServerProcess, canonical_rows, database_bytes, harvest, loadgen_cpu_seconds,
    remove_database,
)

import repro
from repro import plan
from repro.core.chronon import Chronon
from repro.core.span import Span
from repro.errors import TipError
from repro.server import RemoteTipConnection
from repro.tsql import TsqlSession
from repro.workload import graphs
from repro.workload.generator import random_element
from repro.workload.medical import (
    DOCTORS, DRUGS, PRESCRIPTION_DDL, MedicalConfig, generate_prescriptions, load_tip,
)

#: Every session and every oracle connection evaluates NOW here, so
#: NOW-relative rows give the same answers on every run.
NOW_TEXT = "1999-06-30"
DATA_START, DATA_END = "1990-01-01", "1999-12-31"
#: Length of each client's seeded op sequence (cycled when exhausted).
SEQUENCE_LENGTH = 4000


@dataclass
class Session:
    """A set-up workload: its server, client sessions and oracles."""

    database: str
    server: ServerProcess
    connections: List[RemoteTipConnection]
    rows_loaded: int
    state: Dict = field(default_factory=dict)

    def close(self) -> None:
        for connection in self.connections:
            try:
                connection.close()
            except (TipError, OSError):
                pass
        self.server.stop()


@dataclass
class Window:
    """What one timed window measured."""

    elapsed: float
    latencies: Dict[str, List[float]]      # class -> seconds per request
    ops: List[int]                         # attempted ops per client
    units: int                             # throughput units (stmts/queries/rows)
    failed: int
    server_cpu: float
    loadgen_cpu: float
    counters: Dict[str, float]             # METRICS deltas over the window
    peak_rss_mb: float
    db_bytes: int
    rows_stored: int
    samples: List = field(default_factory=list)
    written: int = 0
    armed: bool = False                    # a fault plan or the profiler was on


def _start(database: str, workdir: str, traced: bool, sessions: int):
    server = ServerProcess(database, workdir, traced=traced)
    try:
        connections = []
        for index in range(sessions):
            connection = RemoteTipConnection(
                server.host, server.port, timeout=60.0,
                session_label=f"bench{index}",
            )
            connection.set_now(NOW_TEXT)
            connections.append(connection)
    except BaseException:
        server.stop()
        raise
    return server, connections


def _medical_database(path: str, seed: int, n_rows: int, n_edges: int) -> int:
    """Load the seeded Prescription table (indexed on patient) and the
    temporal graph into a fresh file; returns the rows stored."""
    remove_database(path)
    rows = generate_prescriptions(MedicalConfig(
        n_prescriptions=n_rows, n_patients=n_rows // 10, seed=seed,
        start=DATA_START, end=DATA_END,
    ))
    edges = graphs.generate_edges(graphs.GraphConfig(
        n_nodes=1000, n_edges=n_edges, seed=seed, overlap_density=0.3,
    ))
    connection = repro.connect(path)
    try:
        load_tip(connection, rows)
        connection.execute("CREATE INDEX idx_rx_patient ON Prescription (patient)")
        graphs.load_graph(connection, edges)
        connection.commit()
    finally:
        connection.close()
    return len(rows) + len(edges)


def _oracle_connection(path: str):
    """A local read-only connection on the naive path (planner off)."""
    plan.configure(enabled=False)
    connection = repro.connect(path, now=NOW_TEXT)
    connection.execute("PRAGMA query_only=ON")
    return connection, TsqlSession(connection)


def _timed_window(session: Session, clients) -> Window:
    """Run *clients* (one callable per connection, each returning its
    ops, throughput units, failures and latencies) as threads, with
    METRICS and CPU readings right before and after."""
    first = session.connections[0]
    before = harvest(first)
    cpu0, load0 = session.server.cpu_seconds(), loadgen_cpu_seconds()
    results: List[Optional[dict]] = [None] * len(clients)
    errors: List[BaseException] = []

    def runner(index, client):
        try:
            results[index] = client()
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(index, client))
               for index, client in enumerate(clients)]
    started = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = perf_counter() - started
    cpu1, load1 = session.server.cpu_seconds(), loadgen_cpu_seconds()
    if errors:
        raise errors[0]
    after = harvest(first)
    # Bytes stored, not bytes awaiting a checkpoint: fold the WAL back
    # into the database first (no reader holds a snapshot any more).
    first.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    latencies: Dict[str, List[float]] = {}
    for result in results:
        for name, values in result["latencies"].items():
            latencies.setdefault(name, []).extend(values)
    written = sum(result.get("written", 0) for result in results)
    return Window(
        elapsed=elapsed, latencies=latencies,
        ops=[result["ops"] for result in results],
        units=sum(result["units"] for result in results),
        failed=sum(result["failed"] for result in results),
        server_cpu=cpu1 - cpu0, loadgen_cpu=load1 - load0,
        counters={key: after[key] - before.get(key, 0) for key in after},
        peak_rss_mb=session.server.peak_rss_mb(),
        db_bytes=database_bytes(session.database),
        rows_stored=session.rows_loaded + written,
        samples=[sample for result in results for sample in result.get("samples", [])],
        written=written,
        armed=any(snapshot[switch] for snapshot in (before, after)
                  for switch in ("faults.armed", "profile.enabled")),
    )


def _loop(deadline: Optional[float], limit: Optional[int], step) -> int:
    """A closed loop calling ``step(i)`` until the deadline or limit."""
    count = 0
    while count < limit if limit is not None else perf_counter() < deadline:
        step(count)
        count += 1
    return count


# -- serve_mixed ----------------------------------------------------------


class ServeMixed:
    """Two sessions, closed loops of prepared statements on one WAL file."""

    name = "serve_mixed"
    unit = "statements"
    sessions = 2
    n_rows, n_edges = 12_000, 5_000
    #: (class, ops per block of 20): the exact 45/35/5/15 mix, shuffled
    #: within each block so every seed runs the same shares.
    mix = (("snapshot", 9), ("overlaps", 7), ("two_hop", 1), ("insert", 3))
    statements = {
        "snapshot": "SNAPSHOT SELECT drug, dosage, frequency FROM Prescription "
                    "WHERE patient = ?",
        "overlaps": "SELECT drug, dosage, valid FROM Prescription "
                    "WHERE patient = ? AND overlaps(valid, ?)",
        "two_hop": "VALIDTIME SELECT e1.src, e1.dst, e2.dst FROM edges AS e1, "
                   "edges AS e2 WHERE e1.dst = e2.src AND e1.src = ?",
        "insert": "INSERT INTO Prescription VALUES (?, ?, ?, ?, ?, ?, ?)",
    }
    #: Every SAMPLE_EVERY-th read of a client's first pass is checked.
    SAMPLE_EVERY = 8

    def setup(self, seed: int, workdir: str, traced: bool) -> Session:
        database = os.path.join(workdir, "serve.db")
        rows_loaded = _medical_database(database, seed, self.n_rows, self.n_edges)
        rng = random.Random(seed * 7919 + 1)
        connection = repro.connect(database)
        patients = [row[0] for row in connection.query(
            "SELECT DISTINCT patient FROM Prescription ORDER BY patient")]
        connection.close()
        lo, hi = Chronon.parse(DATA_START), Chronon.parse(DATA_END)
        probes = [random_element(rng, rng.randint(1, 3), lo, hi, now_fraction=0.2)
                  for _ in range(64)]
        sequences = [self._sequence(rng, client, patients, probes, lo, hi)
                     for client in range(self.sessions)]
        # The oracle: sampled reads answered by the embedded engine on
        # the freshly loaded file, before the server opens it.
        oracle_conn, oracle = _oracle_connection(database)
        expected = {}
        try:
            for client, sequence in enumerate(sequences):
                for position, (kind, params, sampled) in enumerate(sequence):
                    if sampled:
                        expected[client, position] = canonical_rows(
                            oracle.query(self.statements[kind], params))
        finally:
            oracle_conn.close()
        server, connections = _start(database, workdir, traced, self.sessions)
        session = Session(database, server, connections, rows_loaded)
        try:
            session.state["prepared"] = [
                {kind: connection.prepare(sql) for kind, sql in self.statements.items()}
                for connection in connections
            ]
        except BaseException:
            session.close()
            raise
        session.state.update(sequences=sequences, expected=expected)
        return session

    def _sequence(self, rng, client, patients, probes, lo, hi):
        block = [kind for kind, count in self.mix for _ in range(count)]
        kinds = []
        while len(kinds) < SEQUENCE_LENGTH:
            rng.shuffle(block)
            kinds.extend(block)
        sequence = []
        reads = 0
        for position, kind in enumerate(kinds[:SEQUENCE_LENGTH]):
            sampled = False
            if kind == "snapshot":
                params = (rng.choice(patients),)
            elif kind == "overlaps":
                params = (rng.choice(patients), rng.choice(probes))
            elif kind == "two_hop":
                params = (rng.randrange(1000),)
            else:
                params = (
                    rng.choice(DOCTORS), f"New.{client}.{position}",
                    Chronon.of(rng.randint(1940, 1999), rng.randint(1, 12),
                               rng.randint(1, 28)),
                    rng.choice(DRUGS), rng.choice((1, 2, 3, 4)),
                    Span.of(hours=rng.choice((4, 6, 8, 12, 24))),
                    random_element(rng, rng.randint(1, 3), lo, hi, now_fraction=0.3),
                )
            if kind != "insert":
                sampled = reads % self.SAMPLE_EVERY == 0
                reads += 1
            sequence.append((kind, params, sampled))
        return sequence

    def run(self, session: Session, *, seconds=None, ops=None) -> Window:
        deadline = None if seconds is None else perf_counter() + seconds

        def client(index):
            prepared = session.state["prepared"][index]
            sequence = session.state["sequences"][index]
            latencies = {kind: [] for kind, _ in self.mix}
            samples, tally = [], {"failed": 0, "written": 0}

            def step(i):
                kind, params, sampled = sequence[i % SEQUENCE_LENGTH]
                started = perf_counter()
                try:
                    result = prepared[kind].execute(params)
                except TipError:
                    tally["failed"] += 1
                    return
                latencies[kind].append(perf_counter() - started)
                if kind == "insert":
                    tally["written"] += max(0, result.rowcount)
                elif sampled and i < SEQUENCE_LENGTH:
                    samples.append(((index, i), result.rows))

            count = _loop(deadline, None if ops is None else ops[index], step)
            return {"ops": count, "units": count - tally["failed"], "latencies": latencies,
                    "samples": samples, **tally}

        return _timed_window(
            session, [lambda index=index: client(index) for index in range(self.sessions)])

    def check(self, session: Session, window: Window) -> List[str]:
        failures = []
        expected = session.state["expected"]
        for key, rows in window.samples:
            if canonical_rows(rows) != expected[key]:
                failures.append(f"serve read {key} differs from the set-up oracle")
        if not window.samples:
            failures.append("no sampled reads were checked")
        row = session.connections[0].query_one(
            "SELECT COUNT(*) FROM Prescription WHERE patient LIKE 'New.%'")
        count = row[0] if row else None
        if count != window.written:
            failures.append(f"{count} inserted rows stored, {window.written} acknowledged")
        return failures


# -- temporal_analytics ---------------------------------------------------


class TemporalAnalytics:
    """One session of ad-hoc temporal queries, four single-template
    classes round-robin, seeded literals (mostly statement-cache misses)."""

    name = "temporal_analytics"
    unit = "queries"
    sessions = 1
    n_rows, n_edges = 10_000, 5_000
    classes = ("join", "window_join", "coalesce", "udf_scan")

    def setup(self, seed: int, workdir: str, traced: bool) -> Session:
        database = os.path.join(workdir, "analytics.db")
        rows_loaded = _medical_database(database, seed, self.n_rows, self.n_edges)
        rng = random.Random(seed * 7919 + 2)
        connection = repro.connect(database)
        patients = [row[0] for row in connection.query(
            "SELECT DISTINCT patient FROM Prescription ORDER BY patient")]
        connection.close()
        queries = [self._query(rng, index, patients) for index in range(SEQUENCE_LENGTH)]
        server, connections = _start(database, workdir, traced, self.sessions)
        session = Session(database, server, connections, rows_loaded)
        session.state["queries"] = queries
        return session

    def _query(self, rng, index, patients):
        kind = self.classes[index % len(self.classes)]
        if kind == "join":
            first, second = rng.sample(DRUGS, 2)
            sql = ("VALIDTIME SELECT p1.patient, p1.drug, p2.drug "
                   "FROM Prescription AS p1, Prescription AS p2 "
                   "WHERE p1.patient = p2.patient "
                   f"AND p1.drug = '{first}' AND p2.drug = '{second}'")
        elif kind == "window_join":
            start = datetime.date(1995, 1, 1) + datetime.timedelta(days=rng.randrange(1700))
            end = start + datetime.timedelta(days=90)
            sql = graphs.windowed_path_query(f"{start.isoformat()}, {end.isoformat()}")
        elif kind == "coalesce":
            sql = ("SELECT patient, length_seconds(group_union(valid)) AS covered "
                   f"FROM Prescription WHERE patient <> '{rng.choice(patients)}' "
                   "GROUP BY patient")
        else:
            # start() of an element that is empty at NOW raises, so the
            # CASE keeps paper Q1 away from such rows (CASE is lazy).
            sql = ("SELECT patient, drug FROM Prescription "
                   f"WHERE drug = '{rng.choice(DRUGS)}' "
                   "AND CASE WHEN is_empty(valid) THEN 0 "
                   "ELSE tlt(tsub(start(valid), patientdob), "
                   f"tmul(span('7'), {rng.randint(400, 1600)})) END")
        return kind, sql

    def run(self, session: Session, *, seconds=None, ops=None) -> Window:
        deadline = None if seconds is None else perf_counter() + seconds
        connection = session.connections[0]
        queries = session.state["queries"]

        def client():
            latencies = {kind: [] for kind in self.classes}
            samples, tally = [], {"failed": 0}

            def step(i):
                kind, sql = queries[i % SEQUENCE_LENGTH]
                started = perf_counter()
                try:
                    rows = connection.execute(sql).rows
                except TipError:
                    tally["failed"] += 1
                    return
                latencies[kind].append(perf_counter() - started)
                if i < len(self.classes):
                    samples.append((sql, rows))

            count = _loop(deadline, None if ops is None else ops[0], step)
            return {"ops": count, "units": count - tally["failed"], "latencies": latencies,
                    "samples": samples, **tally}

        return _timed_window(session, [client])

    def check(self, session: Session, window: Window) -> List[str]:
        """The first query of each class equals the naive UDF path."""
        failures = []
        oracle_conn, oracle = _oracle_connection(session.database)
        try:
            for sql, rows in window.samples:
                if canonical_rows(rows) != canonical_rows(oracle.query(sql)):
                    failures.append(f"kernel/naive mismatch: {sql[:60]}")
        finally:
            oracle_conn.close()
        if len(window.samples) < len(self.classes):
            failures.append("not every query class was checked")
        return failures


# -- bulk_ingest ----------------------------------------------------------


class BulkIngest:
    """One session streaming seeded rows into an empty table in
    fixed-size ``executemany`` frames."""

    name = "bulk_ingest"
    unit = "rows"
    sessions = 1
    CHUNK = 256
    POOL = 4096
    SAMPLED_ROWS = 24

    def setup(self, seed: int, workdir: str, traced: bool) -> Session:
        database = os.path.join(workdir, "ingest.db")
        remove_database(database)
        pool = [row.as_params() for row in generate_prescriptions(MedicalConfig(
            n_prescriptions=self.POOL, n_patients=self.POOL // 10, seed=seed,
            start=DATA_START, end=DATA_END,
        ))]
        server, connections = _start(database, workdir, traced, self.sessions)
        session = Session(database, server, connections, 0)
        try:
            connections[0].execute(PRESCRIPTION_DDL.format(table="Ingest"))
            statement = connections[0].prepare(
                "INSERT INTO Ingest VALUES (?, ?, ?, ?, ?, ?, ?)")
        except BaseException:
            session.close()
            raise
        session.state.update(pool=pool, statement=statement,
                             rng=random.Random(seed * 7919 + 3))
        return session

    def row(self, pool, index):
        """Row *index* of the stream: a pool row under a unique patient."""
        params = pool[index % self.POOL]
        return (params[0], f"{params[1]}#{index}") + params[2:]

    def run(self, session: Session, *, seconds=None, ops=None) -> Window:
        deadline = None if seconds is None else perf_counter() + seconds
        pool, statement = session.state["pool"], session.state["statement"]

        def client():
            latencies = {"frame": []}
            tally = {"failed": 0, "written": 0}

            def step(i):
                base = i * self.CHUNK
                chunk = [self.row(pool, base + offset) for offset in range(self.CHUNK)]
                started = perf_counter()
                try:
                    written = statement.executemany(chunk, chunk=self.CHUNK)
                except TipError:
                    tally["failed"] += 1
                    return
                latencies["frame"].append(perf_counter() - started)
                tally["written"] += written

            count = _loop(deadline, None if ops is None else ops[0], step)
            return {"ops": count, "units": tally["written"], "latencies": latencies, **tally}

        return _timed_window(session, [client])

    def check(self, session: Session, window: Window) -> List[str]:
        """Stop the server, reopen the file: every acknowledged row is
        there and sampled rows round-trip their values."""
        session.close()
        failures = []
        rng = session.state["rng"]
        pool = session.state["pool"]
        indices = rng.sample(range(window.written), min(self.SAMPLED_ROWS, window.written))
        expected = {self.row(pool, index)[1]: self.row(pool, index) for index in indices}
        connection = repro.connect(session.database)
        try:
            (count,) = connection.query_one("SELECT COUNT(*) FROM Ingest")
            if count != window.written:
                failures.append(f"{count} rows stored, {window.written} acknowledged")
            marks = ", ".join("?" * len(expected))
            found = connection.query(
                f"SELECT * FROM Ingest WHERE patient IN ({marks})", tuple(expected))
        finally:
            connection.close()
        for row in found:
            if canonical_rows([row]) != canonical_rows([expected[row[1]]]):
                failures.append(f"row {row[1]} did not round-trip")
        if len(found) != len(expected):
            failures.append(f"{len(found)} of {len(expected)} sampled rows found")
        return failures


WORKLOADS = {workload.name: workload for workload in
             (ServeMixed(), TemporalAnalytics(), BulkIngest())}
