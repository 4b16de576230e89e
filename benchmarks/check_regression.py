#!/usr/bin/env python
"""Compare two pytest-benchmark JSON exports and fail on regressions.

Usage::

    PYTHONPATH=src python -m pytest benchmarks -q \\
        --benchmark-json=BENCH_base.json            # on the base commit
    ...
    python benchmarks/check_regression.py BENCH_base.json BENCH_head.json

Exits 1 if any benchmark present in both files got slower (mean time)
by more than the threshold (default 20%), so CI can gate merges on it.
Benchmarks that appear in only one file are reported but never fail
the check — adding or retiring an experiment is not a regression.

There is also a self-contained smoke mode::

    PYTHONPATH=src python benchmarks/check_regression.py --smoke \\
        [--out BENCH_PR10.json] [--repeats 5] [--size 200] \\
        [--baseline benchmarks/BENCH_PR9.json] [--concurrency] [--scale]

which runs a fixed set of representative temporal workloads in-process
(no pytest-benchmark needed) and writes a machine-readable JSON report:
per-benchmark median wall time, the work counters
(``element.periods_processed`` and friends) captured through
:mod:`repro.obs`, and the marshalling- and statement-cache hit/miss
deltas (``repro.codec.cache``, ``repro.tsql.compiled``) per benchmark.
The ``e7.prepared.hot`` / ``e7.adhoc.retranslate`` pair A/Bs the
compiled-statement cache and the report's ``prepared`` section records
the speedup; ``e7.executemany.ingest`` times remote bulk ingest over
the prepared-statement ``many`` frames.  When a committed baseline
report exists (auto-detected as the highest-numbered ``BENCH_PR*.json``
next to this script, or given via ``--baseline``) the smoke run also
compares median wall times against it and **warns** — without failing —
on any shared benchmark slower than ``SMOKE_WARN_RATIO`` (1.5x).  CI
runs the smoke mode on every push and uploads the report as an
artifact, so perf *and* algorithmic-work trends are inspectable per
commit.

``--concurrency`` (implies ``--smoke``) additionally runs the N-client
read-throughput sweep against the pooled WAL server — a serialized
single-connection baseline versus batched clients over a reader pool —
and records the sweep plus ``speedup_at_max`` in the report's
``concurrency`` section.

The ``e10.join.kernel`` / ``e10.join.naive`` pair A/Bs the temporal
query planner's set-based join kernels (:mod:`repro.plan`) against the
naive UDF path on a CI-sized temporal-graph workload (the ``plan``
section records the smoke-scale speedup), and ``e10.coalesce.kernel``
covers the sweep-coalesce kernel.  ``--scale`` (implies ``--smoke``)
additionally runs the full-scale headline join — 5x10^4 edge rows per
side, kernel vs naive, results differentially compared — and records
it in the report's ``scale`` section; this is the committed evidence
for ISSUE 10's >= 10x acceptance bound.

The compare path is stdlib only: it runs on a bare CI runner without
the test extras.  Only ``--smoke`` imports :mod:`repro` (point
``PYTHONPATH`` at ``src``).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys
import time
from typing import Dict, Optional

DEFAULT_THRESHOLD = 0.20

#: Smoke-vs-baseline comparisons warn (never fail) above this ratio:
#: the committed baseline was recorded on a different machine, so only
#: gross regressions are worth flagging.
SMOKE_WARN_RATIO = 1.5

#: Fixed evaluation time for smoke runs — matches benchmarks/conftest.py,
#: so counter values are machine- and wall-clock-independent.
SMOKE_NOW = "2000-01-01"

#: Counters worth carrying into the smoke report: the paper's
#: algorithmic-work metrics, not latencies (those vary per machine).
SMOKE_COUNTER_PREFIXES = (
    "element.periods_processed",
    "tempagg.sweep.periods_processed",
    "layered.op.",
    "blade.aggregate.",
    "plan.",
)


def load_means(path: str) -> Dict[str, float]:
    """Map benchmark fullname -> mean seconds from a pytest-benchmark export."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    means: Dict[str, float] = {}
    for entry in data.get("benchmarks", []):
        name = entry.get("fullname") or entry.get("name")
        stats = entry.get("stats") or {}
        mean = stats.get("mean")
        if name and isinstance(mean, (int, float)):
            means[str(name)] = float(mean)
    return means


def compare(
    base: Dict[str, float],
    head: Dict[str, float],
    threshold: float = DEFAULT_THRESHOLD,
):
    """Return (regressions, improvements, only_in_one) across shared names.

    A regression/improvement is ``(name, base_mean, head_mean, ratio)``
    with ratio = head/base; regressions are those with
    ``ratio > 1 + threshold``.
    """
    shared = sorted(set(base) & set(head))
    regressions = []
    improvements = []
    for name in shared:
        base_mean, head_mean = base[name], head[name]
        if base_mean <= 0.0:
            continue  # degenerate timing; nothing meaningful to compare
        ratio = head_mean / base_mean
        if ratio > 1.0 + threshold:
            regressions.append((name, base_mean, head_mean, ratio))
        elif ratio < 1.0 - threshold:
            improvements.append((name, base_mean, head_mean, ratio))
    only_in_one = sorted(set(base) ^ set(head))
    return regressions, improvements, only_in_one


def _smoke_cases(size: int):
    """``(name, setup)`` pairs; each setup returns ``(run, teardown)``.

    The cases mirror the flagship E1/E2 comparisons: the integrated
    blade's coalescing aggregate and overlap join, and the layered
    translation of the same coalescing query.
    """
    import repro
    from repro.layered import LayeredEngine
    from repro.workload import (
        MedicalConfig, generate_prescriptions, load_layered, load_tip,
    )

    rows = generate_prescriptions(
        MedicalConfig(n_prescriptions=size, n_patients=max(10, size // 10), seed=42)
    )

    def tip_setup(sql):
        def setup():
            conn = repro.connect(now=SMOKE_NOW)
            load_tip(conn, rows)
            return (lambda: conn.query(sql)), conn.close
        return setup

    def layered_setup():
        engine = LayeredEngine(now=SMOKE_NOW)
        load_layered(engine, rows)
        return (
            lambda: engine.total_length("Prescription", ["patient"]),
            engine.close,
        )

    def insert_setup():
        def setup():
            conn = repro.connect(now=SMOKE_NOW)
            conn.execute(
                "CREATE TABLE Rx (doctor TEXT, patient TEXT, patientdob CHRONON, "
                "drug TEXT, dosage INTEGER, frequency SPAN, valid ELEMENT)"
            )
            statement = (
                "INSERT INTO Rx VALUES ('Dr.Pepper', 'Mr.Showbiz', "
                "chronon('1975-03-26'), 'Diabeta', 1, span('0 08:00:00'), "
                "element('{[1999-10-01, NOW]}'))"
            )

            def run():
                for _ in range(size):
                    conn.execute(statement)

            return run, conn.close
        return setup

    def prepared_setup(cached):
        """The statement-cache A/B: a translation-heavy tSQL statement
        over *empty* temporal tables, so per-call cost is dominated by
        the preprocessor — exactly what the compiled-statement cache
        amortizes and per-call translation re-pays (``cached`` false
        clears the cache before each query, so every query misses).
        """
        def setup():
            from repro.tsql import TsqlSession
            from repro.tsql import compiled as stmt_cache

            conn = repro.connect(now=SMOKE_NOW)
            conn.execute("CREATE TABLE Visit (patient TEXT, ward TEXT, valid ELEMENT)")
            conn.execute("CREATE TABLE Stay (patient TEXT, bed TEXT, valid ELEMENT)")
            session = TsqlSession(conn)
            statement = (
                "VALIDTIME PERIOD '1999-01-01, 1999-12-31' "
                "SELECT p1.patient, p1.ward, p2.ward, p3.bed "
                "FROM Visit p1, Visit p2, Stay p3 "
                "WHERE p1.patient = p2.patient AND p2.patient = p3.patient "
                "AND p1.ward = 'icu' AND p2.ward = 'er' AND p3.bed = 'b1'"
            )
            stmt_cache.clear_cache()

            def run():
                for _ in range(max(1, size)):
                    if not cached:
                        stmt_cache.clear_cache()
                    session.query(statement)

            def teardown():
                stmt_cache.clear_cache()
                conn.close()

            return run, teardown
        return setup

    def executemany_setup():
        """Remote bulk ingest: one PREPARE plus chunked ``many`` frames
        instead of one round trip (and one commit) per row."""
        def setup():
            from repro.server import RemoteTipConnection, TipServer

            server = TipServer(":memory:", observability=False).start()
            host, port = server.address
            connection = RemoteTipConnection(host, port)
            connection.execute(
                "CREATE TABLE Ingest (doctor TEXT, patient TEXT, "
                "drug TEXT, dosage INTEGER)"
            )
            params = [
                (f"dr{i % 7}", f"patient{i % 31}", f"drug{i % 13}", i)
                for i in range(size)
            ]

            def run():
                connection.executemany(
                    "INSERT INTO Ingest VALUES (?, ?, ?, ?)", params
                )

            def teardown():
                connection.close()
                server.stop()

            return run, teardown
        return setup

    def linq_local_setup(use_builder):
        """The query-builder A/B on the local path: the same snapshot
        query per call as composed builder combinators (full AST
        construction + compile every iteration) versus the hand-written
        tSQL string through the session's statement cache."""
        def setup():
            from repro.tsql import TsqlSession

            conn = repro.connect(now=SMOKE_NOW)
            load_tip(conn, rows)
            session = TsqlSession(conn)
            front = conn.linq()
            handwritten = (
                "SNAPSHOT SELECT patient FROM Prescription "
                "WHERE drug = 'Tylenol'"
            )
            iterations = max(1, size // 10)

            def run_builder():
                for _ in range(iterations):
                    p = front.table("Prescription", "p")
                    (p.where(p.drug == "Tylenol")
                     .select(p.patient).snapshot().run())

            def run_string():
                for _ in range(iterations):
                    session.query(handwritten)

            return (run_builder if use_builder else run_string), conn.close
        return setup

    def linq_prepared_setup(use_builder):
        """The hot prepared path: one PREPARE at setup, then bound
        executions only — builder compile cost must be fully amortized,
        leaving just the per-call parameter check."""
        def setup():
            from repro.linq import param as linq_param
            from repro.server import RemoteTipConnection, TipServer

            server = TipServer(":memory:", observability=False).start()
            host, port = server.address
            connection = RemoteTipConnection(host, port)
            connection.execute(
                "CREATE TABLE Rx (patient TEXT, drug TEXT, valid ELEMENT)"
            )
            for i in range(8):
                connection.execute(
                    f"INSERT INTO Rx VALUES ('p{i}', 'Tylenol', "
                    "element('{[1999-10-01, NOW]}'))"
                )
            connection.set_now(SMOKE_NOW)
            if use_builder:
                front = connection.linq()
                p = front.table("Rx", "p")
                prepared = (
                    p.where(p.drug == linq_param("drug", "text"))
                    .select(p.patient).snapshot().prepare()
                )

                def run():
                    for _ in range(max(1, size)):
                        prepared.rows(drug="Tylenol")
            else:
                prepared = connection.prepare(
                    "SNAPSHOT SELECT p.patient FROM Rx AS p "
                    "WHERE (p.drug = ?)"
                )

                def run():
                    for _ in range(max(1, size)):
                        prepared.execute(("Tylenol",)).rows

            def teardown():
                prepared.deallocate()
                connection.close()
                server.stop()

            return run, teardown
        return setup

    def plan_setup(query_name, kernel):
        """The E10 planner A/B: the temporal-graph path join (and the
        group-coalesce) through the set-based kernels versus the same
        statement pinned to the naive UDF path.  The graph is sized off
        *size* so the smoke run stays CI-fast; the committed headline
        ratio comes from the full-scale run (ISSUE 10's 5x10^4-row
        workload), but the A/B here tracks the same code paths."""
        def setup():
            from repro import plan
            from repro.tsql import TsqlSession
            from repro.workload import graphs

            config = graphs.GraphConfig(
                n_nodes=max(20, size // 4), n_edges=size * 5, seed=7
            )
            conn = repro.connect(now=SMOKE_NOW)
            graphs.load_graph(conn, graphs.generate_edges(config))
            session = TsqlSession(conn)
            query = (graphs.coalesce_query() if query_name == "coalesce"
                     else graphs.path_query())
            plan.configure(enabled=kernel, min_rows=0 if kernel else None)

            def run():
                session.query(query)

            def teardown():
                plan.configure(
                    enabled=True, min_rows=plan.planner.DEFAULT_MIN_ROWS
                )
                conn.close()

            return run, teardown
        return setup

    coalesce_sql = (
        "SELECT patient, length_seconds(group_union(valid)) "
        "FROM Prescription GROUP BY patient"
    )
    join_sql = (
        "SELECT p1.patient, p2.patient, tintersect(p1.valid, p2.valid) "
        "FROM Prescription p1, Prescription p2 "
        "WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin' "
        "AND overlaps(p1.valid, p2.valid)"
    )
    # E5 worked queries (paper Section 2): Q1's constant-window scan and
    # the literal-heavy INSERT path — both dominated by marshalling.
    q1_sql = (
        "SELECT patient FROM Prescription WHERE drug = 'Tylenol' "
        "AND tlt(tsub(start(valid), patientdob), tmul(span('7'), 1000))"
    )
    return [
        ("e2.coalesce.integrated", tip_setup(coalesce_sql)),
        ("e2.join.integrated", tip_setup(join_sql)),
        ("e2.coalesce.layered", layered_setup),
        ("e5.q1.infant_tylenol", tip_setup(q1_sql)),
        ("e5.insert.literals", insert_setup()),
        # E7: the compiled-statement cache A/B plus remote bulk ingest.
        ("e7.prepared.hot", prepared_setup(True)),
        ("e7.adhoc.retranslate", prepared_setup(False)),
        ("e7.executemany.ingest", executemany_setup()),
        # E8: the query builder vs hand-written tSQL, per-call and hot.
        ("e8.linq.compile.builder", linq_local_setup(True)),
        ("e8.linq.compile.handwritten", linq_local_setup(False)),
        ("e8.linq.prepared.builder", linq_prepared_setup(True)),
        ("e8.linq.prepared.handwritten", linq_prepared_setup(False)),
        # E10: the temporal join planner A/B on the graph workload.
        ("e10.join.kernel", plan_setup("join", True)),
        ("e10.join.naive", plan_setup("join", False)),
        ("e10.coalesce.kernel", plan_setup("coalesce", True)),
    ]


def run_concurrency_sweep(
    size: int = 200,
    statements: int = 600,
    batch: int = 100,
    clients: tuple = (1, 2, 4, 8),
    readers: int = 8,
    repeats: int = 3,
) -> Dict:
    """The N-client read-throughput sweep over the pooled WAL server.

    Two configurations over the same file-backed Prescription database:

    * **baseline** — the pre-pool model: ``readers=0`` (every statement
      serializes on the single writer connection), one client, one
      statement per frame;
    * **sweep** — the pooled server (``readers`` reader connections),
      N clients each pipelining *batch* statements per BATCH frame.

    The workload is a light native-SQL point read, so the measured gap
    is the server's dispatch + protocol overhead — on a small machine
    the win comes from pipelining (amortizing per-statement round
    trips), with reader-pool overlap on top where cores allow.  The
    returned section records throughput per N and the pool gauges, plus
    ``speedup_at_max`` = max-N sweep throughput / baseline throughput.

    Each point is measured *repeats* times and the median-throughput
    run is recorded — thread scheduling and TCP latency jitter swing
    single runs by tens of percent on a busy host, and a median of
    three is stable enough to gate on.
    """
    import tempfile
    import threading

    import repro
    from repro.server import RemoteTipConnection, TipServer
    from repro.server.client import RemoteError
    from repro.workload import MedicalConfig, generate_prescriptions, load_tip

    rows = generate_prescriptions(
        MedicalConfig(n_prescriptions=size, n_patients=max(10, size // 10), seed=42)
    )
    sql = "SELECT patient, drug, dosage FROM Prescription WHERE rowid = ?"

    def seeded_database(directory: str, name: str) -> str:
        path = os.path.join(directory, name)
        connection = repro.connect(path, now=SMOKE_NOW)
        load_tip(connection, rows)
        connection.commit()
        connection.close()
        return path

    def measure(server, n_clients: int, per_frame: int) -> Dict:
        host, port = server.address
        barrier = threading.Barrier(n_clients + 1)
        failures = []

        def worker():
            try:
                with RemoteTipConnection(host, port) as connection:
                    barrier.wait(timeout=30)
                    done = 0
                    while done < statements:
                        take = min(per_frame, statements - done)
                        pairs = [
                            (sql, ((done + i) % size + 1,)) for i in range(take)
                        ]
                        if take == 1:
                            connection.execute(*pairs[0])
                        else:
                            for result in connection.execute_batch(pairs):
                                if isinstance(result, RemoteError):
                                    raise result
                        done += take
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_clients)]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=30)
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        if failures:
            raise failures[0]
        total = n_clients * statements
        return {
            "clients": n_clients,
            "statements": total,
            "seconds": elapsed,
            "throughput_stmt_per_s": total / elapsed,
        }

    def measure_median(server, n_clients: int, per_frame: int) -> Dict:
        runs = sorted(
            (measure(server, n_clients, per_frame) for _ in range(repeats)),
            key=lambda entry: entry["throughput_stmt_per_s"],
        )
        chosen = runs[len(runs) // 2]
        chosen["repeats"] = repeats
        return chosen

    section: Dict = {
        "statements_per_client": statements,
        "batch_size": batch,
        "readers": readers,
        "workload_rows": size,
        "sweep": [],
    }
    with tempfile.TemporaryDirectory(prefix="tip-bench-") as directory:
        # Baseline: the old serialized single-connection model, one
        # statement per round trip.
        with TipServer(seeded_database(directory, "baseline.db"),
                       readers=0, observability=False) as server:
            section["baseline"] = measure_median(server, 1, 1)
            section["baseline"]["pool"] = server.pool.stats()
        print(f"concurrency baseline (1 client, serialized, per-frame): "
              f"{section['baseline']['throughput_stmt_per_s']:.0f} stmt/s")
        # Sweep: pooled readers + pipelined batches, N clients.
        with TipServer(seeded_database(directory, "pooled.db"),
                       readers=readers, observability=False) as server:
            for n_clients in clients:
                entry = measure_median(server, n_clients, batch)
                entry["pool"] = server.pool.stats()
                section["sweep"].append(entry)
                print(f"concurrency sweep N={n_clients} (pooled, batched): "
                      f"{entry['throughput_stmt_per_s']:.0f} stmt/s")
    at_max = max(section["sweep"], key=lambda e: e["clients"])
    section["speedup_at_max"] = (
        at_max["throughput_stmt_per_s"]
        / section["baseline"]["throughput_stmt_per_s"]
    )
    print(f"concurrency speedup at N={max(clients)}: "
          f"{section['speedup_at_max']:.2f}x over the serialized baseline")
    return section


def run_scale_benchmark(
    n_nodes: int = 2500,
    n_edges: int = 50_000,
    seed: int = 7,
    kernel_trials: int = 3,
) -> Dict:
    """The E10 headline run: the sequenced path join at full scale.

    One temporal-graph edge table of *n_edges* rows self-joined on
    ``e1.dst = e2.src`` — both join sides are the full table, so this
    is the acceptance criterion's ">= 5x10^4 rows per side" workload.
    The kernel side is timed ``kernel_trials`` times (min wall time:
    the first run pays numpy page-faults and cold caches); the naive
    UDF side is timed once, first, in the same fresh process — at this
    scale it runs for tens of seconds and one measurement is stable to
    a few percent.  Both result sets are canonicalized (elements
    grounded to period pairs) and compared for **exact equality**, so
    the recorded speedup is certified differential-equal.
    """
    from repro import plan
    from repro.client.connection import connect
    from repro.tsql import TsqlSession
    from repro.workload import graphs

    section: Dict = {
        "n_nodes": n_nodes, "n_edges": n_edges, "seed": seed,
        "query": "path join (e1.dst = e2.src, sequenced)",
    }
    config = graphs.GraphConfig(n_nodes=n_nodes, n_edges=n_edges, seed=seed)
    connection = connect(now=SMOKE_NOW)
    try:
        graphs.load_graph(connection, graphs.generate_edges(config))
        session = TsqlSession(connection)
        query = graphs.path_query()

        def canon(rows):
            return sorted(
                (r[0], r[1], r[2], tuple(r[3].ground_pairs(0))) for r in rows
            )

        plan.configure(enabled=False)
        started = time.perf_counter()
        naive_rows = session.query(query)
        section["naive_seconds"] = time.perf_counter() - started
        section["rows"] = len(naive_rows)
        print(f"scale: naive UDF path {_fmt(section['naive_seconds'])} "
              f"({len(naive_rows)} rows)")
        naive_canon = canon(naive_rows)
        del naive_rows

        plan.configure(enabled=True, min_rows=0)
        kernel_times = []
        kernel_rows = None
        for _ in range(kernel_trials):
            del kernel_rows  # only one result set retained across trials
            started = time.perf_counter()
            kernel_rows = session.query(query)
            kernel_times.append(time.perf_counter() - started)
        section["kernel_seconds"] = min(kernel_times)
        section["kernel_runs"] = kernel_times
        print(f"scale: kernel path {_fmt(section['kernel_seconds'])} "
              f"(min of {kernel_trials}; {len(kernel_rows)} rows)")

        section["differential_equal"] = canon(kernel_rows) == naive_canon
        section["speedup"] = (
            section["naive_seconds"] / section["kernel_seconds"]
        )
        print(f"scale: kernel speedup {section['speedup']:.1f}x, "
              f"differential_equal={section['differential_equal']}")
        if not section["differential_equal"]:
            raise AssertionError(
                "scale run: kernel and naive result sets differ"
            )
    finally:
        plan.configure(enabled=True, min_rows=plan.planner.DEFAULT_MIN_ROWS)
        connection.close()
    return section


def _measure_linq_overhead(size: int, rounds: int = 9) -> Dict[str, float]:
    """Interleaved A/B of the hot prepared builder query vs raw tSQL.

    Both handles live on one server and the loops alternate round by
    round, so CPU-frequency drift and socket-scheduling noise hit both
    sides equally; best-of-rounds is the estimator (the noise is
    strictly additive).  This is the number the acceptance criterion
    cares about — the per-call cost the builder adds once compilation
    is amortized behind PREPARE.
    """
    from repro.linq import param as linq_param
    from repro.server import RemoteTipConnection, TipServer

    iterations = max(1, size)
    server = TipServer(":memory:", observability=False).start()
    host, port = server.address
    connection = RemoteTipConnection(host, port)
    try:
        connection.execute(
            "CREATE TABLE Rx (patient TEXT, drug TEXT, valid ELEMENT)"
        )
        for i in range(8):
            connection.execute(
                f"INSERT INTO Rx VALUES ('p{i}', 'Tylenol', "
                "element('{[1999-10-01, NOW]}'))"
            )
        connection.set_now(SMOKE_NOW)
        front = connection.linq()
        p = front.table("Rx", "p")
        built = (
            p.where(p.drug == linq_param("drug", "text"))
            .select(p.patient).snapshot().prepare()
        )
        raw = connection.prepare(built.query.sql())
        best_built = best_raw = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            for _ in range(iterations):
                built.rows(drug="Tylenol")
            best_built = min(best_built, time.perf_counter() - started)
            started = time.perf_counter()
            for _ in range(iterations):
                raw.execute(("Tylenol",)).rows
            best_raw = min(best_raw, time.perf_counter() - started)
        built.deallocate()
        raw.deallocate()
    finally:
        connection.close()
        server.stop()
    return {
        "hot_builder_best_seconds": best_built,
        "hot_handwritten_best_seconds": best_raw,
        "hot_overhead": best_built / best_raw - 1.0,
    }


def _measure_flight_overhead(size: int, burst: int = 50) -> Dict[str, float]:
    """Paired A/B of the hot prepared path: flight recorder on vs off.

    One server, one prepared handle.  The loop runs many short
    *adjacent* on/off burst pairs (order alternating pair by pair) and
    the estimator is the **median of within-pair differences** over
    the median off-burst time.  Adjacent pairing cancels the slow
    machine drift that makes best-of-rounds comparisons of long
    separate loops unreliable on shared hardware, and the median
    throws away scheduler outliers on both sides.  This is the
    always-on-diagnostics acceptance number: the ring appends per
    statement (``stmt.begin`` + ``stmt.end``) must stay under a few
    percent of the hot path, and the disabled side must cost exactly
    one attribute load.
    """
    from repro.obs import flight
    from repro.server import RemoteTipConnection, TipServer

    pairs = max(10, size)
    server = TipServer(":memory:", observability=False,
                       flight_recorder=False).start()
    host, port = server.address
    connection = RemoteTipConnection(host, port)
    try:
        connection.execute(
            "CREATE TABLE Rx (patient TEXT, drug TEXT, valid ELEMENT)"
        )
        for i in range(8):
            connection.execute(
                f"INSERT INTO Rx VALUES ('p{i}', 'Tylenol', "
                "element('{[1999-10-01, NOW]}'))"
            )
        connection.set_now(SMOKE_NOW)
        prepared = connection.prepare(
            "SNAPSHOT SELECT p.patient FROM Rx AS p WHERE (p.drug = ?)"
        )
        def timed(enabled: bool) -> float:
            (flight.enable if enabled else flight.disable)()
            started = time.perf_counter()
            for _ in range(burst):
                prepared.execute(("Tylenol",)).rows
            return time.perf_counter() - started

        for _ in range(4):  # warm the path before either arm is scored
            timed(False)
        diffs = []
        on_times = []
        off_times = []
        for pair_index in range(pairs):
            # Alternate which arm goes first so within-pair warm-up
            # never systematically taxes one side.
            if pair_index % 2 == 0:
                on = timed(True)
                off = timed(False)
            else:
                off = timed(False)
                on = timed(True)
            diffs.append(on - off)
            on_times.append(on)
            off_times.append(off)
        prepared.deallocate()
    finally:
        flight.disable()
        flight.clear()
        connection.close()
        server.stop()
    median_off = statistics.median(off_times)
    return {
        "hot_enabled_median_seconds": statistics.median(on_times),
        "hot_disabled_median_seconds": median_off,
        "hot_overhead": statistics.median(diffs) / median_off,
    }


def _cache_delta(before: Dict, after: Dict) -> Dict[str, Dict[str, float]]:
    """Per-cache ``{hits, misses, evictions, hit_ratio}`` across a case."""
    delta: Dict[str, Dict[str, float]] = {}
    for which in ("decode", "parse", "statement"):
        b, a = before.get(which, {}), after.get(which, {})
        hits = a.get("hits", 0) - b.get("hits", 0)
        misses = a.get("misses", 0) - b.get("misses", 0)
        looked_up = hits + misses
        delta[which] = {
            "hits": hits,
            "misses": misses,
            "evictions": a.get("evictions", 0) - b.get("evictions", 0),
            "hit_ratio": (hits / looked_up) if looked_up else 0.0,
        }
    return delta


def find_baseline(out: str) -> Optional[str]:
    """The highest-numbered committed ``BENCH_PR*.json`` next to this script.

    The file being written is excluded, so successive PRs compare
    against the previous committed report by default.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    candidates = []
    for path in glob.glob(os.path.join(here, "BENCH_PR*.json")):
        if os.path.abspath(path) == os.path.abspath(out):
            continue
        match = re.search(r"BENCH_PR(\d+)\.json$", path)
        if match:
            candidates.append((int(match.group(1)), path))
    return max(candidates)[1] if candidates else None


def _compare_with_baseline(report: Dict, baseline_path: str) -> int:
    """Print per-benchmark deltas vs *baseline_path*; return warning count.

    Medians are compared across the shared benchmark names; anything
    slower than :data:`SMOKE_WARN_RATIO` is warned about (never failed:
    the baseline was committed from a different machine).  The deltas
    are also folded into the report for the committed record.
    """
    try:
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"baseline {baseline_path} unreadable ({exc}); skipping comparison")
        return 0
    base_benchmarks = baseline.get("benchmarks", {})
    deltas: Dict[str, Dict[str, float]] = {}
    warnings = 0
    for name, entry in sorted(report["benchmarks"].items()):
        base_entry = base_benchmarks.get(name)
        base_median = (base_entry or {}).get("median_seconds")
        if not base_median or base_median <= 0.0:
            print(f"baseline: {name} not in {os.path.basename(baseline_path)}; skipped")
            continue
        head_median = entry["median_seconds"]
        speedup = base_median / head_median
        deltas[name] = {
            "baseline_median_seconds": base_median,
            "median_seconds": head_median,
            "speedup": speedup,
        }
        direction = f"{speedup:.2f}x faster" if speedup >= 1.0 else f"{1 / speedup:.2f}x slower"
        print(f"baseline: {name} {_fmt(base_median)} -> {_fmt(head_median)} ({direction})")
        if head_median > base_median * SMOKE_WARN_RATIO:
            warnings += 1
            print(f"WARNING: {name} regressed more than {SMOKE_WARN_RATIO}x "
                  f"vs {os.path.basename(baseline_path)}")
    report["baseline"] = {"path": os.path.basename(baseline_path), "deltas": deltas}
    return warnings


def run_smoke(
    out: str, repeats: int = 5, size: int = 200,
    baseline: Optional[str] = None, concurrency: bool = False,
    scale: bool = False,
) -> int:
    """Run the smoke benchmarks and write the JSON report to *out*."""
    from repro import codec, obs
    from repro.tsql import compiled as stmt_cache

    report = {
        "schema": "tip-bench-smoke/2",
        "now": SMOKE_NOW,
        "repeats": repeats,
        "size": size,
        "benchmarks": {},
    }

    def cache_stats() -> Dict:
        return {**codec.cache.stats(), "statement": stmt_cache.CACHE.stats()}

    for name, setup in _smoke_cases(size):
        # Cold caches per case, so the recorded hit ratio is the
        # benchmark's own steady-state behaviour, not leakage from the
        # previous case.
        codec.clear_caches()
        stmt_cache.clear_cache()
        cache_before = cache_stats()
        with obs.capture():
            run, teardown = setup()
            try:
                run()  # warm-up: exclude first-call setup from the timings
                timings = []
                for _ in range(repeats):
                    started = time.perf_counter()
                    run()
                    timings.append(time.perf_counter() - started)
                counters = {
                    counter_name: value
                    for counter_name, value in obs.snapshot()["counters"].items()
                    if counter_name.startswith(SMOKE_COUNTER_PREFIXES)
                }
            finally:
                teardown()
        cache = _cache_delta(cache_before, cache_stats())
        report["benchmarks"][name] = {
            "median_seconds": statistics.median(timings),
            "runs": timings,
            "counters": counters,
            "cache": cache,
        }
        ratios = "/".join(
            f"{cache[which]['hit_ratio'] * 100:.0f}%"
            for which in ("decode", "parse", "statement")
        )
        print(f"{name}: median {_fmt(statistics.median(timings))} "
              f"over {repeats} runs (decode/parse/statement cache hit {ratios})")
    hot = report["benchmarks"].get("e7.prepared.hot")
    adhoc = report["benchmarks"].get("e7.adhoc.retranslate")
    if hot and adhoc and hot["median_seconds"] > 0.0:
        speedup = adhoc["median_seconds"] / hot["median_seconds"]
        report["prepared"] = {
            "hot_median_seconds": hot["median_seconds"],
            "adhoc_median_seconds": adhoc["median_seconds"],
            "speedup": speedup,
        }
        print(f"prepared speedup: {speedup:.2f}x over per-call translation")
    adhoc_built = report["benchmarks"].get("e8.linq.compile.builder")
    adhoc_hand = report["benchmarks"].get("e8.linq.compile.handwritten")
    if report["benchmarks"].get("e8.linq.prepared.builder"):
        # The per-case medians above run minutes apart, so CPU-frequency
        # drift swamps the few-percent signal; the dedicated probe
        # interleaves builder and raw rounds against one server.
        report["linq"] = _measure_linq_overhead(size)
        if adhoc_built and adhoc_hand and adhoc_hand["runs"]:
            report["linq"]["adhoc_overhead"] = (
                min(adhoc_built["runs"]) / min(adhoc_hand["runs"]) - 1.0
            )
        print(f"linq hot prepared overhead: "
              f"{report['linq']['hot_overhead'] * 100:+.1f}% "
              "vs raw prepared tSQL (compile amortized)")
    kernel_join = report["benchmarks"].get("e10.join.kernel")
    naive_join = report["benchmarks"].get("e10.join.naive")
    if kernel_join and naive_join and kernel_join["median_seconds"] > 0.0:
        speedup = naive_join["median_seconds"] / kernel_join["median_seconds"]
        report["plan"] = {
            "kernel_median_seconds": kernel_join["median_seconds"],
            "naive_median_seconds": naive_join["median_seconds"],
            "speedup": speedup,
        }
        print(f"plan kernel speedup: {speedup:.2f}x over the naive UDF path "
              "(smoke-sized graph; see the scale section for the headline run)")
    # E9: the always-on flight recorder must stay nearly free on the
    # hot prepared path (acceptance bound: < 5% added latency).
    report["flight"] = _measure_flight_overhead(size)
    print(f"flight recorder overhead (e9.flight.overhead): "
          f"{report['flight']['hot_overhead'] * 100:+.1f}% "
          "on the hot prepared path (recorder on vs off)")
    if concurrency:
        report["concurrency"] = run_concurrency_sweep(size=size)
    if scale:
        report["scale"] = run_scale_benchmark()
    if baseline is None:
        baseline = find_baseline(out)
    warnings = 0
    if baseline:
        warnings = _compare_with_baseline(report, baseline)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out} ({len(report['benchmarks'])} benchmarks"
          + (f", {warnings} baseline warnings" if warnings else "") + ")")
    return 0


def _fmt(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?",
                        help="benchmark JSON from the base commit")
    parser.add_argument("head", nargs="?",
                        help="benchmark JSON from the head commit")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed slowdown fraction before failing (default 0.20)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the in-process smoke benchmarks instead of comparing",
    )
    parser.add_argument(
        "--concurrency", action="store_true",
        help="smoke mode: also run the N-client throughput sweep over the "
             "pooled WAL server (implies --smoke)",
    )
    parser.add_argument(
        "--scale", action="store_true",
        help="smoke mode: also run the full-scale E10 graph join "
             "(5x10^4 rows per side, kernel vs naive, differential-"
             "checked; takes about a minute) (implies --smoke)",
    )
    parser.add_argument(
        "--out", default="BENCH_PR10.json",
        help="smoke mode: report path (default BENCH_PR10.json)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="smoke mode: committed BENCH_*.json to compare medians against "
             "(default: highest-numbered BENCH_PR*.json next to this script)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="smoke mode: timed runs per benchmark (default 5)",
    )
    parser.add_argument(
        "--size", type=int, default=200,
        help="smoke mode: prescriptions in the workload (default 200)",
    )
    options = parser.parse_args(argv)

    if options.smoke or options.concurrency or options.scale:
        try:
            return run_smoke(options.out, options.repeats, options.size,
                             baseline=options.baseline,
                             concurrency=options.concurrency,
                             scale=options.scale)
        except ImportError as exc:
            print(f"error: {exc} (run with PYTHONPATH=src)", file=sys.stderr)
            return 2
    if not options.base or not options.head:
        parser.error("base and head are required unless --smoke is given")

    try:
        base = load_means(options.base)
        head = load_means(options.head)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    regressions, improvements, only_in_one = compare(
        base, head, options.threshold
    )

    for name, base_mean, head_mean, ratio in improvements:
        print(f"faster  {name}: {_fmt(base_mean)} -> {_fmt(head_mean)} "
              f"({(1 - ratio) * 100:.1f}% faster)")
    for name in only_in_one:
        print(f"skipped {name}: present in only one run")
    for name, base_mean, head_mean, ratio in regressions:
        print(f"SLOWER  {name}: {_fmt(base_mean)} -> {_fmt(head_mean)} "
              f"({(ratio - 1) * 100:.1f}% over the "
              f"{options.threshold * 100:.0f}% budget)")

    shared = len(set(base) & set(head))
    if regressions:
        print(f"{len(regressions)} of {shared} shared benchmarks regressed")
        return 1
    print(f"ok: no regression over {options.threshold * 100:.0f}% "
          f"across {shared} shared benchmarks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
