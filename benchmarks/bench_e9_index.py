"""E9 (extension) — the temporal join without a temporal index.

The paper's related work (reference [2]) built a DataBlade index for
period-valued timestamps; TIP itself shipped without one.  This
experiment asks what the integrated engine needs to win the temporal
join today, and answers it with the planner's set-based kernel
(:mod:`repro.plan`), which sorts both sides' periods per statement and
keeps no persistent index:

* window (timeslice) probes: the full-table ``overlaps()`` scan;
* the temporal join, three ways: the planner's kernel, the
  tuple-at-a-time UDF scan, and the layered flat join (the three-way
  follow-up to E2's nuance).

Expected shape: the UDF scan stays quadratic; the kernel (from
:data:`repro.plan.planner.DEFAULT_MIN_ROWS` rows up) grows with the
output and beats both the scan and the layered rewrite.  Below that
threshold the planner leaves the statement on the UDF path.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import make_layered_db, make_tip_db
from repro import plan
from repro.plan.planner import DEFAULT_MIN_ROWS
from repro.tsql import TsqlSession

SIZES = [200, 500, 1000, 2000]

WINDOW_SQL = (
    "SELECT rowid FROM Prescription "
    "WHERE overlaps(valid, element('{[1995-03-01, 1995-03-07]}'))"
)

# Declared columns only: a projected rowid keeps the join off the kernel.
JOIN_SQL = (
    "SELECT p1.patient, p2.patient, tintersect(p1.valid, p2.valid) "
    "FROM Prescription p1, Prescription p2 "
    "WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin' "
    "AND overlaps(p1.valid, p2.valid)"
)


@pytest.fixture(scope="module")
def databases():
    cache = {}
    for n in SIZES:
        conn, rows = make_tip_db(n, seed=42)
        cache[n] = (conn, TsqlSession(conn), make_layered_db(rows))
    yield cache
    for conn, *_rest in cache.values():
        conn.close()


# -- window probes ------------------------------------------------------


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.benchmark(group="e9-window-scan")
def test_window_probe_scan(benchmark, databases, n):
    conn, *_ = databases[n]
    benchmark(conn.query, WINDOW_SQL)


# -- the temporal join, three ways ----------------------------------------


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.benchmark(group="e9-join-kernel")
def test_join_kernel(benchmark, databases, n):
    conn, session, _layered = databases[n]
    decision = plan.describe(conn, JOIN_SQL)
    if n >= DEFAULT_MIN_ROWS:
        assert decision["strategy"] == "kernel", decision
    else:
        assert decision == {
            "strategy": "naive",
            "reason": f"input below threshold ({DEFAULT_MIN_ROWS} rows)",
        }
    rows = benchmark(session.query, JOIN_SQL)
    plan.configure(enabled=False)
    try:
        naive = session.query(JOIN_SQL)
    finally:
        plan.configure(enabled=True)
    assert rows and sorted(map(repr, rows)) == sorted(map(repr, naive))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.benchmark(group="e9-join-udf-scan")
def test_join_udf_scan(benchmark, databases, n):
    conn, *_ = databases[n]
    benchmark(conn.query, JOIN_SQL)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.benchmark(group="e9-join-layered")
def test_join_layered(benchmark, databases, n):
    *_, layered = databases[n]
    benchmark(
        layered.overlap_join,
        "Prescription",
        "Prescription",
        "d1.drug = 'Diabeta' AND d2.drug = 'Aspirin'",
    )
