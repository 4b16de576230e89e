#!/usr/bin/env python
"""Compact experiment harness: print every experiment's headline table.

`pytest benchmarks/ --benchmark-only` is the full regeneration path;
this script re-derives the *shape* of each experiment (E1-E10) at
reduced sizes in about a minute and prints tables in the layout of
EXPERIMENTS.md, so the reproduction can be eyeballed in one run.

Run:  python examples/run_experiments.py
"""

from __future__ import annotations

import random
import time

import repro
from repro.core import interval_algebra as ia
from repro.layered import LayeredEngine
from repro.tempagg import AggregateTree, temporal_count
from repro.tsql import TsqlSession
from repro.workload import MedicalConfig, generate_prescriptions, load_layered, load_tip, striped_element

NOW = "2000-01-01"


def clock(fn, *args, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def table(title, headers, rows):
    print(f"\n{title}")
    widths = [max(len(h), *(len(str(r[i])) for r in rows)) for i, h in enumerate(headers)]
    print("  " + " | ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  " + " | ".join(str(v).rjust(w) for v, w in zip(row, widths)))


def fmt(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f} us"
    if seconds < 1:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.2f} s"


def medical_pair(n, **kwargs):
    rows = generate_prescriptions(
        MedicalConfig(n_prescriptions=n, n_patients=max(10, n // 10), seed=42, **kwargs)
    )
    conn = repro.connect(now=NOW)
    load_tip(conn, rows)
    layered = LayeredEngine(now=NOW)
    load_layered(layered, rows)
    return conn, layered


def e1():
    rows = []
    for n in (256, 1024, 4096):
        a = striped_element(n, 0, 3600, 3600)
        b = striped_element(n, 1800, 3600, 3600)
        t_union, _ = clock(a.union, b)
        t_intersect, _ = clock(a.intersect, b)
        t_difference, _ = clock(a.difference, b)
        rows.append((n, fmt(t_union), fmt(t_intersect), fmt(t_difference)))
    table("E1 — element ops, linear in period count",
          ["n", "union", "intersect", "difference"], rows)


def e2():
    rows = []
    for n in (50, 100, 200):
        conn, layered = medical_pair(n)
        t_int, _ = clock(
            conn.query,
            "SELECT patient, length_seconds(group_union(valid)) "
            "FROM Prescription GROUP BY patient",
        )
        t_lay, _ = clock(layered.total_length, "Prescription", ["patient"], repeats=1)
        rows.append((n, fmt(t_int), fmt(t_lay), f"{t_lay / t_int:.0f}x"))
        conn.close()
        layered.close()
    table("E2 — coalescing: integrated vs layered",
          ["rows", "integrated", "layered", "layered/integrated"], rows)


def e3():
    rows = []
    for rate in (0.0, 0.5, 0.75):
        prescriptions = generate_prescriptions(
            MedicalConfig(n_prescriptions=200, n_patients=100, seed=11,
                          overlap_rate=rate, now_fraction=0.0)
        )
        conn = repro.connect(now=NOW)
        load_tip(conn, prescriptions)
        coalesced = sum(
            v for _p, v in conn.query(
                "SELECT patient, length_seconds(group_union(valid)) "
                "FROM Prescription GROUP BY patient")
        )
        naive = sum(
            v for _p, v in conn.query(
                "SELECT patient, SUM(length_seconds(valid)) "
                "FROM Prescription GROUP BY patient")
        )
        rows.append((rate, f"{naive / coalesced:.3f}"))
        conn.close()
    table("E3 — SUM(length) overcount factor vs overlap rate",
          ["overlap rate", "overcount"], rows)


def e4():
    conn, _ = medical_pair(150, now_fraction=0.6)
    rows = []
    for now_text in ("1998-01-01", "2000-01-01", "2002-01-01"):
        conn.set_now(now_text)
        (total,) = conn.query_one(
            "SELECT SUM(length_seconds(ground(valid))) FROM Prescription "
            "WHERE NOT is_empty(valid)"
        )
        rows.append((now_text, total))
    table("E4 — same data, drifting answers as NOW advances",
          ["NOW", "covered seconds"], rows)
    conn.close()


def e5():
    conn, _ = medical_pair(400)
    queries = {
        "Q1 infant Tylenol": (
            "SELECT patient FROM Prescription WHERE drug = 'Tylenol' "
            "AND tlt(tsub(start(valid), patientdob), tmul(span('7'), 1000))"),
        "Q2 self-join": (
            "SELECT p1.patient, tintersect(p1.valid, p2.valid) "
            "FROM Prescription p1, Prescription p2 "
            "WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin' "
            "AND overlaps(p1.valid, p2.valid)"),
        "Q3 coalesced length": (
            "SELECT patient, length_seconds(group_union(valid)) "
            "FROM Prescription GROUP BY patient"),
    }
    rows = []
    for name, sql in queries.items():
        elapsed, result = clock(conn.query, sql)
        rows.append((name, fmt(elapsed), len(result)))
    table("E5 — the paper's worked queries (400 rows)",
          ["query", "latency", "result rows"], rows)
    conn.close()


def e7():
    rows = []
    for n in (64, 256, 1024):
        a = striped_element(n, 0, 3600, 3600).ground_pairs(0)
        b = striped_element(n, 1800, 3600, 3600).ground_pairs(0)
        t_sweep, _ = clock(ia.union, a, b)
        t_naive, _ = clock(ia.union_naive, a, b, repeats=1)
        rows.append((n, fmt(t_sweep), fmt(t_naive), f"{t_naive / t_sweep:.0f}x"))
    table("E7 — canonical-form sweep vs naive quadratic union",
          ["n", "sweep", "naive", "naive/sweep"], rows)


def e9():
    conn, layered = medical_pair(400)
    join = (
        "SELECT p1.patient, p2.patient, tintersect(p1.valid, p2.valid) "
        "FROM Prescription p1, Prescription p2 "
        "WHERE p1.drug='Diabeta' AND p2.drug='Aspirin' AND overlaps(p1.valid, p2.valid)"
    )
    t_kernel, _ = clock(TsqlSession(conn).query, join)
    t_scan, _ = clock(conn.query, join, repeats=1)
    t_lay, _ = clock(
        layered.overlap_join, "Prescription", "Prescription",
        "d1.drug='Diabeta' AND d2.drug='Aspirin'",
    )
    table("E9 — temporal join, three ways (400 rows)",
          ["kernel", "UDF scan", "layered"],
          [(fmt(t_kernel), fmt(t_scan), fmt(t_lay))])
    conn.close()
    layered.close()


def e10():
    rng = random.Random(0)
    intervals = [
        (s, s + rng.randrange(1000, 400_000))
        for s in (rng.randrange(0, 5_000_000) for _ in range(4000))
    ]
    from repro.core.element import Element

    elements = [Element.from_pairs([pair]) for pair in intervals]
    t_sweep, _ = clock(temporal_count, elements, 0, repeats=1)
    tree = AggregateTree()
    for start, end in intervals:
        tree.insert(start, end)
    t_probe, _ = clock(lambda: [tree.value_at(t) for t in range(0, 5_000_000, 500_000)])
    table("E10 — temporal COUNT (4000 intervals)",
          ["sweep recompute", "10 agg-tree probes"],
          [(fmt(t_sweep), fmt(t_probe))])


def main() -> None:
    print("TIP reproduction — compact experiment report "
          f"(NOW pinned to {NOW}; full harness: pytest benchmarks/ --benchmark-only)")
    e1()
    e2()
    e3()
    e4()
    e5()
    e7()
    e9()
    e10()
    print("\nE6 (the Browser, Figure 2) is interactive: run examples/browser_demo.py")
    print("E8 (warehouse maintenance) numbers: pytest benchmarks/bench_e8_warehouse.py")


if __name__ == "__main__":
    main()
