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

The smoke mode (``--smoke``) times one declared case table in-process
and writes a JSON report (schema ``tip-bench-smoke/3``): per case, the
median wall time, the runs, the work counters and the cache deltas.
Each A/B is a declared :data:`Pair` whose two cases run interleaved;
it reports the median of its per-round ratios (B time / A time: above 1
means A is faster), their interquartile band, and ``faster``,
``slower``, or ``no change`` when the band holds 1.0.  A case with an
oracle fails the run unless its first result equals the oracle case's.
A committed ``BENCH_PR*.json`` of the same ``--size`` is compared median
by median, warning (never failing) above ``SMOKE_WARN_RATIO``.

The compare path is stdlib only: it runs on a bare CI runner without
the test extras.  Only the smoke mode imports :mod:`repro` (point
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
from collections import namedtuple
from typing import Dict, List, Optional

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

CACHES = ("decode", "parse", "statement")

#: A timed workload: *setup* returns ``(run, teardown)``; *oracle* names
#: the case whose first result this case's first result must equal.
#: *warmup* untimed runs precede *repeats* timed ones (None: ``--repeats``).
Case = namedtuple("Case", "name setup oracle warmup repeats", defaults=(None, 1, None))

#: An A/B of two cases, run interleaved.
Pair = namedtuple("Pair", "name a b")


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


def _loop(call, times: int):
    """A run making *times* calls; it returns the last call's result."""
    def run():
        for _ in range(times):
            result = call()
        return result
    return run


def _remote(make_run, clients: int = 1, readers: Optional[int] = None):
    """A case setup over a TipServer holding an 8-row ``Rx`` table.

    *make_run* gets *clients* connections.  Given *readers*, the server
    serves a file through that many pooled readers (``:memory:`` has no
    pool).
    """
    def setup():
        import tempfile

        from repro.server import RemoteTipConnection, TipServer

        directory = tempfile.TemporaryDirectory(prefix="tip-bench-")
        db = ":memory:" if readers is None else os.path.join(directory.name, "rx.db")
        server = TipServer(db, observability=False, readers=readers or 0).start()
        connections = [RemoteTipConnection(*server.address) for _ in range(clients)]
        connections[0].execute("CREATE TABLE Rx (patient TEXT, drug TEXT, valid ELEMENT)")
        connections[0].executemany(
            "INSERT INTO Rx VALUES (?, 'Tylenol', element('{[1999-10-01, NOW]}'))",
            [(f"p{i}",) for i in range(8)])
        for connection in connections:
            connection.set_now(SMOKE_NOW)

        def teardown():
            for connection in connections:
                connection.close()
            server.stop()
            directory.cleanup()

        return make_run(connections), teardown
    return setup


def _graph_rows(session, query: str, kernel: bool):
    """*query* on the planner's kernels from zero rows up, or naive."""
    from repro import plan

    plan.configure(enabled=kernel, min_rows=0)
    return session.query(query)


def _canon(rows) -> List[tuple]:
    """*rows* sorted, each element grounded to its period pairs."""
    return sorted(
        tuple(tuple(v.ground_pairs(0)) if hasattr(v, "ground_pairs") else v for v in row)
        for row in rows
    )


def _cases(size: int, concurrency: bool = False, scale: bool = False):
    """The declared case table: ``(smoke, probes)``.  Smoke cases make
    the report's ``benchmarks``; probes report only through their pairs."""
    from concurrent.futures import ThreadPoolExecutor

    import repro
    from repro.layered import LayeredEngine
    from repro.linq import param
    from repro.obs import flight
    from repro.server.client import RemoteError
    from repro.tsql import TsqlSession
    from repro.workload import (
        MedicalConfig, generate_prescriptions, graphs, load_layered, load_tip,
    )

    rows = generate_prescriptions(
        MedicalConfig(n_prescriptions=size, n_patients=max(10, size // 10), seed=42)
    )

    def embedded(make_run, load=lambda conn: load_tip(conn, rows)):
        """A local connection filled by *load*, and a session over it."""
        def setup():
            conn = repro.connect(now=SMOKE_NOW)
            load(conn)
            return make_run(conn, TsqlSession(conn)), conn.close
        return setup

    def query(sql):
        return embedded(lambda conn, _: lambda: conn.query(sql))

    def layered():
        engine = LayeredEngine(now=SMOKE_NOW)
        load_layered(engine, rows)
        return (lambda: engine.total_length("Prescription", ["patient"])), engine.close

    def inserts(conn, _):
        return _loop(lambda: conn.execute(
            "INSERT INTO Rx VALUES ('Dr.Pepper', 'Mr.Showbiz', chronon('1975-03-26'), "
            "'Diabeta', 1, span('0 08:00:00'), element('{[1999-10-01, NOW]}'))"), size)

    def retranslated(cached):
        """A translation-heavy statement over empty tables.  The ad hoc
        side's comment makes it uncacheable, so each call translates
        afresh while the hot side's plan stays cached."""
        statement = ("" if cached else "/* ad hoc */ ") + (
            "VALIDTIME PERIOD '1999-01-01, 1999-12-31' "
            "SELECT p1.patient, p1.ward, p2.ward, p3.bed FROM Visit p1, Visit p2, Stay p3 "
            "WHERE p1.patient = p2.patient AND p2.patient = p3.patient "
            "AND p1.ward = 'icu' AND p2.ward = 'er' AND p3.bed = 'b1'")
        return embedded(lambda _, session: _loop(lambda: session.query(statement), size),
                        lambda conn: conn.executescript(
                            "CREATE TABLE Visit (patient TEXT, ward TEXT, valid ELEMENT);"
                            "CREATE TABLE Stay (patient TEXT, bed TEXT, valid ELEMENT)"))

    def ingest(connections):
        """Remote bulk ingest: one PREPARE plus chunked ``many`` frames."""
        connections[0].execute(
            "CREATE TABLE Ingest (doctor TEXT, patient TEXT, drug TEXT, dosage INTEGER)")
        params = [(f"dr{i % 7}", f"patient{i % 31}", f"drug{i % 13}", i) for i in range(size)]
        return lambda: connections[0].executemany("INSERT INTO Ingest VALUES (?, ?, ?, ?)", params)

    def composed(conn, _):
        """The builder composing and compiling its query every call."""
        front = conn.linq()

        def call():
            p = front.table("Prescription", "p")
            return p.where(p.drug == "Tylenol").select(p.patient).snapshot().run()
        return _loop(call, max(1, size // 10))

    def handwritten(_, session):
        statement = "SNAPSHOT SELECT patient FROM Prescription WHERE drug = 'Tylenol'"
        return _loop(lambda: session.query(statement), max(1, size // 10))

    def hot(use_builder=False, recorder=None, calls=size):
        """The hot prepared path: PREPARE once, then bound executions;
        *recorder* switches the flight recorder before each run."""
        def make_run(connections):
            if use_builder:
                p = connections[0].linq().table("Rx", "p")
                built = p.where(p.drug == param("drug", "text")).select(p.patient)
                prepared = built.snapshot().prepare()
                return _loop(lambda: prepared.rows(drug="Tylenol"), calls)
            prepared = connections[0].prepare(
                "SNAPSHOT SELECT p.patient FROM Rx AS p WHERE (p.drug = ?)")
            burst = _loop(lambda: prepared.execute(("Tylenol",)).rows, calls)
            if recorder is None:
                return burst

            def run():
                (flight.enable if recorder else flight.disable)()
                return burst()
            return run
        return _remote(make_run)

    def graph(config, sql, kernel):
        return embedded(lambda _, session: lambda: _graph_rows(session, sql, kernel),
                        load=lambda conn: graphs.load_graph(conn, graphs.generate_edges(config)))

    def reads(clients, batch, readers):
        """2 400 point reads split across *clients* threads, *batch* per
        frame (a frame of one is one round trip per statement)."""
        def client(connection):
            for start in range(0, 2400 // clients, batch):
                frame = [("SELECT patient, drug FROM Rx WHERE rowid = ?", ((start + i) % 8 + 1,))
                         for i in range(batch)]
                for result in connection.execute_batch(frame):
                    if isinstance(result, RemoteError):
                        raise result

        def make_run(connections):
            def run():
                with ThreadPoolExecutor(len(connections)) as pool:
                    list(pool.map(client, connections))  # raises a client's error
            return run
        return _remote(make_run, clients, readers)

    small = graphs.GraphConfig(n_nodes=max(20, size // 4), n_edges=size * 5, seed=7)
    path = graphs.path_query()
    smoke = [
        # E2/E5: the blade's coalescing aggregate and overlap join, the
        # layered coalescing rewrite, paper Q1 and literal-heavy INSERTs.
        Case("e2.coalesce.integrated", query(
            "SELECT patient, length_seconds(group_union(valid)) "
            "FROM Prescription GROUP BY patient")),
        Case("e2.join.integrated", query(
            "SELECT p1.patient, p2.patient, tintersect(p1.valid, p2.valid) "
            "FROM Prescription p1, Prescription p2 WHERE p1.drug = 'Diabeta' "
            "AND p2.drug = 'Aspirin' AND overlaps(p1.valid, p2.valid)")),
        Case("e2.coalesce.layered", layered),
        Case("e5.q1.infant_tylenol", query(
            "SELECT patient FROM Prescription WHERE drug = 'Tylenol' "
            "AND tlt(tsub(start(valid), patientdob), tmul(span('7'), 1000))")),
        Case("e5.insert.literals", embedded(inserts, lambda conn: conn.execute(
            "CREATE TABLE Rx (doctor TEXT, patient TEXT, patientdob CHRONON, "
            "drug TEXT, dosage INTEGER, frequency SPAN, valid ELEMENT)"))),
        Pair("prepared", Case("e7.prepared.hot", retranslated(True), oracle="e7.adhoc.retranslate"),
             Case("e7.adhoc.retranslate", retranslated(False))),
        Case("e7.executemany.ingest", _remote(ingest)),
        Pair("linq.compile", Case("e8.linq.compile.builder", embedded(composed),
                                  oracle="e8.linq.compile.handwritten"),
             Case("e8.linq.compile.handwritten", embedded(handwritten))),
        Pair("linq.prepared", Case("e8.linq.prepared.builder", hot(use_builder=True),
                                   oracle="e8.linq.prepared.handwritten"),
             Case("e8.linq.prepared.handwritten", hot())),
        Pair("plan", Case("e10.join.kernel", graph(small, path, True), oracle="e10.join.naive"),
             Case("e10.join.naive", graph(small, path, False))),
        Case("e10.coalesce.kernel", graph(small, graphs.coalesce_query(), True)),
    ]
    # Many short rounds: the recorder costs a few percent at most.
    probes = [Pair("flight", Case("flight.on", hot(recorder=True, calls=50), repeats=max(10, size)),
                   Case("flight.off", hot(recorder=False, calls=50), repeats=max(10, size)))]
    if concurrency:
        probes.append(Pair("concurrency", Case("concurrency.pooled", reads(8, 100, readers=8)),
                           Case("concurrency.serialized", reads(1, 1, readers=0))))
    if scale:
        # 5x10^4 edge rows per side.  Naive once: it runs for tens of
        # seconds, stable to a few percent.  The kernel runs three times;
        # its first run pays numpy page faults and cold caches.
        full = graphs.GraphConfig(n_nodes=2500, n_edges=50_000, seed=7)
        probes.append(Pair("scale", Case("scale.kernel", graph(full, path, True),
                                         oracle="scale.naive", warmup=0, repeats=3),
                           Case("scale.naive", graph(full, path, False), warmup=0, repeats=1)))
    return smoke, probes


def pair_stats(a_runs: List[float], b_runs: List[float]) -> Dict:
    """Median, interquartile band and verdict of the per-round B/A ratios.

    Round *i* pairs A's *i*-th run with B's; a side with fewer runs
    (the scale case's single naive run) reuses its last one.
    """
    rounds = max(len(a_runs), len(b_runs))
    ratios = [b_runs[min(i, len(b_runs) - 1)] / a_runs[min(i, len(a_runs) - 1)]
              for i in range(rounds)]
    low, _, high = (statistics.quantiles(ratios, n=4, method="inclusive")
                    if rounds > 1 else ratios * 3)
    verdict = "faster" if low > 1.0 else "slower" if high < 1.0 else "no change"
    return {"ratios": ratios, "ratio": statistics.median(ratios),
            "band": [low, high], "verdict": verdict}


def _tally(registry) -> Dict:
    """The smoke counters, and each cache's counts keyed ``(cache, field)``."""
    from repro import codec
    from repro.tsql import compiled

    tally = {name: value for name, value in registry.snapshot()["counters"].items()
             if name.startswith(SMOKE_COUNTER_PREFIXES)}
    stats = {**codec.cache.stats(), "statement": compiled.CACHE.stats()}
    for which in CACHES:
        for field in ("hits", "misses", "evictions"):
            tally[which, field] = stats[which][field]
    return tally


def _run_group(group: List[Case], repeats: int, registry) -> Dict[str, Dict]:
    """Time *group*, rotating which case goes first each round.

    Caches start cold, so hit ratios are the group's own; counters and
    cache deltas cover each case's own runs; the planner and recorder
    switches are left as found.
    """
    from repro import codec, plan
    from repro.obs import flight
    from repro.tsql import compiled

    codec.clear_caches()
    compiled.clear_cache()
    found = (plan.state.enabled, plan.state.min_rows, flight.state.enabled)
    checked = {c.name for c in group if c.oracle} | {c.oracle for c in group}
    live, runs, totals, first = [], {}, {}, {}

    def once(case, run, timed):
        before = _tally(registry)
        started = time.perf_counter()
        result = run()
        seconds = time.perf_counter() - started
        for key, value in _tally(registry).items():
            totals[case.name][key] = totals[case.name].get(key, 0) + value - before.get(key, 0)
        if timed:
            runs[case.name].append(seconds)
        if case.name in checked and case.name not in first:
            first[case.name] = _canon(result)

    try:
        for case in group:
            live.append((case, *case.setup()))
            runs[case.name], totals[case.name] = [], {}
        for case, run, _ in live:
            for _ in range(case.warmup):
                once(case, run, False)
        for index in range(max(case.repeats or repeats for case in group)):
            turn = index % len(live)
            for case, run, _ in live[turn:] + live[:turn]:
                if len(runs[case.name]) < (case.repeats or repeats):
                    once(case, run, True)
    finally:
        for _, _, teardown in reversed(live):
            teardown()
        plan.configure(enabled=found[0], min_rows=found[1])
        (flight.enable if found[2] else flight.disable)()
    entries = {}
    for case in group:
        if case.oracle and first[case.name] != first[case.oracle]:
            raise AssertionError(f"{case.name} returned other rows than its oracle {case.oracle}")
        total, cache = totals[case.name], {}
        for which in CACHES:
            hits, misses = total[which, "hits"], total[which, "misses"]
            cache[which] = {"hits": hits, "misses": misses, "evictions": total[which, "evictions"],
                            "hit_ratio": hits / (hits + misses) if hits + misses else 0.0}
        entries[case.name] = {
            "median_seconds": statistics.median(runs[case.name]),
            "runs": runs[case.name],
            "counters": {name: value for name, value in total.items()
                         if isinstance(name, str) and value},
            "cache": cache,
        }
    return entries


def run_cases(table: List, repeats: int, registry):
    """Time every case of *table*: ``(entries by case, stats by pair)``."""
    entries: Dict[str, Dict] = {}
    pairs: Dict[str, Dict] = {}
    for item in table:
        entries.update(_run_group([item.a, item.b] if isinstance(item, Pair) else [item],
                                  repeats, registry))
        if isinstance(item, Pair):
            a, b = entries[item.a.name], entries[item.b.name]
            pairs[item.name] = {"a": item.a.name, "b": item.b.name,
                                "a_median_seconds": a["median_seconds"],
                                "b_median_seconds": b["median_seconds"],
                                **pair_stats(a["runs"], b["runs"])}
    return entries, pairs


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
    """Compare medians with *baseline_path*; return the warning count.

    Only a baseline of the same ``size`` is compared: medians of
    different work say nothing.  Slowdowns past :data:`SMOKE_WARN_RATIO`
    are warned about, never failed: the baseline was committed from a
    different machine.  The deltas are folded into the report.
    """
    label = os.path.basename(baseline_path)
    try:
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"baseline {baseline_path} unreadable ({exc}); skipping comparison")
        return 0
    if baseline.get("size") != report["size"]:
        print(f"baseline {label} was written at --size {baseline.get('size')}, "
              f"this run at --size {report['size']}; skipping comparison")
        return 0
    base = {name: entry.get("median_seconds") or 0.0
            for name, entry in baseline.get("benchmarks", {}).items()}
    head = {name: entry["median_seconds"] for name, entry in report["benchmarks"].items()}
    shared = [name for name in sorted(set(base) & set(head)) if base[name] > 0.0]
    print(f"baseline: {label}, {len(shared)} shared benchmarks, "
          f"warning past {SMOKE_WARN_RATIO}x slower")
    report["baseline"] = {"path": label, "deltas": {
        name: {"baseline_median_seconds": base[name], "median_seconds": head[name],
               "speedup": base[name] / head[name]} for name in shared}}
    return len(_print_comparison(base, head, SMOKE_WARN_RATIO - 1.0))


def run_smoke(
    out: str, repeats: int = 5, size: int = 200,
    baseline: Optional[str] = None, concurrency: bool = False,
    scale: bool = False,
) -> int:
    """Run the smoke cases and pairs and write the JSON report to *out*."""
    from repro import obs

    smoke, probes = _cases(size, concurrency, scale)
    with obs.capture() as registry:
        benchmarks, pairs = run_cases(smoke, repeats, registry)
    # Probes report no counters, so they run with metrics off, as a
    # server does unless asked.
    with obs.capture(enabled=False) as registry:
        pairs.update(run_cases(probes, repeats, registry)[1])
    report = {"schema": "tip-bench-smoke/3", "now": SMOKE_NOW, "repeats": repeats,
              "size": size, "benchmarks": benchmarks, "pairs": pairs}
    for name, entry in benchmarks.items():
        ratios = "/".join(f"{entry['cache'][which]['hit_ratio'] * 100:.0f}%" for which in CACHES)
        print(f"{name}: median {_fmt(entry['median_seconds'])} over "
              f"{len(entry['runs'])} runs (decode/parse/statement cache hit {ratios})")
    for name, pair in pairs.items():
        print(f"{name}: {pair['a']} vs {pair['b']} x{pair['ratio']:.3f} (band "
              f"{pair['band'][0]:.3f}-{pair['band'][1]:.3f}, {len(pair['ratios'])} rounds) "
              f"{pair['verdict']}")
    baseline = baseline or find_baseline(out)
    warnings = _compare_with_baseline(report, baseline) if baseline else 0
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


def _print_comparison(base: Dict[str, float], head: Dict[str, float], threshold: float):
    """Print how *head* compares with *base*; return the regressions."""
    regressions, improvements, only_in_one = compare(base, head, threshold)
    for name, base_mean, head_mean, ratio in improvements:
        print(f"faster  {name}: {_fmt(base_mean)} -> {_fmt(head_mean)} "
              f"({(1 - ratio) * 100:.1f}% faster)")
    for name in only_in_one:
        print(f"skipped {name}: present in only one run")
    for name, base_mean, head_mean, ratio in regressions:
        print(f"SLOWER  {name}: {_fmt(base_mean)} -> {_fmt(head_mean)} "
              f"({(ratio - 1) * 100:.1f}% over the "
              f"{threshold * 100:.0f}% budget)")
    return regressions


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
        help="smoke mode: also A/B the pooled, batched server against the "
             "serialized one (implies --smoke)",
    )
    parser.add_argument(
        "--scale", action="store_true",
        help="smoke mode: also A/B the full-scale E10 graph join "
             "(5x10^4 rows per side, kernel vs naive, kernel rows checked "
             "against naive; takes about a minute) (implies --smoke)",
    )
    parser.add_argument(
        "--out", default="bench-smoke.json",
        help="smoke mode: report path (default bench-smoke.json)",
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
        except AssertionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if not options.base or not options.head:
        parser.error("base and head are required unless --smoke is given")

    try:
        base = load_means(options.base)
        head = load_means(options.head)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    regressions = _print_comparison(base, head, options.threshold)
    shared = len(set(base) & set(head))
    if regressions:
        print(f"{len(regressions)} of {shared} shared benchmarks regressed")
        return 1
    print(f"ok: no regression over {options.threshold * 100:.0f}% "
          f"across {shared} shared benchmarks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
