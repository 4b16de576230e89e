"""Generate the SQL reference from the blade registry itself.

The registry is the single source of truth for what is callable from
SQL, so the reference manual is *derived*, never hand-maintained:
:func:`render_markdown` produces ``docs/sql_reference.md`` (see
``examples/generate_reference.py``), and the test suite asserts the
checked-in file is up to date.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.blade.registry import DataBlade, RoutineDef

__all__ = ["render_markdown"]

_CATEGORY_ORDER = [
    ("Constructors and casts",
     {"chronon", "span", "instant", "period", "element", "to_element", "to_period",
      "to_chronon", "ground", "tip_text", "tip_now"}),
    ("Element accessors",
     {"start", "end_time", "first_period", "last_period", "n_periods", "is_empty",
      "length", "length_seconds"}),
    ("Element set algebra",
     {"tunion", "element_union", "tintersect", "element_intersect", "tdifference",
      "element_difference", "difference", "complement", "restrict", "shift",
      "overlaps", "contains", "contains_instant", "extent", "gaps",
      "before_point", "after_point"}),
    ("Period accessors and Allen's operators",
     {"period_start", "period_end", "period_intersect", "allen_relation"}),
    ("Generic operators and comparisons",
     {"tadd", "tsub", "tmul", "tdiv", "teq", "tne", "tlt", "tle", "tgt", "tge", "tcmp"}),
    ("Calendar arithmetic",
     {"add_months", "add_years", "start_of_day", "start_of_month", "start_of_year"}),
    ("Scalar bridges",
     {"span_seconds", "seconds_span", "span_days", "chronon_seconds"}),
]


def _category_of(name: str) -> str:
    if name.startswith("allen_"):
        return "Period accessors and Allen's operators"
    for title, members in _CATEGORY_ORDER:
        if name in members:
            return title
    return "Other routines"


def _signature(name: str, routine: RoutineDef) -> str:
    args = ", ".join(routine.arg_types)
    return f"{name}({args}) -> {routine.return_type}"


def render_markdown(blade: DataBlade) -> str:
    """The full SQL reference for *blade* as markdown."""
    lines: List[str] = [
        f"# {blade.name} DataBlade — SQL reference",
        "",
        "*Generated from the blade registry by `repro.blade.docgen` — do not edit.*",
        "",
        "## Datatypes",
        "",
        "| type | description |",
        "|---|---|",
    ]
    for name in sorted(blade.types):
        lines.append(f"| `{name}` | {blade.types[name].doc} |")

    grouped: Dict[str, List[str]] = defaultdict(list)
    for (name, _arity), routine in sorted(blade.routines.items()):
        grouped[_category_of(name)].append(
            f"| `{_signature(name, routine)}` | {routine.doc} |"
        )
    lines += ["", "## Routines", ""]
    titles = [title for title, _members in _CATEGORY_ORDER] + ["Other routines"]
    for title in titles:
        if title not in grouped:
            continue
        lines += [f"### {title}", "", "| signature | description |", "|---|---|"]
        lines += grouped[title]
        lines.append("")

    lines += ["## Aggregates", "", "| signature | description |", "|---|---|"]
    for name in sorted(blade.aggregates):
        aggregate = blade.aggregates[name]
        lines.append(
            f"| `{name}({aggregate.arg_type}) -> {aggregate.return_type}` | {aggregate.doc} |"
        )

    lines += ["", "## Casts", "", "| cast | implicit | description |", "|---|---|---|"]
    for cast_def in sorted(blade.casts, key=lambda c: (c.source, c.target)):
        implicit = "yes" if cast_def.implicit else "explicit (`::`)"
        lines.append(
            f"| `{cast_def.source} -> {cast_def.target}` | {implicit} | {cast_def.doc} |"
        )
    lines += _CLI_SECTION
    lines.append("")
    return "\n".join(lines)


#: The command-line / observability surface.  Static text, not derived
#: from the registry, but kept here so docs/sql_reference.md remains a
#: single generated artifact.
_CLI_SECTION = [
    "",
    "## Command line and observability",
    "",
    "The interactive shell (`python -m repro [database]`) executes SQL and",
    "TSQL2 statement modifiers; dot-commands drive the session (`.help`,",
    "`.demo`, `.tables`, `.schema`, `.now`, `.blade`, `.flight`, `.browse`,",
    "`.window`, `.slide`, `.zoom`, `.quit`).",
    "",
    "### `.metrics` — engine metrics from the shell",
    "",
    "| command | effect |",
    "|---|---|",
    "| `.metrics on` / `.metrics off` | toggle metrics collection (default off) |",
    "| `.metrics` | print counters, latency histograms, recent spans as a table |",
    "| `.metrics json` | the same snapshot as JSON |",
    "| `.metrics prom` | the same snapshot as Prometheus text exposition |",
    "| `.metrics reset` | clear all recorded metrics, traces, and the flight ring |",
    "",
    "Every blade routine, cast, and aggregate is instrumented with",
    "per-name call counts, latency histograms, and error counts",
    "(`blade.routine.<name>.*`); the Element set algebra additionally",
    "records the periods it processes (`element.periods_processed`,",
    "`element.sweep.<op>.steps`), which is how the paper's linear-time",
    "claim is asserted in the test suite.",
    "",
    "### `repro metrics` — remote snapshot over the wire",
    "",
    "`python -m repro metrics HOST:PORT [--json|--prom] [--reset]` connects",
    "to a running TIP server, sends a `METRICS` protocol frame, and prints",
    "the server's per-session ledger and process-wide snapshot (see the",
    "`repro.server.protocol` docstring for the frame layout).  `--prom`",
    "emits the snapshot in the Prometheus text exposition format.",
    "",
    "### Flight recorder and live telemetry",
    "",
    "The flight recorder (`repro.obs.flight`) keeps a bounded, lock-free",
    "ring of structured engine events — statement/batch/stream lifecycle,",
    "pool checkouts, WAL checkpoints, cache traffic, fired faults — that",
    "turns the counters above into an ordered timeline.  `.flight` drives",
    "it from the shell (`on`/`off`/`last N`/`kind K`/`json`/`clear`),",
    "`python -m repro flight HOST:PORT [--last N] [--kind K] [--session S]`",
    "retrieves a remote ring over the `FLIGHT` protocol frame, and",
    "`python -m repro serve --telemetry-port N` additionally serves",
    "`/metrics`, `/debug/flight`, `/debug/spans`, `/debug/profiles`,",
    "`/debug/slow`, and `/healthz` over HTTP while the server is under",
    "load.  The full chapter — event catalogue, crash dumps, determinism",
    "guarantees, and the trace-timeline walkthrough — is",
    "`docs/observability.md`.",
    "",
    "### `EXPLAIN TEMPORAL` — per-query blade-vs-layered cost report",
    "",
    "Syntax:",
    "",
    "```sql",
    "EXPLAIN TEMPORAL <statement>",
    "```",
    "",
    "where `<statement>` is any SELECT the shell accepts, TSQL2 statement",
    "modifiers included.  The statement is executed twice — once on the",
    "integrated blade, once as the translated TimeDB-style equivalent over",
    "a flat mirror of the referenced temporal tables — and the report shows",
    "wall/fetch time, rows, periods processed, per-routine breakdowns,",
    "the translated SQL with its static complexity metrics",
    "(chars / selects / joins / NOT EXISTS / predicates), and both SQLite",
    "query plans side by side.",
    "",
    "Example:",
    "",
    "```sql",
    "EXPLAIN TEMPORAL SELECT patient, length(group_union(valid))",
    "FROM Prescription GROUP BY patient",
    "```",
    "",
    "reports the blade running one `group_union` aggregate against the",
    "layered side's ~1.4 kB doubly-nested `NOT EXISTS` coalescing query —",
    "the Section 5 complexity argument, measured per statement.  Available",
    "as plain shell input, as the `.explain` dot-command, and one-shot from",
    "the command line:",
    "",
    "```",
    "python -m repro explain [--db PATH] [--demo N] [--json] 'SELECT ...'",
    "```",
    "",
    "(with `--demo`, the synthetic medical database is generated in memory",
    "so `Prescription` is queryable out of the box).",
    "",
    "### Language-integrated queries",
    "",
    "The `repro.linq` package builds these statements from typed Python",
    "expression objects instead of strings: construction-time checks",
    "against the type rules, the blade signatures above, and the live",
    "schema; first-class `snapshot`/`validtime`/`nonsequenced` wrappers;",
    "named parameters; execution through the statement cache locally or",
    "PREPARE/EXECUTE remotely.  `conn.linq()` on either connection flavor",
    "is the entry point, `.linq <expr>` drives it from the shell, and the",
    "full chapter is `docs/linq.md`.",
]
