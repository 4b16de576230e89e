"""``EXPLAIN TEMPORAL <sql>`` — the per-query E2 comparison.

The paper's experiment E2 compares the integrated (in-engine blade)
architecture against the layered TimeDB/Tiger approach in aggregate;
this module turns that comparison into a first-class, per-statement
tool.  Given one statement (TSQL2 modifiers included), it

1. runs it on the TIP connection under the query profiler
   (:mod:`repro.obs.profile`) — wall time, per-routine breakdown,
   periods processed — with the plan an unprofiled run
   takes (a set-based kernel whenever :mod:`repro.plan` takes it);
2. mirrors the referenced temporal tables into a layered
   :class:`~repro.layered.engine.LayeredEngine`
   (:func:`~repro.layered.migrate.flatten_from_tip`), classifies the
   statement into one of the translatable temporal operations
   (timeslice / snapshot / coalesce-length / overlap join), and runs
   the translated equivalent under the same profiler;
3. renders the two profiles, the generated SQL, its static complexity
   (:func:`~repro.layered.translator.sql_complexity`), and the SQLite
   query plans side by side.

Statement shapes with no layered equivalent in the translator's
repertoire still get the blade profile plus the layered side's static
complexity; the report says so instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.client.connection import TipConnection
from repro.core.chronon import Chronon
from repro.core.parser import parse_chronon
from repro.errors import TipError, TranslationError
from repro.layered import translator
from repro.layered.engine import LayeredEngine
from repro.layered.migrate import flatten_from_tip
from repro.blade.fusion import executed_sql
from repro.obs import profile as _profile
from repro.obs.export import render_profile
from repro.obs.profile import QueryProfile, StatementRecorder
from repro.tsql import compiled as _compiled
from repro.tsql.parser import Call, Column, Select, parse
from repro.tsql.preprocessor import TsqlSession, strip_explain

__all__ = ["ExplainReport", "EnginePlan", "explain_temporal"]


@dataclass
class EnginePlan:
    """One engine's half of the comparison."""

    engine: str                      # "blade" | "layered"
    sql: str                         # the SQL that engine ran (or would run)
    plan: List[str] = field(default_factory=list)   # EXPLAIN QUERY PLAN details
    complexity: Dict[str, int] = field(default_factory=dict)
    profile: Optional[QueryProfile] = None
    operation: str = ""              # the classified layered operation
    note: str = ""

    def as_dict(self) -> Dict:
        return {
            "engine": self.engine,
            "sql": self.sql,
            "plan": self.plan,
            "complexity": self.complexity,
            "profile": self.profile.as_dict() if self.profile else None,
            "operation": self.operation,
            "note": self.note,
        }


@dataclass
class ExplainReport:
    """The side-by-side blade-vs-layered cost report for one statement."""

    statement: str
    translated: str
    blade: EnginePlan
    layered: EnginePlan
    statement_cache: Dict = field(default_factory=dict)
    plan_strategy: Dict = field(default_factory=dict)
    #: The SQL SQLite ran when routine fusion rewrote the statement.
    executed: str = ""

    def as_dict(self) -> Dict:
        return {
            "statement": self.statement,
            "translated": self.translated,
            "executed": self.executed,
            "blade": self.blade.as_dict(),
            "layered": self.layered.as_dict(),
            "statement_cache": dict(self.statement_cache),
            "plan_strategy": dict(self.plan_strategy),
        }

    # -- rendering -----------------------------------------------------

    def render(self) -> str:
        lines = [f"EXPLAIN TEMPORAL {self.statement}"]
        if self.translated != self.statement:
            lines.append(f"translated: {self.translated}")
        if self.executed:
            lines.append(f"executed: {self.executed}")
        if self.statement_cache:
            entries = self.statement_cache.get("entries", 0)
            capacity = self.statement_cache.get("capacity", 0)
            outcome = "hit" if self.statement_cache.get("hit") else "miss"
            lines.append(
                f"statement cache: {outcome} "
                f"(entries {entries}/{capacity}, "
                f"generation {self.statement_cache.get('generation', 0)})"
            )
        if self.plan_strategy:
            strategy = self.plan_strategy.get("strategy", "naive")
            if strategy == "kernel":
                detail = (f"{self.plan_strategy.get('shape', '?')} via "
                          f"{self.plan_strategy.get('kernel', '?')}")
                pushed = self.plan_strategy.get("pushdown")
                if pushed:
                    detail += f"; pushed down: {' AND '.join(pushed)}"
                image = self.plan_strategy.get("image")
                lines.append(f"temporal strategy: kernel ({detail})"
                             + (f" [image: {', '.join(image)}]"
                                if image else ""))
            else:
                lines.append(
                    "temporal strategy: naive "
                    f"({self.plan_strategy.get('reason', 'no reason given')})"
                )
        if self.layered.operation:
            lines.append(f"layered equivalent: {self.layered.operation}")
        lines.append("")
        lines += _side_by_side(self.blade, self.layered)
        if self.blade.profile and self.blade.profile.routines:
            lines += ["", "blade routine breakdown:"]
            lines += ["  " + line
                      for line in render_profile(self.blade.profile.as_dict()).splitlines()]
        for side in (self.blade, self.layered):
            if side.plan:
                lines += ["", f"{side.engine} query plan:"]
                lines += [f"  {detail}" for detail in side.plan]
        if self.layered.sql:
            lines += ["", "layered SQL:", f"  {self.layered.sql}"]
        notes = [side.note for side in (self.blade, self.layered) if side.note]
        if notes:
            lines += [""] + [f"note: {note}" for note in notes]
        return "\n".join(lines)


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.3f}ms"
    return f"{value * 1e6:.1f}us"


def _side_by_side(blade: EnginePlan, layered: EnginePlan) -> List[str]:
    def profile_cell(profile: Optional[QueryProfile], attr: str, fmt=str) -> str:
        if profile is None:
            return "-"
        return fmt(getattr(profile, attr))

    rows: List[Tuple[str, str, str]] = [
        ("wall time",
         profile_cell(blade.profile, "wall_seconds", _fmt_seconds),
         profile_cell(layered.profile, "wall_seconds", _fmt_seconds)),
        ("fetch time",
         profile_cell(blade.profile, "fetch_seconds", _fmt_seconds),
         profile_cell(layered.profile, "fetch_seconds", _fmt_seconds)),
        ("rows",
         profile_cell(blade.profile, "rows"),
         profile_cell(layered.profile, "rows")),
        ("periods processed",
         profile_cell(blade.profile, "periods_processed"),
         profile_cell(layered.profile, "periods_processed")),
        ("routine calls",
         str(sum(int(r.get("calls", 0)) for r in blade.profile.routines.values()))
         if blade.profile else "-",
         str(sum(int(r.get("calls", 0)) for r in layered.profile.routines.values()))
         if layered.profile else "-"),
    ]
    for metric in ("chars", "selects", "joins", "not_exists", "predicates"):
        rows.append((
            f"sql {metric}",
            str(blade.complexity.get(metric, "-")),
            str(layered.complexity.get(metric, "-")),
        ))
    headers = ("metric", "blade (integrated)", "layered (TimeDB-style)")
    table = [(name, b, l) for name, b, l in rows]
    widths = [
        max([len(headers[i])] + [len(row[i]) for row in table]) for i in range(3)
    ]
    lines = [
        "  ".join(headers[i].ljust(widths[i]) for i in range(3)),
        "  ".join("-" * widths[i] for i in range(3)),
    ]
    lines += ["  ".join(row[i].ljust(widths[i]) for i in range(3)) for row in table]
    return lines


def _query_plan(raw_connection, sql: str, params=()) -> List[str]:
    """SQLite's EXPLAIN QUERY PLAN details for *sql* (best effort)."""
    try:
        rows = raw_connection.execute(f"EXPLAIN QUERY PLAN {sql}", params).fetchall()
    except Exception:  # the plan is advisory; never fail the report
        return []
    return [str(row[-1]) for row in rows]


def _range_bounds(text: str) -> Optional[Tuple[str, str]]:
    """``(lo, hi)`` of a one-period literal ``[lo, hi]`` or ``{[lo, hi]}``."""
    body = text[1:-1] if text[:1] + text[-1:] == "{}" else text
    lo, comma, hi = body[1:-1].partition(",")
    if body[:1] + body[-1:] != "[]" or "]" in lo + hi or not (lo.strip() and hi.strip()):
        return None
    return lo, hi


def _time_point_seconds(text: str, now_seconds: int) -> int:
    text = text.strip()
    if text.upper() == "NOW":
        return now_seconds
    return parse_chronon(text).seconds


def explain_temporal(
    connection: TipConnection,
    statement: str,
    *,
    session: Optional[TsqlSession] = None,
) -> ExplainReport:
    """Run *statement* under both engines and build the cost report.

    *statement* may or may not carry the ``EXPLAIN TEMPORAL`` prefix;
    TSQL2 statement modifiers are translated first.  The layered side
    evaluates against a mirror of the referenced temporal tables at
    the connection's current ``NOW``, so both engines see the same
    data in the same temporal context.
    """
    inner = strip_explain(statement)
    if inner is None:
        inner = statement.strip().rstrip(";")
    if session is None:
        session = TsqlSession(connection)
    else:
        session.rescan()
    hits_before = _compiled.CACHE.stats()["hits"]
    translated = session.translate(inner)
    cache_snapshot = _compiled.stats()
    statement_cache = {
        "hit": cache_snapshot["hits"] > hits_before,
        "entries": cache_snapshot["entries"],
        "capacity": cache_snapshot["capacity"],
        "generation": cache_snapshot["generation"],
    }

    from repro.plan import planner as _planner

    plan_strategy = _planner.describe(connection, translated)

    blade = EnginePlan(
        engine="blade",
        sql=translated,
        complexity=translator.sql_complexity(translated),
    )
    # The per-routine breakdown comes from instrument counters, which
    # sit behind the process-wide metrics switch; flip it on for the
    # duration of the comparison if the user hasn't already.
    metrics_were_on = _obs.is_enabled()
    if not metrics_were_on:
        _obs.enable()
    executed = ""
    try:
        with _profile.forced():
            cursor = connection.cursor()
            if cursor.execute_kernel(translated) is None:
                cursor.execute(translated)
                if cursor.description is not None:
                    cursor.fetchall()
                if executed_sql(translated) != translated:
                    executed = executed_sql(translated)
            blade.profile = cursor.profile
        blade.plan = _query_plan(connection.raw, executed or translated)

        layered = _layered_side(connection, session, translated)
    finally:
        if not metrics_were_on:
            _obs.disable()
    return ExplainReport(
        statement=inner, translated=translated, blade=blade, layered=layered,
        statement_cache=statement_cache, plan_strategy=plan_strategy,
        executed=executed,
    )


def _layered_side(
    connection: TipConnection,
    session: TsqlSession,
    translated: str,
) -> EnginePlan:
    layered = EnginePlan(engine="layered", sql="")
    try:
        select = parse(translated)
    except TranslationError as exc:
        layered.note = f"layered comparison skipped: {exc}"
        return layered
    temporal = session.temporal_tables
    tables = [(item.table, item.alias) for item in select.from_items
              if item.table.lower() in temporal]
    if not tables:
        layered.note = "layered comparison skipped: no temporal tables in FROM"
        return layered

    now_seconds = connection.statement_now_seconds()
    engine = LayeredEngine(now=Chronon(now_seconds))
    try:
        for table in {table for table, _alias in tables}:
            flatten_from_tip(
                connection, table, engine,
                valid_column=temporal[table.lower()],
            )
    except (TipError, TranslationError) as exc:
        engine.close()
        layered.note = (
            "layered mirror impossible (the flat encoding cannot hold this "
            f"data): {exc}"
        )
        return layered

    try:
        _run_layered(engine, layered, select, tables, now_seconds)
    finally:
        engine.close()
    return layered


def _run_layered(
    engine: LayeredEngine,
    layered: EnginePlan,
    select: Select,
    tables: Sequence[Tuple[str, str]],
    now_seconds: int,
) -> None:
    """Classify the statement, run the layered op, and fill the plan."""
    first = tables[0][0]
    schema = engine.schema(first)
    columns = all(isinstance(key, Column) for key in select.group_by)
    keys = [key.name for key in select.group_by] if columns else []
    names = set()
    instant_at = bounds = None
    for call in select.calls():
        names.add(call.name)
        if call.name == "contains_instant" and len(call.args) == 2:
            arg = call.args[1]
            if instant_at is None and isinstance(arg, Call) and arg.name == "instant":
                instant_at = arg.string_arg()
        elif call.name in ("period", "element") and bounds is None:
            bounds = _range_bounds(call.string_arg() or "")

    op = None  # (operation name, callable, translated layered SQL, params)
    if "group_union" in names and keys:
        op = (
            f"total_length({first!r}, {keys})",
            lambda: engine.total_length(first, keys),
            translator.translate_total_length(schema, keys),
            {"now": now_seconds},
        )
    elif len(tables) >= 2 and "overlaps" in names:
        second = tables[1][0]
        op = (
            f"overlap_join({first!r}, {second!r})",
            lambda: engine.overlap_join(first, second),
            translator.translate_overlap_join(
                schema, engine.schema(second),
                schema.column_names(), engine.schema(second).column_names(),
            ),
            {"now": now_seconds},
        )
    elif instant_at is not None:
        at = _time_point_seconds(instant_at, now_seconds)
        op = (
            f"snapshot({first!r}, at={instant_at.strip()!r})",
            lambda: engine.snapshot(first, at),
            translator.translate_snapshot(schema, schema.column_names()),
            {"now": now_seconds, "at": at},
        )
    elif bounds is not None:
        lo = _time_point_seconds(bounds[0], now_seconds)
        hi = _time_point_seconds(bounds[1], now_seconds)
        op = (
            f"timeslice({first!r}, ...)",
            lambda: engine.timeslice(first, lo, hi),
            translator.translate_timeslice(schema, schema.column_names()),
            {"now": now_seconds, "lo": lo, "hi": hi},
        )
    elif "group_union" in names:
        op = (
            f"coalesce({first!r})",
            lambda: engine.coalesce(first, schema.column_names()),
            translator.translate_coalesce(schema, schema.column_names()),
            {"now": now_seconds},
        )

    if op is None:
        layered.sql = translator.translate_timeslice(schema, schema.column_names())
        layered.complexity = translator.sql_complexity(layered.sql)
        layered.note = (
            "no layered equivalent for this statement shape; showing the "
            "static complexity of the representative timeslice translation"
        )
        return

    name, runner, layered_sql, params = op
    layered.operation = name
    layered.sql = layered_sql
    layered.complexity = translator.sql_complexity(layered_sql)
    recorder = StatementRecorder(layered_sql, engine="layered").start()
    try:
        rows = runner()
    except Exception as exc:
        recorder.finish(ok=False, error=str(exc))
        layered.note = f"layered execution failed: {exc}"
        return
    recorder.profile.rows = len(rows)
    layered.profile = recorder.finish(rowcount=len(rows))
    layered.plan = _query_plan(engine.raw, layered_sql, params)
