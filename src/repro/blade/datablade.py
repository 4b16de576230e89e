"""Assembly of the TIP DataBlade.

:func:`build_tip_blade` declares the five datatypes, the full routine
library, the cast graph, and the aggregates into a
:class:`~repro.blade.registry.DataBlade` bundle.  Install it into a
connection with :func:`repro.blade.install_tip`.
"""

from __future__ import annotations

from repro import codec, obs
from repro.blade import routines as r
from repro.blade.registry import AggregateDef, CastDef, DataBlade, RoutineDef, TypeDef
from repro.core import aggregates as agg
from repro.core import allen as allen_ops
from repro.core.casts import CAST_RULES
from repro.core.chronon import Chronon
from repro.core.element import Element
from repro.core.instant import Instant
from repro.core.period import Period
from repro.core.span import Span

__all__ = ["build_tip_blade", "TIP_TYPES"]

#: The five TIP datatypes, in declaration order.
TIP_TYPES = (Chronon, Span, Instant, Period, Element)


def _type_defs():
    for tip_type in TIP_TYPES:
        yield TypeDef(
            name=tip_type.__name__,
            python_type=tip_type,
            encode=codec.encode,
            decode=codec.decode,
            parse=tip_type.parse,
            render=str,
            doc=(tip_type.__doc__ or "").strip().splitlines()[0],
        )


#: Generic operators whose result never depends on NOW: they only add,
#: scale or divide spans and shift instants (a NOW-relative instant
#: stays NOW-relative).  The comparisons and ``tsub`` ground NOW.
_NOW_INDEPENDENT_OPS = frozenset({"tadd", "tmul", "tdiv"})


def _doc(fn) -> str:
    return (fn.__doc__ or "").strip().splitlines()[0]


def _routine_defs():
    # A routine is declared deterministic exactly when its result (or
    # its error) is the same under every NOW binding
    # (``tests/test_fusion.py`` checks this property): SQLite then
    # evaluates a call with constant arguments once per statement.
    # Routines that read NOW must stay non-deterministic, since SQLite
    # admits deterministic functions in indexes, CHECK constraints and
    # generated columns.
    #
    # Constructors: one per type, parsing the paper's literal syntax.
    # The parser runs through the literal cache: constructor arguments
    # are usually constant literals repeated for every row of a
    # statement (``element('{[1999-10-01, NOW]}')`` in a bulk INSERT),
    # so the literal parses once per process, not once per row.
    for tip_type in TIP_TYPES:
        name = tip_type.__name__.lower()
        yield RoutineDef(
            name=name,
            arg_types=("text",),
            return_type=tip_type.__name__,
            implementation=codec.cache.cached_parser(tip_type.parse),
            doc=f"``{name}(text)`` — parse a {tip_type.__name__} literal.",
            deterministic=True,
        )
    yield RoutineDef(
        name="period",
        arg_types=("Instant", "Instant"),
        return_type="Period",
        implementation=r.make_period,
        doc=_doc(r.make_period),
        deterministic=True,
    )
    # Widening and grounding casts as callable routines.
    yield RoutineDef("to_element", ("any",), "Element", r.to_element, _doc(r.to_element), True)
    yield RoutineDef("to_period", ("any",), "Period", r.to_period, _doc(r.to_period), True)
    yield RoutineDef("to_chronon", ("Instant",), "Chronon",
                     lambda i: i.ground(), "``to_chronon(i)`` — ground an instant at NOW.")
    yield RoutineDef("ground", ("any",), "any", r.ground, _doc(r.ground))
    yield RoutineDef("tip_text", ("any",), "text", r.tip_text, _doc(r.tip_text), True)
    yield RoutineDef("tip_now", (), "Chronon", r.tip_now, _doc(r.tip_now))

    # Element accessors.
    yield RoutineDef("start", ("Element",), "Chronon", r.element_start, _doc(r.element_start))
    yield RoutineDef("end_time", ("Element",), "Chronon", r.element_end, _doc(r.element_end))
    yield RoutineDef("first_period", ("Element",), "Period", r.first_period, _doc(r.first_period))
    yield RoutineDef("last_period", ("Element",), "Period", r.last_period, _doc(r.last_period))
    yield RoutineDef("n_periods", ("Element",), "integer", r.n_periods, _doc(r.n_periods))
    yield RoutineDef("is_empty", ("Element",), "boolean", r.is_empty, _doc(r.is_empty))
    yield RoutineDef("length", ("Element",), "Span", r.length, _doc(r.length))
    yield RoutineDef("length_seconds", ("Element",), "integer",
                     r.length_seconds, _doc(r.length_seconds))

    # Element set algebra.  SQLite reserves UNION/INTERSECT as tokens,
    # hence the t-prefixed primary names (see module doc of routines).
    yield RoutineDef("tunion", ("Element", "Element"), "Element",
                     r.element_union, _doc(r.element_union), aliases=("element_union",))
    yield RoutineDef("tintersect", ("Element", "Element"), "Element",
                     r.element_intersect, _doc(r.element_intersect),
                     aliases=("element_intersect",))
    yield RoutineDef("tdifference", ("Element", "Element"), "Element",
                     r.element_difference, _doc(r.element_difference),
                     aliases=("element_difference", "difference"))
    yield RoutineDef("complement", ("Element",), "Element",
                     r.element_complement, _doc(r.element_complement))
    yield RoutineDef("restrict", ("Element", "Period"), "Element",
                     r.element_restrict, _doc(r.element_restrict))
    yield RoutineDef("shift", ("Element", "Span"), "Element",
                     r.element_shift, _doc(r.element_shift), True)
    yield RoutineDef("overlaps", ("Element", "Element"), "boolean",
                     r.element_overlaps, _doc(r.element_overlaps))
    yield RoutineDef("contains", ("Element", "Element"), "boolean",
                     r.element_contains, _doc(r.element_contains))
    yield RoutineDef("contains_instant", ("Element", "Instant"), "boolean",
                     r.contains_instant, _doc(r.contains_instant))
    yield RoutineDef("extent", ("Element",), "Period", r.element_extent, _doc(r.element_extent))
    yield RoutineDef("gaps", ("Element",), "Element", r.element_gaps, _doc(r.element_gaps))
    yield RoutineDef("before_point", ("Element", "Instant"), "Element",
                     r.element_before_point, _doc(r.element_before_point))
    yield RoutineDef("after_point", ("Element", "Instant"), "Element",
                     r.element_after_point, _doc(r.element_after_point))

    # Period accessors and Allen's operators.
    yield RoutineDef("period_start", ("Period",), "Instant",
                     r.period_start, _doc(r.period_start), True)
    yield RoutineDef("period_end", ("Period",), "Instant",
                     r.period_end, _doc(r.period_end), True)
    yield RoutineDef("period_intersect", ("Period", "Period"), "Period",
                     r.period_intersect, _doc(r.period_intersect))
    yield RoutineDef("allen_relation", ("Period", "Period"), "text",
                     r.allen_relation, _doc(r.allen_relation))
    for relation_name in allen_ops.RELATION_NAMES:
        predicate = getattr(allen_ops, relation_name)
        sql_name = f"allen_{relation_name}"
        yield RoutineDef(sql_name, ("Period", "Period"), "boolean",
                         predicate, f"``{sql_name}(a, b)`` — {predicate.__doc__}")

    # Generic operators and comparisons.
    for sql_name in r.GENERIC_OPS:
        yield RoutineDef(sql_name, ("any", "any"), "any",
                         r.generic_operator(sql_name), r.GENERIC_OPS[sql_name][1],
                         sql_name in _NOW_INDEPENDENT_OPS)
    yield RoutineDef("tcmp", ("any", "any"), "integer", r.tcmp, _doc(r.tcmp))

    # Calendar-aware chronon arithmetic.
    from repro.core import calendar_arith

    yield RoutineDef("add_months", ("Chronon", "integer"), "Chronon",
                     calendar_arith.add_months,
                     "``add_months(c, n)`` — shift by calendar months (day clamped).",
                     True)
    yield RoutineDef("add_years", ("Chronon", "integer"), "Chronon",
                     calendar_arith.add_years,
                     "``add_years(c, n)`` — shift by calendar years.", True)
    yield RoutineDef("start_of_day", ("Chronon",), "Chronon",
                     calendar_arith.start_of_day,
                     "``start_of_day(c)`` — truncate to midnight.", True)
    yield RoutineDef("start_of_month", ("Chronon",), "Chronon",
                     calendar_arith.start_of_month,
                     "``start_of_month(c)`` — truncate to the 1st.", True)
    yield RoutineDef("start_of_year", ("Chronon",), "Chronon",
                     calendar_arith.start_of_year,
                     "``start_of_year(c)`` — truncate to January 1st.", True)

    # Scalar bridges.
    yield RoutineDef("span_seconds", ("Span",), "integer",
                     r.span_seconds, _doc(r.span_seconds), True)
    yield RoutineDef("seconds_span", ("integer",), "Span",
                     r.seconds_span, _doc(r.seconds_span), True)
    yield RoutineDef("span_days", ("Span",), "float", r.span_days, _doc(r.span_days), True)
    yield RoutineDef("chronon_seconds", ("Chronon",), "integer",
                     r.chronon_seconds, _doc(r.chronon_seconds), True)


def _cast_defs():
    for (source, target), rule in CAST_RULES.items():
        source_name = "text" if source is str else source.__name__
        target_name = "text" if target is str else target.__name__
        yield CastDef(
            source=source_name,
            target=target_name,
            implicit=rule.implicit,
            implementation=rule.convert,
            doc=rule.doc,
        )


def _aggregate_defs():
    yield AggregateDef("group_union", "Element", "Element", agg.GroupUnion,
                       _doc_of(agg.GroupUnion))
    yield AggregateDef("group_intersect", "Element", "Element", agg.GroupIntersect,
                       _doc_of(agg.GroupIntersect))
    yield AggregateDef("span_sum", "Span", "Span", agg.SpanSum, _doc_of(agg.SpanSum))
    yield AggregateDef("span_avg", "Span", "Span", agg.SpanAvg, _doc_of(agg.SpanAvg))
    yield AggregateDef("chronon_min", "Chronon", "Chronon", agg.ChrononMin,
                       _doc_of(agg.ChrononMin))
    yield AggregateDef("chronon_max", "Chronon", "Chronon", agg.ChrononMax,
                       _doc_of(agg.ChrononMax))


def _doc_of(cls) -> str:
    return (cls.__doc__ or "").strip().splitlines()[0]


def build_tip_blade() -> DataBlade:
    """Build the TIP DataBlade bundle (types, routines, casts, aggregates)."""
    with obs.span("blade.build", blade="TIP"):
        blade = DataBlade(name="TIP", version="1.0")
        for type_def in _type_defs():
            blade.register_type(type_def)
        for routine in _routine_defs():
            blade.register_routine(routine)
        for cast_def in _cast_defs():
            blade.register_cast(cast_def)
        for aggregate in _aggregate_defs():
            blade.register_aggregate(aggregate)
        if obs.state.enabled:
            obs.counter("blade.build.routines").add(len(blade.routines))
            obs.counter("blade.build.casts").add(len(blade.casts))
        return blade
