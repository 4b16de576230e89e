"""Render a metrics snapshot as a fixed-width table, JSON, or Prometheus text.

Consumed by the shell's ``.metrics`` command, the ``python -m repro
metrics`` subcommand, and anything that receives a ``METRICS`` frame
from the server and wants it human-readable.  The Prometheus text
exposition (:func:`render_prometheus`) turns the same snapshot into
the ``text/plain; version=0.0.4`` format scrapers expect, so a TIP
process can be wired into an existing monitoring stack without a
bespoke exporter.  :func:`render_profile` renders one
:class:`~repro.obs.profile.QueryProfile` (as plain data) for the
shell's ``.profile`` command and the PROFILE wire frame.

The span exporter (:func:`span_entries` / :func:`span_records` /
:func:`render_spans` / :func:`assemble_trace`) reads the ``span`` and
``stmt.profile`` events of the flight ring (or of its JSONL dumps),
turns them into JSONL span lines carrying ``trace_id`` / ``span_id`` /
``parent_span_id``, and reassembles the client- and server-side spans
of one trace into a parent-first timeline — the cross-process view one
process's ring cannot give by itself.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Sequence

__all__ = [
    "render_text", "render_json", "render_prometheus", "render_profile",
    "span_entries", "span_records", "render_spans", "assemble_trace",
]


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    widths = [
        max([len(header)] + [len(row[index]) for row in rows])
        for index, header in enumerate(headers)
    ]
    lines = [
        "  ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return lines


def _seconds(value) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.3f}ms"
    return f"{value * 1e6:.1f}us"


def render_text(snapshot: Dict) -> str:
    """A snapshot (``{"counters": ..., "histograms": ...}``) as text."""
    sections: List[str] = []
    if "uptime_seconds" in snapshot:
        header = [f"uptime: {_seconds(snapshot['uptime_seconds'])}"]
        if "ts_monotonic" in snapshot:
            header.append(f"snapshot at t={snapshot['ts_monotonic']:.3f} (monotonic)")
        sections.append("\n".join(header))
    sessions = snapshot.get("sessions")
    if sessions:
        sections.append(
            f"sessions: {sessions.get('opened', 0)} opened, "
            f"{sessions.get('closed', 0)} closed, "
            f"{sessions.get('active', 0)} active"
        )
    faults = snapshot.get("faults")
    if faults and faults.get("armed"):
        lines = [f"faults: armed (seed={faults.get('seed')})"]
        for rule in faults.get("rules", []):
            lines.append(
                f"  {rule.get('point')}:{rule.get('mode')} "
                f"hits={rule.get('hits', 0)} fired={rule.get('fired', 0)}"
            )
        sections.append("\n".join(lines))
    caches = snapshot.get("caches")
    if caches:
        if caches.get("enabled"):
            lines = ["marshalling caches:"]
            for which in ("decode", "parse"):
                entry = caches.get(which)
                if not entry:
                    continue
                lines.append(
                    f"  {which}: {entry.get('entries', 0)}/{entry.get('capacity', 0)} entries, "
                    f"hits={entry.get('hits', 0)} misses={entry.get('misses', 0)} "
                    f"evictions={entry.get('evictions', 0)} "
                    f"({entry.get('hit_ratio', 0.0) * 100:.1f}% hit)"
                )
            sections.append("\n".join(lines))
        else:
            sections.append("marshalling caches: disabled")
        statement = caches.get("statement")
        if statement:
            if statement.get("enabled"):
                sections.append(
                    f"statement cache: {statement.get('entries', 0)}/"
                    f"{statement.get('capacity', 0)} plans, "
                    f"hits={statement.get('hits', 0)} "
                    f"misses={statement.get('misses', 0)} "
                    f"evictions={statement.get('evictions', 0)} "
                    f"invalidations={statement.get('invalidations', 0)} "
                    f"({statement.get('hit_ratio', 0.0) * 100:.1f}% hit, "
                    f"generation {statement.get('generation', 0)})"
                )
            else:
                sections.append("statement cache: disabled")
    header_count = len(sections)
    counters = snapshot.get("counters", {})
    if counters:
        rows = [(name, str(counters[name])) for name in sorted(counters)]
        sections.append("\n".join(["counters:"] + _table(("name", "value"), rows)))
    histograms = snapshot.get("histograms", {})
    if histograms:
        rows = []
        for name in sorted(histograms):
            h = histograms[name]
            rows.append((
                name, str(h.get("count", 0)),
                _seconds(h.get("mean", 0.0)),
                _seconds(h.get("p50")), _seconds(h.get("p95")), _seconds(h.get("p99")),
                _seconds(h.get("min")), _seconds(h.get("max")),
                _seconds(h.get("sum", 0.0)),
            ))
        sections.append("\n".join(
            ["histograms:"] + _table(
                ("name", "count", "mean", "p50", "p95", "p99", "min", "max", "total"),
                rows,
            )
        ))
    trace = snapshot.get("trace", [])
    if trace:
        rows = [
            (event.get("name", "?"), _seconds(event.get("seconds")),
             "ok" if event.get("ok", True) else "ERROR")
            for event in trace
        ]
        sections.append("\n".join(["recent spans:"] + _table(("span", "took", "status"), rows)))
    if len(sections) == header_count:  # uptime/session headers only
        sections.append("(no metrics recorded)")
    return "\n\n".join(sections)


def render_json(snapshot: Dict) -> str:
    """A snapshot as pretty-printed, key-sorted JSON."""
    return json.dumps(snapshot, indent=2, sort_keys=True)


_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
#: Histogram bucket keys arrive as ``le_<bound>`` / ``le_inf``.
_PROM_BUCKET_PREFIX = "le_"


def _prom_name(name: str, prefix: str = "tip_") -> str:
    return prefix + _PROM_NAME_RE.sub("_", name)


def render_prometheus(snapshot: Dict) -> str:
    """A snapshot in the Prometheus text exposition format (0.0.4).

    Counters become ``# TYPE ... counter`` samples; histograms become
    the conventional ``_bucket{le=...}`` / ``_sum`` / ``_count``
    triples with cumulative buckets.  Uptime and the session ledger
    become gauges when present.
    """
    lines: List[str] = []
    if "uptime_seconds" in snapshot:
        lines += ["# TYPE tip_uptime_seconds gauge",
                  f"tip_uptime_seconds {snapshot['uptime_seconds']:.6f}"]
    sessions = snapshot.get("sessions")
    if sessions:
        lines.append("# TYPE tip_sessions gauge")
        for which in ("opened", "closed", "active"):
            lines.append(f'tip_sessions{{state="{which}"}} {sessions.get(which, 0)}')
    caches = snapshot.get("caches")
    if caches and caches.get("enabled"):
        # Occupancy is a gauge; the hit/miss/eviction totals already
        # ride in the counter table as tip_codec_cache_* counters.
        lines.append("# TYPE tip_marshal_cache_entries gauge")
        for which in ("decode", "parse"):
            entry = caches.get(which)
            if entry:
                lines.append(
                    f'tip_marshal_cache_entries{{cache="{which}"}} '
                    f'{entry.get("entries", 0)}'
                )
    counters = dict(snapshot.get("counters", {}))
    if caches:
        statement = caches.get("statement")
        if statement and statement.get("enabled"):
            lines += [
                "# TYPE tip_statement_cache_entries gauge",
                f"tip_statement_cache_entries {statement.get('entries', 0)}",
            ]
            # The hit/miss/evict/invalidate totals normally ride in the
            # counter table (merged from stats_counters()); a snapshot
            # taken before any traffic skips the zero-valued ones, so
            # fill the family in explicitly — scrapers want every series
            # of a family present from the first scrape.
            for short, stat in (("hit", "hits"), ("miss", "misses"),
                                ("evict", "evictions"),
                                ("invalidate", "invalidations")):
                counters.setdefault(f"tsql.cache.{short}", statement.get(stat, 0))
    flight = snapshot.get("flight")
    if flight:
        lines += [
            "# TYPE tip_flight_events gauge",
            f"tip_flight_events {flight.get('events', 0)}",
            "# TYPE tip_flight_enabled gauge",
            f"tip_flight_enabled {1 if flight.get('enabled') else 0}",
        ]
    for name in sorted(counters):
        metric = _prom_name(name) + "_total"
        lines += [f"# TYPE {metric} counter",
                  f"{metric} {counters[name]}"]
    for name in sorted(snapshot.get("histograms", {})):
        hist = snapshot["histograms"][name]
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        buckets = hist.get("buckets", {})

        def bound_key(key: str) -> float:
            raw = key[len(_PROM_BUCKET_PREFIX):]
            return float("inf") if raw == "inf" else float(raw)

        has_inf = False
        for key in sorted(buckets, key=bound_key):
            bound = key[len(_PROM_BUCKET_PREFIX):]
            label = "+Inf" if bound == "inf" else bound
            has_inf = has_inf or label == "+Inf"
            cumulative += buckets[key]
            lines.append(f'{metric}_bucket{{le="{label}"}} {cumulative}')
        count = hist.get("count", 0)
        if not has_inf:  # the format requires a closing +Inf bucket
            lines.append(f'{metric}_bucket{{le="+Inf"}} {count}')
        lines += [f"{metric}_sum {hist.get('sum', 0.0):.9f}",
                  f"{metric}_count {count}"]
        # Bucket-derived quantile estimates as a companion gauge (a
        # native histogram carries no quantile series; dashboards that
        # cannot run histogram_quantile() read these directly).
        quantiles = [(q, hist.get(f"p{int(q * 100)}")) for q in (0.5, 0.95, 0.99)]
        if any(value is not None for _q, value in quantiles):
            lines.append(f"# TYPE {metric}_quantile gauge")
            for q, value in quantiles:
                if value is not None:
                    lines.append(f'{metric}_quantile{{quantile="{q:g}"}} {value:.9f}')
    return "\n".join(lines) + ("\n" if lines else "")


def render_profile(profile: Dict) -> str:
    """One query profile (``QueryProfile.as_dict()`` form) as text."""
    lines = [
        f"statement: {profile.get('sql', '?')}",
        f"  engine={profile.get('engine', '?')} side={profile.get('side', '?')} "
        f"trace={profile.get('trace_id', '')[:16]} span={profile.get('span_id', '')}",
        f"  wall {_seconds(profile.get('wall_seconds', 0.0))}"
        + (f"  fetch {_seconds(profile['fetch_seconds'])}"
           if profile.get("fetch_seconds") else "")
        + f"  rows={profile.get('rows', 0)} rowcount={profile.get('rowcount', -1)}"
        + (f" retries={profile['retries']}" if profile.get("retries") else ""),
        f"  periods_processed={profile.get('periods_processed', 0)} "
        f"index_probes={profile.get('index_probes', 0)} "
        f"ok={profile.get('ok', True)}"
        + (f" stmt_cache={profile['stmt_cache']}" if profile.get("stmt_cache") else ""),
    ]
    if profile.get("error"):
        lines.append(f"  error: {profile['error']}")
    routines = profile.get("routines", {})
    if routines:
        rows = []
        for name in sorted(routines, key=lambda n: -routines[n].get("seconds", 0.0)):
            entry = routines[name]
            rows.append((
                name, str(int(entry.get("calls", 0))),
                _seconds(entry.get("seconds", 0.0)),
                str(int(entry["steps"])) if "steps" in entry else "-",
            ))
        lines.append("  routines:")
        lines += ["    " + line
                  for line in _table(("routine", "calls", "seconds", "steps"), rows)]
    return "\n".join(lines)


# -- span export -------------------------------------------------------


#: The ``stmt.profile`` fields that identify its span.
_PROFILE_SPAN_KEYS = ("span_id", "parent_span_id", "side", "engine")


def span_entries(events: Sequence) -> List[Dict]:
    """The span-shaped flight events as ``{name, seconds, ok, meta}``.

    Accepts :class:`~repro.obs.flight.FlightEvent` objects or their
    ``as_dict()`` form (a ``/debug/flight`` line, a crash dump) and
    keeps two kinds: an ``obs.span`` (``span``) and a finished query
    profile (``stmt.profile``, named ``query.<side>``).  Everything
    else is skipped.  The event's trace id joins the meta.
    """
    entries: List[Dict] = []
    for event in events:
        entry = event.as_dict() if hasattr(event, "as_dict") else event
        data = entry.get("data", {})
        if entry.get("kind") == "span":
            meta = {key: value for key, value in data.items()
                    if key not in ("name", "seconds", "ok")}
            head = {"name": data.get("name", "?"),
                    "seconds": data.get("seconds", 0.0),
                    "ok": data.get("ok", True)}
        elif entry.get("kind") == "stmt.profile":
            meta = {key: data[key] for key in _PROFILE_SPAN_KEYS if key in data}
            head = {"name": f"query.{data.get('side', 'local')}",
                    "seconds": data.get("wall_seconds", 0.0),
                    "ok": data.get("ok", True)}
        else:
            continue
        if entry.get("trace_id"):
            meta["trace_id"] = entry["trace_id"]
        entries.append({**head, "meta": meta} if meta else head)
    return entries


def span_records(events: Sequence) -> List[Dict]:
    """:func:`span_entries` flattened to span records (meta promoted).

    Each record carries ``name`` / ``seconds`` / ``ok`` plus whatever
    trace identity the span holds (``trace_id`` / ``span_id`` /
    ``parent_span_id`` / ``side`` ...), so one line is one span of one
    trace.
    """
    records: List[Dict] = []
    for entry in span_entries(events):
        meta = entry.pop("meta", {})
        records.append({**entry, **meta})
    return records


def render_spans(events: Sequence, *, trace_id: Optional[str] = None) -> str:
    """Spans as JSONL, one span per line, optionally one trace only.

    The JSONL form is what ``repro flight``-style tooling and offline
    timeline viewers consume: spans from different processes (client
    and server halves of one statement) concatenate into one file and
    regroup by ``trace_id``.
    """
    records = span_records(events)
    if trace_id is not None:
        records = [r for r in records if r.get("trace_id") == trace_id]
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def assemble_trace(events: Sequence, trace_id: str) -> List[Dict]:
    """One trace's spans as a parent-first timeline with depths.

    Spans reassemble across processes through their ids: a span whose
    ``parent_span_id`` names another span's ``span_id`` nests under it
    (the server-side half of a remote statement under its client-side
    half).  Roots and orphans (parent not captured) sit at depth 0, in
    ring order; each record gains a ``depth`` key.
    """
    spans = [r for r in span_records(events) if r.get("trace_id") == trace_id]
    by_id = {r["span_id"]: r for r in spans if r.get("span_id")}
    children: Dict[str, List[Dict]] = {}
    roots: List[Dict] = []
    for record in spans:
        parent = record.get("parent_span_id")
        if parent and parent in by_id:
            children.setdefault(parent, []).append(record)
        else:
            roots.append(record)
    timeline: List[Dict] = []

    def walk(record: Dict, depth: int) -> None:
        timeline.append({**record, "depth": depth})
        for child in children.get(record.get("span_id") or "", []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return timeline
