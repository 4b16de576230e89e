"""End-to-end and per-layer metrics from measured windows.

End-to-end metrics come from an untraced window.  Per-layer metrics
mix two sources, each used where it is faithful: counts and the
server's own histograms from the untraced window (the shipped
instrumentation, no wrappers), self times from the traced replay of
the same op sequence (``trace.self_ns.*`` counters exported by
``traced_server.py``).
"""

from __future__ import annotations

from statistics import geometric_mean, median
from typing import Dict

from common import percentile, ratio, sum_matching

#: Statement-carrying frames; their server time is what layers share.
EXECUTE_OPS = ("execute", "execute_prepared", "batch")
FALLBACK_REASONS = ("shape", "schema", "small", "profiler", "faults")
LATENCY_CLASSES = {
    "serve_mixed": {"read": ("snapshot", "overlaps", "two_hop"), "write": ("insert",)},
    "bulk_ingest": {"write": ("frame",)},
}


def _value(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _statements(counters: Dict[str, float]) -> float:
    return sum(counters.get(f"server.frame.{op}.calls", 0) for op in EXECUTE_OPS)


def _frame_seconds(counters: Dict[str, float]) -> float:
    return sum(counters.get(f"server.frame.{op}.seconds.sum", 0) for op in EXECUTE_OPS)


def class_latencies(workload: str, window) -> Dict[str, float]:
    """Latency figures per request group and class (ms): read/write
    percentiles for serve and ingest, one median per request class."""
    figures = {}
    for group, classes in LATENCY_CLASSES.get(workload, {}).items():
        values = [value for name in classes for value in window.latencies[name]]
        if values:
            figures[f"{group}_p50_ms"] = median(values) * 1e3
            figures[f"{group}_p99_ms"] = percentile(values, 99) * 1e3
    for name, values in window.latencies.items():
        if values and len(window.latencies) > 1:
            figures[f"{name}_p50_ms"] = median(values) * 1e3
    return figures


def end_to_end(workload: str, window, setup_seconds) -> Dict[str, dict]:
    """Every end-to-end metric of BENCHMARK.json for one window."""
    if workload == "temporal_analytics":
        # The four classes differ by about 5x, so a pooled percentile
        # lands in whichever class is slowest: combine per-class figures.
        p90 = geometric_mean([percentile(values, 90)
                              for values in window.latencies.values() if values])
    else:
        p90 = percentile([value for values in window.latencies.values()
                          for value in values], 90)
    return {
        "setup_s": _value(median(setup_seconds), "s"),
        "throughput_ops_s": _value(window.units / window.elapsed, "1/s"),
        "p90_ms": _value(p90 * 1e3, "ms"),
        "server_cpu_ms_per_op": _value(window.server_cpu * 1e3 / window.units, "ms"),
        "server_peak_rss_mb": _value(window.peak_rss_mb, "MB"),
        "db_bytes_per_row": _value(window.db_bytes / window.rows_stored, "B"),
    }


def per_layer(base, traced) -> Dict[str, dict]:
    """Every per-layer metric of BENCHMARK.json.

    *base* is the untraced window, *traced* the traced replay of the
    same op sequence.
    """
    d, t = base.counters, traced.counters
    statements, t_statements = _statements(d), _statements(t)
    t_rows = t.get("server.rows_returned", 0)
    self_ns = {key[len("trace.self_ns."):]: value
               for key, value in t.items() if key.startswith("trace.self_ns.")}
    calls = {key[len("trace.calls."):]: value
             for key, value in t.items() if key.startswith("trace.calls.")}

    def self_us(layer: str, per: float) -> float:
        return ratio(self_ns.get(layer, 0) / 1e3, per)

    def frame_us(op: str) -> float:
        return ratio(d.get(f"server.frame.{op}.seconds.sum", 0) * 1e6,
                     d.get(f"server.frame.{op}.calls", 0))

    def hit_ratio(cache: str) -> float:
        hits = d.get(f"cache.{cache}.hits", 0)
        return ratio(hits, hits + d.get(f"cache.{cache}.misses", 0))

    client_seconds = sum(sum(values) for values in base.latencies.values())
    fallbacks = {reason: d.get(f"plan.fallback.{reason}", 0) for reason in FALLBACK_REASONS}
    kernel_runs = d.get("plan.kernel.join", 0) + d.get("plan.kernel.coalesce", 0)
    # Response frames are serialized after the server stops the frame
    # clock, so protocol.encode lies outside the attributed interval.
    covered = sum(value for layer, value in self_ns.items() if layer != "protocol.encode")
    t_frame_seconds = _frame_seconds(t)
    n = {
        "protocol.encode_us_per_frame": self_us("protocol.encode", t_statements),
        "protocol.decode_us_per_frame": self_us("protocol.decode", t_statements),
        "protocol.row_encode_us_per_row": self_us("protocol.row", t_rows),
        "protocol.bytes_per_row": ratio(
            t.get("trace.extra.protocol.bytes_in", 0)
            + t.get("trace.extra.protocol.bytes_out", 0), t_rows),
        "server.frame_us.execute_prepared": frame_us("execute_prepared"),
        "server.frame_us.execute": frame_us("execute"),
        "client.wire_us_per_op": ratio(
            (client_seconds - _frame_seconds(d)) * 1e6, sum(base.ops)),
        "pool.read_checkout_us": self_us("pool.read", t.get("pool.checkouts", 0)),
        "pool.checkout_wait_frac": ratio(d.get("pool.waits", 0), d.get("pool.checkouts", 0)),
        "pool.writer_wait_us": self_us("pool.write", t.get("pool.writes", 0)),
        "pool.checkpoint_us": self_us("pool.checkpoint", t.get("pool.checkpoints", 0)),
        "pool.checkpoints_per_1k_writes": ratio(
            d.get("pool.checkpoints", 0) * 1e3, d.get("pool.writes", 0)),
        "tsql.compile_us_per_stmt": self_us("tsql.compile", t_statements),
        "tsql.cache_hit_ratio": hit_ratio("statement"),
        "tsql.translate_us_per_miss": self_us(
            "tsql.translate", t.get("cache.statement.misses", 0)),
        "plan.decide_us_per_stmt": self_us("plan.decide", t_statements),
        "plan.kernel_frac": ratio(kernel_runs, statements),
        "plan.fallbacks": sum(fallbacks.values()),
        **{f"plan.fallbacks.{reason}": count for reason, count in fallbacks.items()},
        "kernels.join_us": self_us("kernels.join", calls.get("kernels.join", 0)),
        "kernels.coalesce_us": self_us("kernels.coalesce", calls.get("kernels.coalesce", 0)),
        "kernels.candidates_per_row": ratio(
            t.get("trace.extra.kernels.join.candidates", 0),
            t.get("trace.extra.kernels.join.rows", 0)),
        "sqlite.exec_us_per_stmt": self_us("sqlite.exec", t_statements),
        "blade.udf_calls_per_stmt": ratio(
            sum_matching(d, "blade.routine.", ".calls"), statements),
        "blade.udf_us_per_stmt": ratio(
            sum_matching(d, "blade.routine.", ".seconds.sum") * 1e6, statements),
        "blade.agg_steps_per_stmt": ratio(
            sum_matching(d, "blade.aggregate.", ".steps"), statements),
        "codec.decode_us": self_us("codec.decode", calls.get("codec.decode", 0)),
        "codec.encode_us": self_us("codec.encode", calls.get("codec.encode", 0)),
        "codec.decodes_per_stmt": ratio(calls.get("codec.decode", 0), t_statements),
        "codec.decode_cache_hit_ratio": hit_ratio("decode"),
        "codec.parse_cache_hit_ratio": hit_ratio("parse"),
        "element.periods_per_stmt": ratio(d.get("element.periods_processed", 0), statements),
        "typemap.map_us_per_row": self_us("typemap.map", t_rows),
        "trace.unattributed_frac": 1.0 - ratio(covered / 1e9, t_frame_seconds),
        "trace.overhead_frac": 1.0 - ratio(
            traced.units / traced.elapsed, base.units / base.elapsed),
        "loadgen.cpu_ms_per_op": ratio(base.loadgen_cpu * 1e3, base.units),
        "loadgen.cpu_util": ratio(base.loadgen_cpu, base.elapsed),
    }
    return {name: _value(value, layer_unit(name)) for name, value in n.items()}


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith(("_us", "_us_per_frame", "_us_per_row", "_us_per_stmt",
                      "_us_per_miss", "_us_per_op")) or ".frame_us." in name:
        return "us"
    if name.endswith("_ms_per_op"):
        return "ms"
    if name.endswith(("_frac", "_ratio")):
        return "fraction"
    if name.endswith("bytes_per_row"):
        return "B"
    if name.endswith("cpu_util"):
        return "cores"
    return "count"


def plan_signature(counters: Dict[str, float]) -> Dict[str, float]:
    """The plan choices a window made: the same-plan guard's subject."""
    return {key: value for key, value in counters.items()
            if key.startswith(("plan.kernel.", "plan.fallback.")) and value}
