"""A stdlib HTTP telemetry endpoint for a running TIP process.

One :class:`TelemetryServer` (a ``ThreadingHTTPServer`` on its own
daemon threads) makes the observability surface scrapeable while the
query server keeps serving:

* ``GET /metrics`` — the process snapshot in the Prometheus text
  exposition (:func:`repro.obs.export.render_prometheus`), plus the
  connection-pool gauges when the owner passed a stats callable;
* ``GET /debug/flight`` — the flight ring as JSONL, filterable with
  ``?session=`` / ``?trace=`` / ``?kind=`` / ``?last=``;
* ``GET /debug/spans`` — the ring's ``span`` and ``stmt.profile``
  events as JSONL span records, filterable with ``?trace=`` /
  ``?last=`` (the cross-process timeline input);
* ``GET /debug/profiles`` — the :class:`QueryProfile` records still in
  the ring (``?last=`` bounds the count) as JSON;
* ``GET /debug/slow`` — those at or over the slow threshold, same shape;
* ``GET /healthz`` — liveness.

Every handler reads shared state only through the snapshot functions
the rest of the package already exposes, so scraping is safe under
full concurrent query traffic — the property
``tests/test_telemetry_http.py`` hammers with eight pooled clients.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro import obs
from repro.obs import flight as _flight
from repro.obs import profile as _profile
from repro.obs.export import render_prometheus, span_records

__all__ = ["TelemetryServer"]


def _pool_gauge_lines(stats: dict) -> list:
    """The pool's obs-independent gauges as Prometheus lines."""
    lines = []
    for name in ("readers", "checkouts", "waits", "max_busy", "reads",
                 "writes", "checkpoints", "checkpoint_errors"):
        if name in stats:
            metric = f"tip_pool_{name}"
            lines += [f"# TYPE {metric} gauge", f"{metric} {stats[name]}"]
    return lines


class _TelemetryHandler(BaseHTTPRequestHandler):
    server_version = "TipTelemetry/1.0"
    #: Set by TelemetryServer: () -> pool stats dict, or None.
    pool_stats: Optional[Callable[[], dict]] = None

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # scrapes are high-frequency; stderr noise helps no one

    def _reply(self, body: str, content_type: str, status: int = 200) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        try:
            self.wfile.write(payload)
        except OSError:
            pass  # scraper gone mid-reply; nothing to save

    def do_GET(self) -> None:  # noqa: N802 - http.server's spelling
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)

        def param(name: str) -> Optional[str]:
            values = query.get(name)
            return values[0] if values else None

        def int_param(name: str) -> Optional[int]:
            raw = param(name)
            try:
                return int(raw) if raw is not None else None
            except ValueError:
                return None

        route = parsed.path.rstrip("/") or "/"
        if route == "/metrics":
            text = render_prometheus(obs.snapshot())
            stats_fn = type(self).pool_stats
            if stats_fn is not None:
                text += "\n".join(_pool_gauge_lines(stats_fn())) + "\n"
            self._reply(text, "text/plain; version=0.0.4; charset=utf-8")
        elif route == "/debug/flight":
            entries = _flight.snapshot(
                kind=param("kind"), session=param("session"),
                trace_id=param("trace"), last=int_param("last"),
            )
            body = "".join(json.dumps(e, sort_keys=True) + "\n" for e in entries)
            self._reply(body, "application/x-ndjson")
        elif route == "/debug/spans":
            records = span_records(_flight.events(trace_id=param("trace")))
            last = int_param("last")
            if last:
                records = records[-last:]
            body = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
            self._reply(body, "application/x-ndjson")
        elif route == "/debug/profiles":
            profiles = _profile.recent_profiles(int_param("last"))
            self._reply(json.dumps({
                "enabled": _profile.state.enabled,
                "profiles": [p.as_dict() for p in profiles],
            }, sort_keys=True), "application/json")
        elif route == "/debug/slow":
            profiles = _profile.slow_log(int_param("last"))
            self._reply(json.dumps({
                "threshold": _profile.state.slow_threshold,
                "profiles": [p.as_dict() for p in profiles],
            }, sort_keys=True), "application/json")
        elif route == "/healthz":
            self._reply("ok\n", "text/plain")
        else:
            self._reply(json.dumps({"error": f"unknown path {parsed.path!r}"}),
                        "application/json", status=404)


class TelemetryServer:
    """Serve the telemetry endpoint on a background thread.

    *pool_stats*, when given, is a zero-argument callable (typically
    ``TipServer.pool.stats``) whose dict is appended to ``/metrics`` as
    ``tip_pool_*`` gauges.  Port 0 picks a free port; :attr:`address`
    reports the bound one.  Usable as a context manager.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        pool_stats: Optional[Callable[[], dict]] = None,
    ) -> None:
        handler = type("_BoundTelemetryHandler", (_TelemetryHandler,),
                       {"pool_stats": staticmethod(pool_stats) if pool_stats else None})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port)."""
        return self._httpd.server_address[:2]

    def start(self) -> "TelemetryServer":
        if self._thread is not None:
            raise RuntimeError("telemetry server already started")
        self._thread = threading.Thread(
            target=lambda: self._httpd.serve_forever(poll_interval=0.05),
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
