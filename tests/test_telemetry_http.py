"""The live telemetry endpoint: every route, and scrapes under load.

The endpoint must answer correctly while the query server is busy —
the headline test runs eight pooled clients sweeping BATCH frames
while the main thread polls ``/metrics`` and ``/debug/flight``
continuously, asserting zero protocol errors on either side and a
flight ring that stays within its capacity bound.

Satellite pins live here too: the ``tsql.cache.*`` and
``linq.compile.*`` counter families must render under fixed Prometheus
names, and the histogram p50/p95/p99 quantiles must surface in both
the text table and the exposition.
"""

from __future__ import annotations

import json
import os
import threading
import urllib.error
import urllib.request

import pytest

import repro
from repro import obs
from repro.obs import flight, profile
from repro.obs.export import render_prometheus, render_text
from repro.obs.http import TelemetryServer
from repro.server import RemoteTipConnection, TipServer
from repro.server.client import RetryPolicy

NO_RETRY = RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0)


@pytest.fixture
def captured():
    with obs.capture() as registry:
        yield registry


def _get(url: str):
    """(status, content_type, body) for one GET, errors surfaced."""
    with urllib.request.urlopen(url, timeout=10) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


class TestRoutes:
    @pytest.fixture
    def server(self, captured):
        with TipServer(telemetry_port=0) as server:
            yield server

    def _base(self, server) -> str:
        host, port = server.telemetry_address
        return f"http://{host}:{port}"

    def test_healthz(self, server):
        status, content_type, body = _get(self._base(server) + "/healthz")
        assert status == 200 and body == "ok\n"
        assert content_type.startswith("text/plain")

    def test_metrics_is_prometheus_text(self, server):
        host, port = server.address
        with RemoteTipConnection(host, port, retry=NO_RETRY) as connection:
            connection.execute("CREATE TABLE t (x INTEGER)")
            connection.execute("INSERT INTO t VALUES (1)")
        status, content_type, body = _get(self._base(server) + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "# TYPE tip_flight_enabled gauge" in body
        assert "tip_flight_enabled 1" in body
        assert "tip_flight_events " in body
        assert "tip_server_frame_execute_calls_total 2" in body
        # The pool gauges ride along from the owning TipServer.
        assert "# TYPE tip_pool_readers gauge" in body
        assert "tip_pool_writes " in body

    def test_debug_flight_is_filterable_jsonl(self, server):
        host, port = server.address
        with RemoteTipConnection(
            host, port, retry=NO_RETRY, session_label="h1"
        ) as connection:
            connection.execute("CREATE TABLE t (x INTEGER)")
            connection.execute("INSERT INTO t VALUES (1)")
        base = self._base(server)
        status, content_type, body = _get(base + "/debug/flight")
        assert status == 200 and content_type == "application/x-ndjson"
        entries = [json.loads(line) for line in body.splitlines()]
        assert {"seq", "ts", "kind"} <= set(entries[0])
        _, _, filtered = _get(base + "/debug/flight?kind=stmt&session=h1")
        kinds = [json.loads(line)["kind"] for line in filtered.splitlines()]
        assert kinds == ["stmt.begin", "stmt.end", "stmt.begin", "stmt.end"]
        _, _, tail = _get(base + "/debug/flight?last=2")
        assert len(tail.splitlines()) == 2

    def test_debug_profiles_and_slow(self, server):
        base = self._base(server)
        status, content_type, body = _get(base + "/debug/profiles")
        assert status == 200 and content_type == "application/json"
        data = json.loads(body)
        assert data["enabled"] is False and data["profiles"] == []
        status, _, body = _get(base + "/debug/slow")
        assert status == 200
        assert json.loads(body)["profiles"] == []

    def test_debug_spans(self, server):
        host, port = server.address
        profile.enable()
        with RemoteTipConnection(host, port, retry=NO_RETRY) as connection:
            result = connection.execute("SELECT 1")
        base = self._base(server)
        status, content_type, body = _get(base + "/debug/spans")
        assert status == 200 and content_type == "application/x-ndjson"
        records = [json.loads(line) for line in body.splitlines()]
        assert records
        for record in records:
            assert {"name", "trace_id", "span_id"} <= set(record)
        _, _, one = _get(base + f"/debug/spans?trace={result.profile.trace_id}")
        names = sorted(json.loads(line)["name"] for line in one.splitlines())
        assert names == ["query.client", "query.server"]
        _, _, tail = _get(base + "/debug/spans?last=1")
        assert len(tail.splitlines()) == 1

    def test_unknown_path_is_a_json_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as caught:
            _get(self._base(server) + "/nope")
        assert caught.value.code == 404
        assert "unknown path" in json.loads(caught.value.read().decode())["error"]


class TestStandalone:
    def test_telemetry_server_runs_without_an_owner(self, captured):
        with TelemetryServer() as telemetry:
            host, port = telemetry.address
            status, _, body = _get(f"http://{host}:{port}/metrics")
        assert status == 200
        # No pool_stats callable: the pool gauges simply stay absent.
        assert "tip_pool_" not in body


class TestPrometheusNames:
    """Satellite pins: counter families render under stable names."""

    def test_tsql_cache_family_is_always_present(self, captured):
        connection = repro.connect(now="1999-09-01")
        try:
            connection.execute("CREATE TABLE t (x INTEGER, valid ELEMENT)")
            connection.execute(
                "INSERT INTO t VALUES (1, element('{[1999-01-01, NOW]}'))"
            )
        finally:
            connection.close()
        body = render_prometheus(obs.snapshot())
        # The full family renders even for stats still at zero, so
        # dashboards never lose the series between invalidations.
        for name in ("hit", "miss", "evict", "invalidate"):
            assert f"# TYPE tip_tsql_cache_{name}_total counter" in body
            assert f"tip_tsql_cache_{name}_total " in body

    def test_linq_compile_counters_render(self, captured):
        connection = repro.connect(now="1999-09-01")
        try:
            connection.execute("CREATE TABLE Rx (drug TEXT, valid ELEMENT)")
            query = connection.linq().table("Rx").snapshot(at="1999-09-01")
            query.run()
        finally:
            connection.close()
        body = render_prometheus(obs.snapshot())
        assert "tip_linq_compile_count_total 1" in body
        assert "tip_linq_compile_chars_total " in body

    def test_histogram_quantiles_render_everywhere(self, captured):
        histogram = obs.histogram("demo.seconds")
        for value in (0.001, 0.002, 0.004, 0.008, 0.5):
            histogram.observe(value)
        snapshot = obs.snapshot()
        hist = snapshot["histograms"]["demo.seconds"]
        assert hist["p50"] is not None
        assert hist["p50"] <= hist["p95"] <= hist["p99"] <= hist["max"]
        text = render_text(snapshot)
        assert "p50" in text and "p95" in text and "p99" in text
        prom = render_prometheus(snapshot)
        assert "# TYPE tip_demo_seconds_quantile gauge" in prom
        for quantile in ("0.5", "0.95", "0.99"):
            assert f'tip_demo_seconds_quantile{{quantile="{quantile}"}} ' in prom


class TestScrapeUnderLoad:
    """Eight pooled clients sweep BATCH frames; scrapes never break."""

    N_CLIENTS = 8
    N_SWEEPS = 6
    BATCH = 8

    def test_concurrent_scrapes_stay_clean(self, captured, tmp_path):
        with TipServer(str(tmp_path / "load.db"), readers=4,
                       telemetry_port=0) as server:
            host, port = server.address
            t_host, t_port = server.telemetry_address
            base = f"http://{t_host}:{t_port}"
            barrier = threading.Barrier(self.N_CLIENTS + 1)
            stop = threading.Event()

            with RemoteTipConnection(host, port, retry=NO_RETRY) as setup:
                setup.execute("CREATE TABLE t (client INTEGER, n INTEGER)")

            def client(index):
                with RemoteTipConnection(
                    host, port, retry=NO_RETRY, session_label=f"load{index}"
                ) as connection:
                    barrier.wait(timeout=10)
                    for sweep in range(self.N_SWEEPS):
                        statements = [
                            ("INSERT INTO t VALUES (?, ?)", (index, n))
                            for n in range(self.BATCH)
                        ] + ["SELECT COUNT(*) FROM t"]
                        for result in connection.execute_batch(statements):
                            assert not isinstance(result, Exception), result

            failures = []

            def run(index):
                try:
                    client(index)
                except Exception as exc:  # surfaced below
                    failures.append((index, exc))

            threads = [
                threading.Thread(target=run, args=(index,))
                for index in range(self.N_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            barrier.wait(timeout=10)

            scrapes = 0
            scrape_failures = []
            while any(thread.is_alive() for thread in threads):
                try:
                    status, _, body = _get(base + "/metrics")
                    assert status == 200 and "tip_flight_events" in body
                    status, _, body = _get(base + "/debug/flight?last=50")
                    assert status == 200
                    for line in body.splitlines():
                        json.loads(line)
                    scrapes += 1
                except Exception as exc:  # pragma: no cover - the failure mode
                    scrape_failures.append(exc)
                    break
            stop.set()
            for thread in threads:
                thread.join(timeout=30)

            assert not failures, failures
            assert not scrape_failures, scrape_failures
            assert scrapes > 0
            recorder = flight.get_recorder()
            assert len(recorder) <= recorder.capacity
            batches = flight.events(kind="batch.end")
            assert len(batches) >= min(
                self.N_CLIENTS * self.N_SWEEPS, recorder.capacity // 4
            )

            # CI hook: persist the ring as an artifact when asked to.
            artifact = os.environ.get("TIP_FLIGHT_ARTIFACT")
            if artifact:
                flight.dump(artifact)
